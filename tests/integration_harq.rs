//! HARQ integration tests through the `ldpc` facade: rate-compatible
//! retransmissions, soft-buffer combining and the bounded store, end to end
//! against the serving layer.
//!
//! The properties pinned here are the stateful-serving contract:
//!
//! * soft combining is **order-independent** — any permutation of the same
//!   transmissions yields bit-identical combined codes (wide accumulation,
//!   one saturation on read), offline and through the service alike;
//! * combined decode outputs are **bit-identical across thread counts and
//!   batch widths** — scheduling never changes results;
//! * punctured redundancy versions expand and combine exactly like the
//!   offline `PuncturePattern` + `HarqCombiner` mirror;
//! * eviction under a tiny budget restarts sessions from fresh LLRs without
//!   wedging a frame or leaking an entry; TTL reaps idle sessions;
//! * refused submissions retry through the prelude [`RetryPolicy`] without
//!   re-combining transmission energy, and shutdown drains the store to
//!   zero occupancy with a balanced ledger.

use std::time::{Duration, Instant};

use ldpc::prelude::*;
use ldpc::serve::harq::entry_bytes;

const CODE_N: usize = 576;

fn code() -> CodeId {
    CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, CODE_N)
}

fn decoder() -> LayeredDecoder<FixedBpArithmetic> {
    LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap()
}

/// One codeword's worth of retransmissions: the same frame through
/// independent AWGN noise draws.
fn transmissions(seed: u64, ebn0_db: f64, count: usize) -> Vec<Vec<f64>> {
    let built = code().build().unwrap();
    let mut source = FrameSource::random(&built, seed).unwrap();
    let channel = AwgnChannel::from_ebn0_db(ebn0_db, built.rate());
    let frame = source.next_frame();
    (0..count)
        .map(|_| channel.transmit(&frame.codeword, source.noise_rng()))
        .collect()
}

/// The offline mirror of the service's combining pipeline: normalize and
/// quantize each transmission, accumulate wide, saturate once, dequantize.
fn combine_offline(quantizer: &LlrQuantizer, txs: &[&[f64]]) -> Vec<f64> {
    let combiner = HarqCombiner::new(quantizer.max_code());
    let mut acc = vec![0i32; txs[0].len()];
    for tx in txs {
        let mut full = tx.to_vec();
        quantizer.normalize_in_place(&mut full);
        combiner.accumulate(&mut acc, &quantizer.quantize_all_to_codes(&full));
    }
    let mut saturated = vec![0i32; acc.len()];
    combiner.saturate_into(&acc, &mut saturated);
    saturated.iter().map(|&c| quantizer.dequantize(c)).collect()
}

fn decode_one(llrs: &[f64]) -> DecodeOutput {
    let compiled = code().build().unwrap().compile();
    decoder()
        .decode_batch(&compiled, LlrBatch::new(llrs, CODE_N).unwrap())
        .unwrap()
        .remove(0)
}

#[test]
fn offline_combining_is_order_independent() {
    let txs = transmissions(11, 1.0, 4);
    let quantizer = LlrQuantizer::default();
    let reference = combine_offline(&quantizer, &[&txs[0], &txs[1], &txs[2], &txs[3]]);
    let orders: [[usize; 4]; 5] = [
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [1, 3, 0, 2],
        [2, 0, 3, 1],
        [3, 0, 1, 2],
    ];
    for order in orders {
        let permuted: Vec<&[f64]> = order.iter().map(|&i| txs[i].as_slice()).collect();
        assert_eq!(
            combine_offline(&quantizer, &permuted),
            reference,
            "combining order {order:?} changed the result"
        );
    }
}

#[test]
fn service_combining_matches_any_retransmission_order() {
    let txs = transmissions(23, 1.0, 4);
    let mut finals = Vec::new();
    for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
        // Paused service: all four transmissions combine at submission time,
        // before any decode can succeed and release the buffer mid-sequence —
        // so the last frame always carries the full four-way combination and
        // its decode must not depend on the arrival order.
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code())
            .unwrap()
            .build()
            .unwrap();
        let key = HarqKey::new(9, 2);
        let handles: Vec<FrameHandle> = order
            .iter()
            .map(|&i| {
                service
                    .submit_harq(code(), key, i as u8, txs[i].clone(), ())
                    .unwrap()
            })
            .collect();
        service.resume();
        let mut last = None;
        for (handle, &i) in handles.into_iter().zip(&order) {
            let out = handle.wait();
            let DecodeOutcome::Decoded(out) = out else {
                panic!("transmission {i} did not decode: {out:?}");
            };
            last = Some(out);
        }
        service.shutdown();
        finals.push(last.unwrap());
    }
    assert_eq!(finals[0], finals[1], "reversed order changed the decode");
    assert_eq!(finals[0], finals[2], "shuffled order changed the decode");
    // And the service agrees with the offline mirror of all four.
    let quantizer = LlrQuantizer::default();
    let mirror = combine_offline(&quantizer, &[&txs[0], &txs[1], &txs[2], &txs[3]]);
    assert_eq!(finals[0], decode_one(&mirror));
}

#[test]
fn harq_outputs_are_bit_identical_across_thread_counts_and_batch_widths() {
    let run = |threads: usize, max_batch: usize| -> Vec<DecodeOutput> {
        let service = DecodeService::builder(decoder())
            .decode_threads(threads)
            .max_batch(max_batch)
            .register(code())
            .unwrap()
            .build()
            .unwrap();
        let mut traffic = HarqTraffic::new(code(), 1.5, 4, 4, 77).unwrap();
        let outputs = (0..80)
            .map(|_| {
                let tx = traffic.next_tx();
                let out = service
                    .submit_harq(
                        code(),
                        HarqKey::new(tx.user, tx.process),
                        tx.rv,
                        tx.llrs,
                        (),
                    )
                    .unwrap()
                    .wait();
                out.into_output().expect("fault-free HARQ frames decode")
            })
            .collect();
        service.shutdown();
        outputs
    };
    let reference = run(1, 1);
    assert_eq!(reference, run(4, 8), "4 threads / batch 8 diverged");
    assert_eq!(reference, run(2, 4), "2 threads / batch 4 diverged");
}

#[test]
fn punctured_redundancy_versions_reassemble_the_mother_codeword() {
    let tx_bits = 288;
    let service = DecodeService::builder(decoder())
        .harq_puncture(code(), tx_bits)
        .register(code())
        .unwrap()
        .build()
        .unwrap();
    let pattern = code()
        .build()
        .unwrap()
        .compile()
        .puncture_pattern(tx_bits)
        .unwrap();
    let txs = transmissions(31, 4.0, 2);
    let key = HarqKey::new(4, 1);
    // rv 0 and rv 2 start half the codeword apart at tx 288 of 576 — between
    // them every mother-code position is observed exactly once.
    let punctured0 = pattern.puncture(0, &txs[0]);
    let punctured2 = pattern.puncture(2, &txs[1]);
    let expanded0 = pattern.expand(0, &punctured0);
    let expanded2 = pattern.expand(2, &punctured2);
    assert!(
        expanded0
            .iter()
            .zip(&expanded2)
            .all(|(a, b)| (*a == 0.0) != (*b == 0.0)),
        "rv0 and rv2 must erase complementary halves"
    );

    let out0 = service
        .submit_harq(code(), key, 0, punctured0, ())
        .unwrap()
        .wait();
    assert!(matches!(out0, DecodeOutcome::Decoded(_)));
    let out2 = service
        .submit_harq(code(), key, 2, punctured2, ())
        .unwrap()
        .wait();
    let DecodeOutcome::Decoded(out2) = out2 else {
        panic!("rv2 did not decode: {out2:?}");
    };
    service.shutdown();

    let quantizer = LlrQuantizer::default();
    let mirror = combine_offline(&quantizer, &[&expanded0, &expanded2]);
    assert_eq!(
        out2,
        decode_one(&mirror),
        "the service must match the offline expand + combine mirror"
    );
}

#[test]
fn evictions_restart_sessions_without_wedging_or_leaking() {
    // Budget for exactly two buffers; park entries deterministically by
    // letting queued frames expire (an expired frame parks its buffer).
    let service = DecodeService::builder(decoder())
        .start_paused()
        .harq_buffer_bytes(2 * entry_bytes(CODE_N))
        .register(code())
        .unwrap()
        .build()
        .unwrap();
    let txs = transmissions(47, 1.0, 2);
    let expired: Vec<FrameHandle> = (0..4u64)
        .map(|user| {
            service
                .submit_harq(
                    code(),
                    HarqKey::new(user, 0),
                    0,
                    txs[0].clone(),
                    SubmitOptions::new().deadline(Instant::now()),
                )
                .unwrap()
        })
        .collect();
    // Users 0 and 1 were displaced by users 2 and 3 at submission time.
    let mid = service.harq_stats();
    assert_eq!(mid.entries, 2);
    assert_eq!(mid.evictions_lru, 2);
    assert!(mid.peak_occupancy_bytes <= mid.budget_bytes);
    service.resume();
    for handle in expired {
        assert!(
            matches!(handle.wait(), DecodeOutcome::Expired),
            "the deterministic park path expects expiry"
        );
    }
    // User 0's retransmission finds its buffer gone and restarts from fresh
    // LLRs; user 3's survives and combines a second round. Both decode.
    for user in [0u64, 3] {
        let out = service
            .submit_harq(code(), HarqKey::new(user, 0), 1, txs[1].clone(), ())
            .unwrap()
            .wait();
        assert!(
            matches!(out, DecodeOutcome::Decoded(_)),
            "user {user} wedged after eviction: {out:?}"
        );
    }
    let stats = service.harq_stats();
    assert_eq!(stats.evicted_restarts, 1, "only user 0 restarted");
    let store = service.harq_store();
    service.shutdown();
    let after = store.stats();
    assert_eq!(after.occupancy_bytes, 0, "shutdown drains every buffer");
    assert_eq!(after.leaked(), 0, "every buffer's end is accounted");
}

#[test]
fn ttl_reaps_idle_sessions() {
    let service = DecodeService::builder(decoder())
        .start_paused()
        .harq_ttl(Duration::from_millis(25))
        .register(code())
        .unwrap()
        .build()
        .unwrap();
    let txs = transmissions(53, 1.0, 2);
    let handle = service
        .submit_harq(
            code(),
            HarqKey::new(1, 0),
            0,
            txs[0].clone(),
            SubmitOptions::new().deadline(Instant::now()),
        )
        .unwrap();
    service.resume();
    assert!(matches!(handle.wait(), DecodeOutcome::Expired));
    assert_eq!(service.harq_stats().entries, 1, "expired frame parked");
    std::thread::sleep(Duration::from_millis(60));
    // Any store operation sweeps the TTL; a different user's combine will do.
    let out = service
        .submit_harq(code(), HarqKey::new(2, 0), 0, txs[1].clone(), ())
        .unwrap()
        .wait();
    assert!(matches!(out, DecodeOutcome::Decoded(_)));
    let stats = service.harq_stats();
    assert_eq!(stats.evictions_ttl, 1, "the idle session was reaped");
    service.shutdown();
}

#[test]
fn refused_retransmissions_retry_through_the_prelude_policy() {
    let service = DecodeService::builder(decoder())
        .start_paused()
        .queue_capacity(1)
        .register(code())
        .unwrap()
        .build()
        .unwrap();
    let txs = transmissions(61, 1.0, 2);
    // Fill the only queue slot so the HARQ submission is refused at first.
    let blocker = service.submit(code(), txs[0].clone(), ()).unwrap();
    let retry = RetryPolicy {
        max_attempts: 400,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            service.resume();
        });
        service
            .submit_harq_with_retry(code(), HarqKey::new(8, 0), 0, txs[1].clone(), (), retry)
            .unwrap()
            .wait()
    });
    assert!(matches!(out, DecodeOutcome::Decoded(_)));
    assert!(blocker.wait().is_decoded());
    let stats = service.harq_stats();
    assert_eq!(
        stats.combines, 1,
        "refused attempts must re-attach the banked energy, not re-combine"
    );
    service.shutdown();
}

#[test]
fn non_finite_transmissions_create_and_release_no_soft_buffer() {
    let tx_bits = 288;
    let service = DecodeService::builder(decoder())
        .start_paused()
        .harq_puncture(code(), tx_bits)
        .register(code())
        .unwrap()
        .build()
        .unwrap();
    let untouched = service.harq_stats();

    // All-NaN full codeword and a single +inf in a punctured transmission:
    // both refused before any combining, naming the first bad index.
    let err = service
        .submit_harq(code(), HarqKey::new(1, 0), 0, vec![f64::NAN; CODE_N], ())
        .unwrap_err();
    assert!(
        matches!(err, SubmitError::NonFiniteLlr { index: 0, .. }),
        "{err:?}"
    );
    let mut punctured = vec![3.0; tx_bits];
    punctured[77] = f64::INFINITY;
    let err = service
        .submit_harq(code(), HarqKey::new(2, 0), 1, punctured.clone(), ())
        .unwrap_err();
    assert!(
        matches!(err, SubmitError::NonFiniteLlr { index: 77, .. }),
        "{err:?}"
    );
    assert_eq!(service.harq_stats(), untouched, "no buffer created");

    // A parked buffer survives a non-finite retransmission untouched: it is
    // neither combined into nor released.
    let txs = transmissions(71, 1.0, 1);
    let parked = service
        .submit_harq(
            code(),
            HarqKey::new(3, 0),
            0,
            txs[0].clone(),
            SubmitOptions::new().deadline(Instant::now()),
        )
        .unwrap();
    service.resume();
    assert!(matches!(parked.wait(), DecodeOutcome::Expired));
    let before = service.harq_stats();
    assert_eq!(before.entries, 1, "expired frame parked");
    let err = service
        .submit_harq_with_retry(
            code(),
            HarqKey::new(3, 0),
            1,
            punctured,
            (),
            RetryPolicy::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::NonFiniteLlr { .. }), "{err:?}");
    assert_eq!(service.harq_stats(), before, "parked buffer untouched");
    service.shutdown();
}
