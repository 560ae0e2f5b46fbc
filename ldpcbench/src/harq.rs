//! `harq-lowsnr`: a closed loop of 32 concurrent HARQ sessions on WiMAX
//! r1/2 n=576, in lockstep rounds. Each session sends punctured
//! incremental-redundancy transmissions through `submit_harq` and
//! retransmits the next redundancy version only on a NACK, up to four.
//!
//! Every session cycles through its own fixed list of blocks; the noise of
//! each `(session, block, rv)` is drawn from its own seed, so outcomes do
//! not depend on how sessions interleave. Each pass over a session's list
//! uses fresh keys and must reproduce the first pass exactly.

use std::time::{Duration, Instant};

use ldpc_channel::{AwgnChannel, FrameSource, LlrQuantizer};
use ldpc_codes::{CodeId, CodeRate, CompiledCode, PuncturePattern, Standard};
use ldpc_core::{CascadeDecoder, Decoder, HarqCombiner, LlrBatch};
use ldpc_serve::{CascadePolicy, DecodeOutcome, DecodeService, FrameHandle, HarqKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{fingerprint, mix, ms, quantile, touched, us, Series};
use crate::{host, offline, Ctx, Outcome};

const SESSIONS: usize = 32;
const BLOCKS: usize = 64;
const RVS: u8 = 4;
/// Bits sent per transmission: 16 of the mother code's 24 circulant
/// columns (per-transmission rate 3/4).
const TX_BITS: usize = 384;
/// Eb/N0 (against the mother-code rate) where first transmissions mostly
/// fail and a second one mostly succeeds.
const EBN0_DB: f64 = 1.0;
/// Eb/N0 of the warm-up: every first transmission decodes in stage 1 in a
/// few iterations, so the warm-up's work does not depend on how the
/// service happens to coalesce it ...
const WARM_UP_EBN0_DB: f64 = 20.0;
/// ... except one block far below the waterfall, sent alone first, that
/// fails both cascade stages and so fills the stage-2 workspaces.
const WARM_UP_HARD_EBN0_DB: f64 = -4.0;
/// Soft-buffer budget: far above the live working set (32 buffers plus the
/// parked buffers of blocks that fail all four transmissions), so nothing is
/// ever evicted and no outcome depends on timing.
const BUDGET: usize = 256 << 20;
/// Blocks of session 0 re-derived by the offline combining mirror.
const MIRROR_BLOCKS: usize = 8;

fn mode() -> CodeId {
    CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
}

struct Block {
    info: Vec<u8>,
    /// Punctured transmissions, one per redundancy version.
    tx: Vec<Vec<f64>>,
}

fn generate(
    seed: u64,
    sessions: usize,
    blocks: usize,
    ebn0_db: f64,
) -> (CompiledCode, PuncturePattern, Vec<Vec<Block>>) {
    let code = mode().build().expect("supported");
    let compiled = code.compile();
    let pattern = compiled.puncture_pattern(TX_BITS).expect("z-aligned");
    let channel = AwgnChannel::from_ebn0_db(ebn0_db, code.rate());
    let inputs = (0..sessions)
        .map(|s| {
            let mut source =
                FrameSource::random(&code, mix(seed, 5, s as u64, 0)).expect("encodable");
            (0..blocks)
                .map(|b| {
                    let frame = source.next_frame();
                    let tx = (0..RVS)
                        .map(|rv| {
                            let mut rng = StdRng::seed_from_u64(mix(
                                seed,
                                6,
                                (s * blocks + b) as u64,
                                u64::from(rv),
                            ));
                            pattern.puncture(rv, &channel.transmit(&frame.codeword, &mut rng))
                        })
                        .collect();
                    Block {
                        info: frame.info,
                        tx,
                    }
                })
                .collect()
        })
        .collect();
    (compiled, pattern, inputs)
}

/// One complete set-up: build and compile the mode, build the service, and
/// warm it with the hard block alone, then one transmission per session.
fn set_up(ctx: &Ctx, hard: &Block, inputs: &[Vec<Block>]) -> (DecodeService<CascadeDecoder>, f64) {
    let t = Instant::now();
    let builder = {
        let _span = ctx.tracer.span("codes.build_compile", None);
        DecodeService::builder(CascadePolicy::default())
            .dispatch_workers(host::nproc().saturating_sub(1).max(1))
            // One mode means one shard drained by one worker at a time; its
            // batches fan out over every core instead, so a steal burst on
            // one vCPU stalls only the chunk it holds.
            .decode_threads(host::nproc())
            .max_batch(30)
            .harq_buffer_bytes(BUDGET)
            .harq_puncture(mode(), TX_BITS)
            .register(mode())
            .expect("mode registers")
    };
    let build_compile = ms(t.elapsed());
    let service = builder.build().expect("service builds");
    // Warm every group width a full round of sessions can coalesce into,
    // on keys the measured loop never uses.
    let warm = |i: u64, block: &Block| {
        service
            .submit_harq(
                mode(),
                HarqKey::new(u64::MAX - i, 0),
                0,
                block.tx[0].clone(),
                (),
            )
            .expect("warm-up accepted")
    };
    let _ = warm(SESSIONS as u64, hard).wait();
    let handles: Vec<FrameHandle> = (0..SESSIONS)
        .map(|i| warm(i as u64, &inputs[i % inputs.len()][0]))
        .collect();
    for handle in handles {
        let _ = handle.wait();
    }
    (service, build_compile)
}

/// One session's position in its block list.
struct Session {
    block: usize,
    rv: u8,
    pass: u64,
    handle: Option<FrameHandle>,
    submitted: Instant,
    /// Id of the transmission in flight (the trace's frame id).
    tx: u64,
}

/// The offline mirror of the service's combining for one block: expand,
/// normalize, quantize, wide accumulate, saturate, dequantize, then a
/// direct `decode_batch`. Returns each transmission's fingerprint.
fn mirror(
    decoder: &CascadeDecoder,
    compiled: &CompiledCode,
    pattern: &PuncturePattern,
    block: &Block,
    rounds: usize,
) -> Vec<u64> {
    let quantizer = LlrQuantizer::default();
    let combiner = HarqCombiner::new(quantizer.max_code());
    let n = compiled.n();
    let mut acc = vec![0i32; n];
    let mut saturated = vec![0i32; n];
    (0..rounds)
        .map(|rv| {
            let mut full = pattern.expand(rv as u8, &block.tx[rv]);
            quantizer.normalize_in_place(&mut full);
            combiner.accumulate(&mut acc, &quantizer.quantize_all_to_codes(&full));
            combiner.saturate_into(&acc, &mut saturated);
            let llrs: Vec<f64> = saturated.iter().map(|&c| quantizer.dequantize(c)).collect();
            let out = decoder
                .decode_batch(compiled, LlrBatch::new(&llrs, n).expect("shape"))
                .expect("mirror decodes");
            fingerprint(&out[0])
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let (sessions, blocks) = if ctx.smoke {
        (4, 4)
    } else {
        (SESSIONS, BLOCKS)
    };
    let (compiled, pattern, inputs) = generate(ctx.seed, sessions, blocks, EBN0_DB);
    let (_, _, warm_up) = generate(crate::WARM_UP_SEED, SESSIONS, 1, WARM_UP_EBN0_DB);
    let (_, _, hard) = generate(crate::WARM_UP_SEED, 1, 1, WARM_UP_HARD_EBN0_DB);
    let k = compiled.info_bits();
    // Room for 50 000 transmissions a second (about four times the rate on
    // the reference host), at least one whole pass, resident before the
    // baseline.
    let capacity = (ctx.seconds as usize * 50_000).max(sessions * blocks * usize::from(RVS));
    let mut series = Series::with_capacity(Duration::from_millis(500), capacity);
    let mut submit_us: Vec<f64> = touched(if ctx.trace { capacity } else { 0 }, 1.0);
    o.set_input_baseline();

    let service = o.set_up_cycles(
        ctx,
        if ctx.smoke { 2 } else { 60 },
        || set_up(ctx, &hard[0][0], &warm_up),
        |previous| drop(previous.shutdown()),
    );

    let shard_before = service.stats();
    let store_before = service.harq_stats();
    // Pass-0 record per (session, block): transmissions used, delivered.
    let mut first_pass: Vec<Vec<Option<(u8, bool)>>> = vec![vec![None; blocks]; sessions];
    let mut mirror_prints: Vec<Vec<u64>> = vec![Vec::new(); MIRROR_BLOCKS.min(blocks)];
    let mut sessions_state: Vec<Session> = (0..sessions)
        .map(|_| Session {
            block: 0,
            rv: 0,
            pass: 0,
            handle: None,
            submitted: Instant::now(),
            tx: 0,
        })
        .collect();
    let (mut tx_total, mut failed, mut mismatches) = (0u64, 0u64, 0u64);
    let (mut iters0, mut cnu0, mut tx0) = (0u64, 0u64, 0u64);
    let mut undetected = 0u64;
    let mut tx_id = 0u64;
    let duration = Duration::from_secs_f64(ctx.seconds);
    let mut stopping = false;

    let submit = |s: usize, st: &mut Session, tx_id: &mut u64, submit_us: &mut Vec<f64>| {
        let key = HarqKey::new(
            (st.pass * sessions as u64 + s as u64) * blocks as u64 + st.block as u64,
            0,
        );
        let llrs = inputs[s][st.block].tx[usize::from(st.rv)].clone();
        let t = Instant::now();
        let handle = {
            let _span = ctx.tracer.span("serve.harq.submit", Some(*tx_id));
            service.submit_harq(mode(), key, st.rv, llrs, ())
        };
        if ctx.trace {
            submit_us.push(us(t.elapsed()));
        }
        st.handle = Some(handle.expect("closed-loop submission accepted"));
        st.submitted = t;
        st.tx = *tx_id;
        *tx_id += 1;
    };

    if ctx.trace {
        ctx.tracer.start_alternating();
    }
    let mut probed = Instant::now();
    let start = Instant::now();
    series.start(start);
    series.probe(&mut o.probe);
    // Lockstep rounds, as a base station schedules HARQ per transmission
    // interval: every live session sends one transmission, then the round
    // waits for all of them. A session goes idle at its next block boundary
    // once time is up and every session has finished its first pass.
    let mut round: Vec<usize> = (0..sessions).collect();
    let mut idle = vec![false; sessions];
    while !round.is_empty() {
        if probed.elapsed() >= offline::PROBE_INTERVAL {
            series.probe(&mut o.probe);
            probed = Instant::now();
        }
        for &s in &round {
            submit(s, &mut sessions_state[s], &mut tx_id, &mut submit_us);
        }
        for &s in &round {
            let st = &mut sessions_state[s];
            let outcome = st
                .handle
                .take()
                .expect("a submitted session has a handle")
                .wait();
            let now = Instant::now();
            let elapsed = now - start;
            ctx.tracer
                .record_async("serve.harq.tx", st.tx, st.submitted, now);
            ctx.tracer.tick(1);
            tx_total += 1;
            let block = &inputs[s][st.block];
            let ack = match outcome {
                DecodeOutcome::Decoded(out) => {
                    if st.pass == 0 {
                        iters0 += out.iterations as u64;
                        cnu0 += out.stats.check_node_updates as u64;
                        tx0 += 1;
                        if s == 0 && st.block < mirror_prints.len() {
                            mirror_prints[st.block].push(fingerprint(&out));
                        }
                    }
                    let mut bits = 0;
                    if out.parity_satisfied {
                        if out.info_bits(k) == block.info.as_slice() {
                            bits = k as u64;
                        } else {
                            undetected += 1;
                        }
                    }
                    series.record(now, 1, bits, ms(now - st.submitted));
                    out.parity_satisfied
                }
                _ => {
                    failed += 1;
                    series.record(now, 1, 0, f64::INFINITY);
                    false
                }
            };
            if !ack && st.rv + 1 < RVS {
                st.rv += 1;
            } else {
                let record = (st.rv + 1, ack);
                let slot = &mut first_pass[s][st.block];
                match slot {
                    None => *slot = Some(record),
                    Some(first) if *first != record => mismatches += 1,
                    Some(_) => {}
                }
                st.rv = 0;
                st.block += 1;
                if st.block == blocks {
                    st.block = 0;
                    st.pass += 1;
                }
                stopping =
                    stopping || (elapsed >= duration && sessions_state.iter().all(|x| x.pass >= 1));
                idle[s] = stopping;
            }
        }
        round.retain(|&s| !idle[s]);
    }
    let wall = start.elapsed();
    // Every thread counts, this one too: `submit_harq` expands, quantizes
    // and combines into the soft-buffer store on the caller's thread.
    series.finish(Instant::now());
    ctx.tracer.stop_alternating();
    o.set_peak_rss();

    // Exact pass-0 counts.
    let records: Vec<(u8, bool)> = first_pass
        .iter()
        .flatten()
        .map(|r| r.expect("pass 0 complete"))
        .collect();
    let blocks_total = records.len() as u64;
    let tx_pass0: u64 = records.iter().map(|&(tx, _)| u64::from(tx)).sum();
    let acked: u64 = records.iter().filter(|&&(_, ack)| ack).count() as u64;
    let nacks = tx_pass0 - acked;
    if failed == 0 && tx_pass0 != tx0 {
        o.problem(format!(
            "pass 0 counted {tx_pass0} transmissions, decoded {tx0}"
        ));
    }
    if mismatches > 0 {
        o.problem(format!(
            "{mismatches} blocks took a different path than in the first pass"
        ));
    }

    // Bit-identity of the first blocks of session 0 against the mirror.
    let reference = CascadePolicy::default().decoder();
    for (b, prints) in mirror_prints.iter().enumerate() {
        let expected = mirror(&reference, &compiled, &pattern, &inputs[0][b], prints.len());
        if &expected != prints {
            o.problem(format!(
                "session 0 block {b} differs from the offline combining mirror"
            ));
        }
    }

    let shard_after = service.stats();
    let store = service.harq_stats();
    if store.evictions() != store_before.evictions() {
        o.problem("the soft-buffer store evicted; the budget is below the working set");
    }
    let (s1, s2) = stage_delta(&shard_before, &shard_after);

    o.attempted = tx_total;
    o.failed = failed;
    o.set_timed(&series, wall, true);
    o.set("block_error_rate", nacks as f64 / tx_pass0 as f64);
    o.set("harq_tx_per_block", tx_pass0 as f64 / blocks_total as f64);
    o.set(
        "core.iterations_per_frame",
        iters0 as f64 / tx0.max(1) as f64,
    );
    o.set(
        "core.check_node_updates_per_frame",
        cnu0 as f64 / tx0.max(1) as f64,
    );
    o.set("core.escalation_rate", s2 as f64 / s1.max(1) as f64);
    o.set("serve.harq.submit_us", quantile(&mut submit_us, 0.5));
    o.set(
        "serve.harq.combines",
        (store.combines - store_before.combines) as f64,
    );
    o.set(
        "serve.harq.peak_occupancy_bytes",
        store.peak_occupancy_bytes as f64,
    );
    o.set(
        "arch.model_info_mbps",
        offline::arch_model_mbps(
            &mode().build().expect("supported"),
            (iters0 as f64 / tx0.max(1) as f64).ceil().max(1.0) as usize,
        ),
    );
    o.exact = vec![
        ("blocks", blocks_total.to_string()),
        ("transmissions", tx_pass0.to_string()),
        ("acked", acked.to_string()),
        ("iterations", iters0.to_string()),
        ("check_node_updates", cnu0.to_string()),
    ];
    // Parity-satisfied decodes to the wrong codeword: acknowledged, but not
    // delivered. Recorded, not an error of the benchmark.
    o.set("harq.undetected_blocks", undetected as f64);

    if ctx.trace {
        let n = compiled.n();
        let quantizer = LlrQuantizer::default();
        let llrs: Vec<f64> = inputs
            .iter()
            .flatten()
            .take(64)
            .flat_map(|b| {
                let mut full = pattern.expand(0, &b.tx[0]);
                quantizer.normalize_in_place(&mut full);
                full
            })
            .collect();
        ctx.tracer.set_enabled(true);
        o.set(
            "core.single_frame_us",
            offline::single_frame_us(ctx, &compiled, &reference, &llrs, n, 64),
        );
        ctx.tracer.set_enabled(false);
    }
    service.shutdown();
    o
}

fn stage_delta(before: &[ldpc_serve::ShardStats], after: &[ldpc_serve::ShardStats]) -> (u64, u64) {
    let sum = |v: &[ldpc_serve::ShardStats], i: usize| {
        v.iter().map(|s| s.cascade_stage_frames[i]).sum::<u64>()
    };
    (
        sum(after, 0) - sum(before, 0),
        sum(after, 1) - sum(before, 1),
    )
}
