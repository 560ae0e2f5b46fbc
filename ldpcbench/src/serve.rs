//! `serve-allmodes`: an open loop at one fixed rate into a `DecodeService`
//! with all 88 WiMAX and WiFi modes registered, followed (in the traced
//! run) by a bisection search for the highest rate the service sustains.
//!
//! 80% of the traffic goes to WiMAX r1/2 576, WiFi r1/2 648 and WiMAX r1/2
//! 2304; the other 20% is spread evenly over the remaining modes. Each
//! frame's Eb/N0 comes from the 2/4/6 dB 1:3:6 serving mix. Composition is
//! exact (fixed slot counts, seeded shuffle), so only data and noise vary
//! with the seed.

use std::time::{Duration, Instant};

use ldpc_channel::{AwgnChannel, FrameBlock, FrameSource, LlrQuantizer};
use ldpc_codes::{CodeId, CodeRate, CompiledCode, Standard};
use ldpc_core::{DecodeOutput, Decoder, LlrBatch};
use ldpc_serve::{
    CascadePolicy, DecodeOutcome, DecodeService, FrameHandle, ShardPolicy, ShardStats, SubmitError,
    SubmitOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{fingerprint, mix, ms, quantile, touched, us, Series};
use crate::{host, offline, Ctx, Outcome};

/// Shard latency target; also the latency limit of the rate search. Wide
/// enough that a host stall of tens of milliseconds does not shed frames at
/// the fixed rate.
const SLO: Duration = Duration::from_millis(200);
/// Micro-batch hold ceiling.
const MAX_HOLD: Duration = Duration::from_millis(2);
/// Offered rate of the fixed-rate phase.
const FIXED_RATE: f64 = 3000.0;
/// The search brackets `[FIXED_RATE, FIXED_RATE · SEARCH_SPAN]` and halves
/// it geometrically `SEARCH_STEPS` times: resolution `SPAN^(1/2^STEPS)`,
/// 3.3%.
const SEARCH_SPAN: f64 = 8.0;
const SEARCH_STEPS: usize = 6;

struct PoolFrame {
    mode: usize,
    /// AGC-normalized LLRs as quantizer codes: the service's ingest
    /// normalization maps them to themselves, and eight bits per LLR keep a
    /// large pool small.
    codes: Vec<i8>,
    info: Vec<u8>,
    /// Fingerprint of the sequential reference decode.
    reference: u64,
    /// Reference decode delivered the transmitted information bits.
    reference_ok: bool,
    iterations: usize,
    check_node_updates: usize,
}

impl PoolFrame {
    fn llrs(&self) -> Vec<f64> {
        let quantizer = LlrQuantizer::default();
        self.codes
            .iter()
            .map(|&c| quantizer.dequantize(i32::from(c)))
            .collect()
    }
}

struct Traffic {
    modes: Vec<CodeId>,
    compiled: Vec<CompiledCode>,
    pool: Vec<PoolFrame>,
    /// Index into `pool` of one frame of every mode, for warm-up.
    first_of_mode: Vec<usize>,
}

fn all_modes() -> Vec<CodeId> {
    let mut modes = CodeId::all_modes(Standard::Wimax80216e);
    modes.extend(CodeId::all_modes(Standard::Wifi80211n));
    modes
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

fn generate(seed: u64, frames: usize) -> Traffic {
    let modes = all_modes();
    let hot: Vec<usize> = [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304),
    ]
    .iter()
    .map(|id| {
        modes
            .iter()
            .position(|m| m == id)
            .expect("hot mode registered")
    })
    .collect();
    let cold: Vec<usize> = (0..modes.len()).filter(|m| !hot.contains(m)).collect();
    let hot_slots = frames * 8 / 10;
    let mut slot_modes: Vec<usize> = (0..frames)
        .map(|j| {
            if j < hot_slots {
                hot[j % hot.len()]
            } else {
                cold[(j - hot_slots) % cold.len()]
            }
        })
        .collect();
    let mut slot_snrs: Vec<usize> = (0..frames)
        .map(|j| match j * 10 / frames {
            0 => 0,
            1..=3 => 1,
            _ => 2,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 3, 0, 0));
    shuffle(&mut slot_modes, &mut rng);
    shuffle(&mut slot_snrs, &mut rng);

    let codes: Vec<_> = modes
        .iter()
        .map(|id| id.build().expect("supported"))
        .collect();
    let mut sources: Vec<FrameSource> = codes
        .iter()
        .enumerate()
        .map(|(m, code)| FrameSource::random(code, mix(seed, 4, m as u64, 0)).expect("encodable"))
        .collect();
    let quantizer = LlrQuantizer::default();
    let mut block = FrameBlock::new();
    let mut pool = Vec::with_capacity(frames);
    for (&mode, &snr) in slot_modes.iter().zip(&slot_snrs) {
        let code = &codes[mode];
        let channel = AwgnChannel::from_ebn0_db([2.0, 4.0, 6.0][snr], code.rate());
        sources[mode].fill_block(&channel, 1, &mut block);
        let mut llrs = block.llrs.clone();
        quantizer.normalize_in_place(&mut llrs);
        pool.push(PoolFrame {
            mode,
            codes: llrs
                .iter()
                .map(|&l| i8::try_from(quantizer.quantize_to_code(l)).expect("8-bit codes"))
                .collect(),
            info: block.info(0).to_vec(),
            reference: 0,
            reference_ok: false,
            iterations: 0,
            check_node_updates: 0,
        });
    }
    let first_of_mode = (0..modes.len())
        .map(|m| pool.iter().position(|f| f.mode == m).unwrap_or(0))
        .collect();
    let compiled = codes.iter().map(|c| c.compile()).collect();
    Traffic {
        modes,
        compiled,
        pool,
        first_of_mode,
    }
}

/// Decodes the whole pool with one sequential `decode_batch` per mode (the
/// same ingest normalization the service applies) and stores each frame's
/// reference fingerprint. Returns the reference cascade's escalations.
fn reference_decode(traffic: &mut Traffic) -> u64 {
    let decoder = CascadePolicy::default().decoder();
    let quantizer = LlrQuantizer::default();
    for (m, compiled) in traffic.compiled.iter().enumerate() {
        let members: Vec<usize> = (0..traffic.pool.len())
            .filter(|&i| traffic.pool[i].mode == m)
            .collect();
        if members.is_empty() {
            continue;
        }
        let (n, k) = (compiled.n(), compiled.info_bits());
        for chunk in members.chunks(256) {
            let mut llrs = Vec::with_capacity(chunk.len() * n);
            for &i in chunk {
                let mut frame = traffic.pool[i].llrs();
                quantizer.normalize_in_place(&mut frame);
                llrs.extend_from_slice(&frame);
            }
            let mut outs = vec![DecodeOutput::empty(); chunk.len()];
            decoder
                .decode_batch_into_threads(
                    compiled,
                    LlrBatch::new(&llrs, n).expect("shape"),
                    &mut outs,
                    1,
                )
                .expect("reference decodes");
            for (&i, out) in chunk.iter().zip(&outs) {
                let frame = &mut traffic.pool[i];
                frame.reference = fingerprint(out);
                frame.reference_ok = out.info_bits(k) == frame.info.as_slice();
                frame.iterations = out.iterations;
                frame.check_node_updates = out.stats.check_node_updates;
            }
        }
    }
    decoder.stats().stage_frames[1]
}

/// One complete set-up: build and compile all modes inside registration,
/// build the service, push one warm-up frame through every shard.
fn set_up(ctx: &Ctx, traffic: &Traffic) -> (DecodeService<ldpc_core::CascadeDecoder>, f64) {
    let workers = host::nproc().saturating_sub(1).max(1);
    let mut builder = DecodeService::builder(CascadePolicy::default())
        .dispatch_workers(workers)
        .queue_capacity(512)
        // 60 is a multiple of every mode's group width (3 to 6), so no shard
        // snaps it down.
        .max_batch(60)
        .quantize_ingest(LlrQuantizer::default());
    let t = Instant::now();
    {
        let _span = ctx.tracer.span("codes.build_compile", None);
        for &id in &traffic.modes {
            builder = builder
                .register_with_policy(id, ShardPolicy::with_slo(SLO).max_hold(MAX_HOLD))
                .expect("every mode registers");
        }
    }
    let build_compile = ms(t.elapsed());
    let service = {
        let _span = ctx.tracer.span("serve.build", None);
        builder.build().expect("service builds")
    };
    let handles: Vec<FrameHandle> = traffic
        .first_of_mode
        .iter()
        .map(|&i| {
            let frame = &traffic.pool[i];
            service
                .submit(
                    traffic.modes[frame.mode],
                    frame.llrs(),
                    SubmitOptions::new(),
                )
                .expect("warm-up frame accepted")
        })
        .collect();
    for handle in handles {
        let _ = handle.wait();
    }
    (service, build_compile)
}

/// What one open-loop stream observed.
#[derive(Default)]
struct Stream {
    attempted: u64,
    decoded: u64,
    block_errors: u64,
    misses: u64,
    refused: u64,
    mismatches: u64,
    /// Completions: delivered bits and due time to observed completion;
    /// misses have infinite latency.
    series: Option<Series>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    /// First due time to the last observed completion.
    wall: Duration,
    /// First to last due time.
    offered: Duration,
}

impl Stream {
    /// An empty record with room for `frames` frames, resident already.
    fn with_capacity(frames: usize) -> Self {
        Stream {
            series: Some(Series::with_capacity(Duration::from_millis(500), frames)),
            submit_us: touched(frames, 1.0),
            late_ms: touched(frames, 1.0),
            ..Stream::default()
        }
    }
}

struct InFlight {
    index: u64,
    pool: usize,
    due: Instant,
    handle: FrameHandle,
}

/// Frames a stream of `rate` frames per second offers in `duration`.
fn stream_frames(rate: f64, duration: Duration) -> u64 {
    (rate * duration.as_secs_f64()).round() as u64
}

/// Offers `rate` frames per second for `duration`, fixed-interval, with
/// non-blocking submission from this (the generator) thread, then drains,
/// recording into the fresh record `s`. Frame `i` of the stream is pool
/// frame `(first + i) % pool.len()`.
#[allow(clippy::too_many_arguments)]
fn stream(
    ctx: &Ctx,
    service: &DecodeService<ldpc_core::CascadeDecoder>,
    traffic: &Traffic,
    first: u64,
    rate: f64,
    duration: Duration,
    verify: bool,
    mut s: Stream,
) -> Stream {
    let total = stream_frames(rate, duration);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let options = SubmitOptions::new().non_blocking();
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut last_scan = Instant::now();
    let start = Instant::now();
    let mut series = s.series.take().expect("a fresh record has a series");
    // Service CPU: every thread but this one, the generator.
    series.exclude_cpu(host::current_tid());
    series.start(start);
    let mut next = 0u64;
    let collect =
        |in_flight: &mut Vec<InFlight>, s: &mut Stream, series: &mut Series, now: Instant| {
            let mut i = 0;
            while i < in_flight.len() {
                if !in_flight[i].handle.is_complete() {
                    i += 1;
                    continue;
                }
                let done = in_flight.swap_remove(i);
                ctx.tracer
                    .record_async("serve.frame", done.index, done.due, now);
                let frame = &traffic.pool[done.pool];
                match done.handle.wait() {
                    DecodeOutcome::Decoded(out) => {
                        s.decoded += 1;
                        let k = traffic.compiled[frame.mode].info_bits();
                        let mut bits = 0;
                        if out.info_bits(k) == frame.info.as_slice() {
                            bits = k as u64;
                        } else {
                            s.block_errors += 1;
                        }
                        series.record(now, 1, bits, ms(now - done.due));
                        if verify && fingerprint(&out) != frame.reference {
                            s.mismatches += 1;
                        }
                    }
                    _ => {
                        s.misses += 1;
                        series.record(now, 1, 0, f64::INFINITY);
                    }
                }
            }
        };
    while next < total {
        let now = Instant::now();
        let mut due = start + interval.mul_f64(next as f64);
        while due <= now && next < total {
            let pool = ((first + next) % traffic.pool.len() as u64) as usize;
            let frame = &traffic.pool[pool];
            let llrs = frame.llrs();
            let t = Instant::now();
            s.late_ms.push(ms(t - due));
            let submitted = {
                let _span = ctx.tracer.span("serve.submit", Some(first + next));
                service.submit(traffic.modes[frame.mode], llrs, options)
            };
            s.submit_us.push(us(t.elapsed()));
            s.attempted += 1;
            ctx.tracer.tick(1);
            match submitted {
                Ok(handle) => in_flight.push(InFlight {
                    index: next,
                    pool,
                    due,
                    handle,
                }),
                Err(SubmitError::QueueFull { .. }) => {
                    s.refused += 1;
                    s.misses += 1;
                    series.record(t, 1, 0, f64::INFINITY);
                }
                Err(e) => panic!("submission rejected: {e}"),
            }
            next += 1;
            due = start + interval.mul_f64(next as f64);
        }
        // Completion is observed when the generator looks; with many frames
        // in flight it looks at most once a millisecond so the scan does not
        // compete with the service for the CPU.
        let now = Instant::now();
        if in_flight.len() <= 64 || now - last_scan >= Duration::from_millis(1) {
            collect(&mut in_flight, &mut s, &mut series, now);
            last_scan = now;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
    while !in_flight.is_empty() {
        std::thread::sleep(Duration::from_micros(200));
        collect(&mut in_flight, &mut s, &mut series, Instant::now());
    }
    s.wall = start.elapsed();
    series.finish(Instant::now());
    s.offered = interval.mul_f64(total as f64);
    s.series = Some(series);
    s
}

fn stats_delta(before: &[ShardStats], after: &[ShardStats]) -> (u64, u64, u64, u64) {
    let sum = |v: &[ShardStats], f: fn(&ShardStats) -> u64| v.iter().map(f).sum::<u64>();
    (
        sum(after, |s| s.decoded) - sum(before, |s| s.decoded),
        sum(after, |s| s.batches) - sum(before, |s| s.batches),
        sum(after, |s| s.shed) - sum(before, |s| s.shed),
        sum(after, |s| s.expired) - sum(before, |s| s.expired),
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let pool_frames = if ctx.smoke { 512 } else { 24576 };
    let mut traffic = generate(ctx.seed, pool_frames);
    // 512 frames put at least one frame on every mode.
    let warm_up = generate(crate::WARM_UP_SEED, 512);
    if traffic.modes.len() != 88 {
        o.problem(format!(
            "expected 88 WiMAX + WiFi modes, found {}",
            traffic.modes.len()
        ));
    }
    let escalated = reference_decode(&mut traffic);
    let frames = traffic.pool.len() as f64;
    let ref_errors = traffic.pool.iter().filter(|f| !f.reference_ok).count();
    let ref_iters: usize = traffic.pool.iter().map(|f| f.iterations).sum();
    let ref_cnu: usize = traffic.pool.iter().map(|f| f.check_node_updates).sum();
    o.exact = vec![
        ("reference_block_errors", ref_errors.to_string()),
        ("iterations", ref_iters.to_string()),
        ("check_node_updates", ref_cnu.to_string()),
        ("escalated", escalated.to_string()),
        ("frames", traffic.pool.len().to_string()),
    ];
    o.set("core.iterations_per_frame", ref_iters as f64 / frames);
    o.set("core.check_node_updates_per_frame", ref_cnu as f64 / frames);
    o.set("core.escalation_rate", escalated as f64 / frames);

    let (rate, fixed_s) = if ctx.smoke {
        (500.0, ctx.seconds.min(1.0))
    } else {
        (FIXED_RATE, ctx.seconds)
    };
    let record =
        Stream::with_capacity(stream_frames(rate, Duration::from_secs_f64(fixed_s)) as usize);
    o.set_input_baseline();
    let service = o.set_up_cycles(
        ctx,
        if ctx.smoke { 2 } else { 21 },
        || set_up(ctx, &warm_up),
        |previous| drop(previous.shutdown()),
    );

    let before = service.stats();
    if ctx.trace {
        ctx.tracer.start_alternating();
    }
    // The generator must not pause, so the host's speed is sampled on a
    // thread of its own.
    let mut fixed = o.probe.sample_during(offline::PROBE_INTERVAL, || {
        stream(
            ctx,
            &service,
            &traffic,
            0,
            rate,
            Duration::from_secs_f64(fixed_s),
            true,
            record,
        )
    });
    ctx.tracer.stop_alternating();
    o.set_peak_rss();
    let after = service.stats();
    let (decoded, batches, shed, expired) = stats_delta(&before, &after);

    // Bit-identity: every delivered frame against the sequential reference.
    if fixed.mismatches > 0 {
        o.problem(format!(
            "{} served frames differ from the sequential decode_batch reference",
            fixed.mismatches
        ));
    }
    if decoded != fixed.decoded {
        o.problem(format!(
            "service counted {decoded} decoded frames, the generator observed {}",
            fixed.decoded
        ));
    }

    o.attempted = fixed.attempted;
    o.failed = fixed.misses;
    let series = fixed.series.as_mut().expect("stream records a series");
    series.add_passes(o.probe.passes());
    o.set_timed(series, fixed.wall, false);
    o.set(
        "block_error_rate",
        fixed.block_errors as f64 / fixed.decoded.max(1) as f64,
    );
    o.set("harq_tx_per_block", 1.0);
    o.set("serve.submit_us_p50", quantile(&mut fixed.submit_us, 0.5));
    o.set("serve.submit_us_p99", quantile(&mut fixed.submit_us, 0.99));
    o.set(
        "serve.frames_per_batch",
        decoded as f64 / batches.max(1) as f64,
    );
    o.set("serve.shed", shed as f64);
    o.set("serve.expired", expired as f64);
    o.set("serve.refused", fixed.refused as f64);
    o.set(
        "serve.failed_ratio",
        fixed.misses as f64 / fixed.attempted.max(1) as f64,
    );
    o.set("gen.late_p99_ms", quantile(&mut fixed.late_ms, 0.99));
    let weighted: f64 = after
        .iter()
        .map(|s| s.latency.p50().as_secs_f64() * 1e3 * s.latency.count as f64)
        .sum();
    let samples: u64 = after.iter().map(|s| s.latency.count).sum();
    o.set("serve.queue_to_done_ms", weighted / samples.max(1) as f64);
    o.set("arch.model_info_mbps", model_mbps(&traffic));

    if ctx.trace {
        let decoder = CascadePolicy::default().decoder();
        // The F=1 path on the smallest hot mode, where serving batches are
        // smallest.
        let small = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        let idx = traffic
            .modes
            .iter()
            .position(|&x| x == small)
            .expect("registered");
        let compiled = &traffic.compiled[idx];
        let n = compiled.n();
        let llrs: Vec<f64> = traffic
            .pool
            .iter()
            .filter(|f| f.mode == idx)
            .take(64)
            .flat_map(PoolFrame::llrs)
            .collect();
        ctx.tracer.set_enabled(true);
        o.set(
            "core.single_frame_us",
            offline::single_frame_us(ctx, compiled, &decoder, &llrs, n, 64),
        );
        ctx.tracer.set_enabled(false);
        // A per-layer figure, so only the traced run searches.
        o.set(
            "serve.max_rate_fps",
            search_max_rate(ctx, &service, &traffic, &fixed),
        );
    }
    service.shutdown();
    o
}

/// Whether a stream was sustained: every frame decoded, p99 within the SLO,
/// and no growing backlog — the last frame completed within 5% of the
/// offered span plus 100 ms, which a host stall of that length (several a
/// minute on the reference host) may take without failing the trial.
fn sustained(s: &Stream) -> bool {
    s.misses == 0
        && p99(s) <= ms(SLO)
        && s.wall <= s.offered.mul_f64(1.05) + Duration::from_millis(100)
}

/// Whole-stream p99 latency.
fn p99(s: &Stream) -> f64 {
    let series = s.series.as_ref().expect("stream records a series");
    quantile(&mut series.latencies(), 0.99)
}

/// Geometric bisection for the highest offered rate that is sustained.
fn search_max_rate(
    ctx: &Ctx,
    service: &DecodeService<ldpc_core::CascadeDecoder>,
    traffic: &Traffic,
    fixed: &Stream,
) -> f64 {
    let (mut lo, mut hi) = if sustained(fixed) {
        (FIXED_RATE, FIXED_RATE * SEARCH_SPAN)
    } else {
        (FIXED_RATE / SEARCH_SPAN, FIXED_RATE)
    };
    let (steps, trial) = if ctx.smoke {
        (2, Duration::from_millis(200))
    } else {
        (
            SEARCH_STEPS,
            Duration::from_secs_f64((ctx.seconds * 0.075).max(0.3)),
        )
    };
    let mut first = fixed.attempted;
    for _ in 0..steps {
        let mid = (lo * hi).sqrt();
        // A steal burst can sink one trial at a sustainable rate; a rate
        // counts as not sustained only when a second attempt fails too.
        let trial_stream = |first| {
            let record = Stream::with_capacity(stream_frames(mid, trial) as usize);
            stream(ctx, service, traffic, first, mid, trial, false, record)
        };
        let mut s = trial_stream(first);
        first += s.attempted;
        if !sustained(&s) {
            s = trial_stream(first);
            first += s.attempted;
        }
        let ok = sustained(&s);
        println!(
            "ldpcbench: rate trial {mid:.0} fps: {} frames, {} missed, p99 {:.2} ms, \
             done {:.3} s after {:.3} s offered, generator late p99 {:.2} ms -> {}",
            s.attempted,
            s.misses,
            p99(&s),
            s.wall.as_secs_f64(),
            s.offered.as_secs_f64(),
            quantile(&mut s.late_ms.clone(), 0.99),
            if ok { "sustained" } else { "not sustained" }
        );
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The paper model's information throughput, weighted over the pool's
/// modes at each mode's mean reference iteration count.
fn model_mbps(traffic: &Traffic) -> f64 {
    let mut total = 0.0;
    for (m, id) in traffic.modes.iter().enumerate() {
        let members: Vec<&PoolFrame> = traffic.pool.iter().filter(|f| f.mode == m).collect();
        if members.is_empty() {
            continue;
        }
        let iters =
            members.iter().map(|f| f.iterations).sum::<usize>() as f64 / members.len() as f64;
        let code = id.build().expect("supported");
        total +=
            offline::arch_model_mbps(&code, iters.ceil().max(1.0) as usize) * members.len() as f64;
    }
    total / traffic.pool.len() as f64
}
