//! `offline-waterfall`: closed-loop whole passes over a fixed set of WiMAX
//! r1/2 n=2304 frames (z=96, the paper's 1-Gbps mode), AGC-quantized at
//! 1.5/2.0/2.5 dB, decoded by `CascadeDecoder::decode_batch_into_threads`
//! in batches of 64 on every available core.

use std::time::{Duration, Instant};

use ldpc_arch::{DecoderModeConfig, PipelineModel, ThroughputModel};
use ldpc_channel::{AwgnChannel, FrameBlock, FrameSource, LlrQuantizer};
use ldpc_codes::{CodeId, CodeRate, CompiledCode, QcCode, Standard};
use ldpc_core::{CascadeConfig, CascadeDecoder, DecodeOutput, Decoder, LlrBatch};

use crate::stats::{fingerprint, median, ms, quantile, touched, us, Series};
use crate::{host, Ctx, Outcome};

const BATCH: usize = 64;
const SNRS_DB: [f64; 3] = [1.5, 2.0, 2.5];
/// Leading batches re-decoded sequentially as the bit-identity reference.
const PREFIX_BATCHES: usize = 2;
/// How often the timed loop samples the host's speed.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(200);

/// The pre-generated frame set, frame-major.
struct Inputs {
    frames: usize,
    n: usize,
    k: usize,
    llrs: Vec<f64>,
    infos: Vec<u8>,
}

fn generate(seed: u64, frames: usize) -> (QcCode, Inputs) {
    let id = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304);
    let code = id.build().expect("WiMAX r1/2 2304 is supported");
    let (n, k) = (code.n(), code.info_bits());
    let quantizer = LlrQuantizer::default();
    let mut inputs = Inputs {
        frames,
        n,
        k,
        llrs: Vec::with_capacity(frames * n),
        infos: Vec::with_capacity(frames * k),
    };
    // One source per SNR point; frames interleave the points 1:1:1, so every
    // batch carries the same mix and the composition is exact.
    let mut sources: Vec<(FrameSource, AwgnChannel)> = SNRS_DB
        .iter()
        .enumerate()
        .map(|(i, &snr)| {
            let source = FrameSource::random(&code, crate::stats::mix(seed, 1, i as u64, 0))
                .expect("encodable");
            (source, AwgnChannel::from_ebn0_db(snr, code.rate()))
        })
        .collect();
    let mut block = FrameBlock::new();
    for f in 0..frames {
        let (source, channel) = &mut sources[f % SNRS_DB.len()];
        source.fill_block(channel, 1, &mut block);
        let mut llrs = block.llrs.clone();
        quantizer.normalize_in_place(&mut llrs);
        inputs.llrs.extend_from_slice(&llrs);
        inputs.infos.extend_from_slice(block.info(0));
    }
    (code, inputs)
}

/// One complete set-up: build and compile the mode, construct the cascade,
/// warm its workspaces with one threaded batch.
fn set_up(ctx: &Ctx, inputs: &Inputs, threads: usize) -> ((CompiledCode, CascadeDecoder), f64) {
    let id = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304);
    let t = Instant::now();
    let compiled = {
        let _span = ctx.tracer.span("codes.build_compile", None);
        id.build().expect("supported").compile()
    };
    let build_compile = t.elapsed();
    let decoder = CascadeDecoder::new(CascadeConfig::default()).expect("default ladder is valid");
    let mut outs = vec![DecodeOutput::empty(); BATCH];
    decoder
        .decode_batch_into_threads(
            &compiled,
            LlrBatch::new(&inputs.llrs[..BATCH * inputs.n], inputs.n).expect("shape"),
            &mut outs,
            threads,
        )
        .expect("warm-up batch decodes");
    ((compiled, decoder), ms(build_compile))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let threads = host::nproc();
    let batches = if ctx.smoke { 4 } else { 96 };
    let (code, inputs) = generate(ctx.seed, batches * BATCH);
    let (_, warm_up) = generate(crate::WARM_UP_SEED, BATCH);
    let n = inputs.n;

    // Sequential reference for the verification prefix, from a separately
    // built decoder and compiled code.
    let prefix_frames = PREFIX_BATCHES.min(batches) * BATCH;
    let ref_prints: Vec<u64> = {
        let reference = CascadeDecoder::new(CascadeConfig::default()).expect("valid");
        let mut ref_outs = vec![DecodeOutput::empty(); prefix_frames];
        reference
            .decode_batch_into_threads(
                &code.compile(),
                LlrBatch::new(&inputs.llrs[..prefix_frames * n], n).expect("shape"),
                &mut ref_outs,
                1,
            )
            .expect("reference decodes");
        ref_outs.iter().map(fingerprint).collect()
    };

    // Records of the timed phase, resident before the baseline: pass 0's
    // fingerprints and room for 1000 batches a second (about ten times the
    // rate on the reference host), at least one whole pass.
    let calls = (ctx.seconds as usize * 1000).max(batches);
    let mut pass_prints: Vec<u64> = touched(inputs.frames, 1);
    let mut call_ms: Vec<f64> = touched(calls, 1.0);
    // Batches take about 10 ms; two-second windows hold enough of them
    // for a p99 that is not just the window's slowest call.
    let mut series = Series::with_capacity(Duration::from_secs(2), calls);
    o.set_input_baseline();

    let (compiled, decoder) = o.set_up_cycles(
        ctx,
        if ctx.smoke { 2 } else { 21 },
        || set_up(ctx, &warm_up, threads),
        drop,
    );

    // The timed closed loop: whole passes over the frame set. Pass 0 fixes
    // every frame's fingerprint; every later pass must reproduce it.
    let mut outs = vec![DecodeOutput::empty(); BATCH];
    let mut decoded_frames = 0u64;
    let (mut errors0, mut iters0, mut cnu0) = (0u64, 0u64, 0u64);
    let (mut mismatches, mut prefix_mismatches) = (0u64, 0u64);
    let mut batch = 0usize;
    let duration = Duration::from_secs_f64(ctx.seconds);
    let cascade_before = decoder.stats();
    let mut cascade_pass0 = None;
    let mut probed = Instant::now();
    let start = Instant::now();
    if ctx.trace {
        ctx.tracer.start_alternating();
    }
    series.start(start);
    series.probe(&mut o.probe);
    loop {
        let elapsed = start.elapsed();
        if elapsed >= duration && pass_prints.len() == inputs.frames {
            break;
        }
        if probed.elapsed() >= PROBE_INTERVAL {
            series.probe(&mut o.probe);
            probed = Instant::now();
        }
        let first = batch * BATCH;
        let t = Instant::now();
        {
            let _span = ctx.tracer.span("core.decode_batch", Some(first as u64));
            decoder
                .decode_batch_into_threads(
                    &compiled,
                    LlrBatch::new(&inputs.llrs[first * n..(first + BATCH) * n], n).expect("shape"),
                    &mut outs,
                    threads,
                )
                .expect("batch decodes");
        }
        let dt = t.elapsed();
        call_ms.push(ms(dt));
        let mut batch_bits = 0;
        for (j, out) in outs.iter().enumerate() {
            let f = first + j;
            let info = &inputs.infos[f * inputs.k..(f + 1) * inputs.k];
            let ok = out.info_bits(inputs.k) == info;
            if ok {
                batch_bits += inputs.k as u64;
            }
            let print = fingerprint(out);
            if pass_prints.len() < inputs.frames {
                pass_prints.push(print);
                errors0 += u64::from(!ok);
                iters0 += out.iterations as u64;
                cnu0 += out.stats.check_node_updates as u64;
                if f < prefix_frames && print != ref_prints[f] {
                    prefix_mismatches += 1;
                }
            } else if pass_prints[f] != print {
                mismatches += 1;
            }
        }
        series.record(t + dt, BATCH as u64, batch_bits, ms(dt));
        ctx.tracer.tick(BATCH as u64);
        decoded_frames += BATCH as u64;
        batch += 1;
        if batch == batches {
            batch = 0;
            cascade_pass0.get_or_insert_with(|| decoder.stats());
        }
    }
    let wall = start.elapsed();
    series.finish(Instant::now());
    ctx.tracer.stop_alternating();
    o.set_peak_rss();
    if prefix_mismatches > 0 {
        o.problem(format!(
            "{prefix_mismatches} of the first {prefix_frames} frames differ from the \
             sequential decode_batch reference"
        ));
    }
    if mismatches > 0 {
        o.problem(format!(
            "{mismatches} frame decodes differ from the same frame's first pass"
        ));
    }
    let pass0 = cascade_pass0.expect("pass 0 completed");
    let stage1 = pass0.stage_frames[0] - cascade_before.stage_frames[0];
    let stage2 = pass0.stage_frames[1] - cascade_before.stage_frames[1];
    let frames = inputs.frames as f64;
    let escalation = stage2 as f64 / stage1.max(1) as f64;
    if stage1 != inputs.frames as u64 {
        o.problem(format!(
            "stage 1 saw {stage1} frames in pass 0, expected {frames}"
        ));
    }

    o.attempted = decoded_frames;
    o.set_timed(&series, wall, true);
    o.set("core.decode_batch_ms", quantile(&mut call_ms, 0.5));
    o.set("block_error_rate", errors0 as f64 / frames);
    o.set("harq_tx_per_block", 1.0);
    o.set("core.iterations_per_frame", iters0 as f64 / frames);
    o.set("core.check_node_updates_per_frame", cnu0 as f64 / frames);
    o.set("core.escalation_rate", escalation);
    o.exact = vec![
        ("block_errors", errors0.to_string()),
        ("iterations", iters0.to_string()),
        ("check_node_updates", cnu0.to_string()),
        ("escalated", stage2.to_string()),
        ("frames", inputs.frames.to_string()),
    ];
    let model = arch_model_mbps(&code, (iters0 as f64 / frames).ceil().max(1.0) as usize);
    o.set("arch.model_info_mbps", model);

    if ctx.trace {
        ctx.tracer.set_enabled(true);
        probe_layers(ctx, &mut o, &compiled, &decoder, &inputs, threads);
        ctx.tracer.set_enabled(false);
    }
    o
}

/// The paper's §III-E model for this mode at `iterations`: the cycle-level
/// pipeline schedule at the 450 MHz Radix-4 operating point.
pub fn arch_model_mbps(code: &QcCode, iterations: usize) -> f64 {
    let config = DecoderModeConfig::from_code(code);
    let cycles = PipelineModel::default().frame_cycles(&config, iterations);
    ThroughputModel::paper_operating_point().simulated_bps(&config, code.rate(), &cycles) / 1e6
}

/// Direct layer probes on the same frames: stage 1 and stage 2 alone, the
/// pool speedup and the single-frame (F=1) path.
fn probe_layers(
    ctx: &Ctx,
    o: &mut Outcome,
    compiled: &CompiledCode,
    decoder: &CascadeDecoder,
    inputs: &Inputs,
    threads: usize,
) {
    let n = inputs.n;
    let batches = (inputs.frames / BATCH).min(8);
    let mut outs = vec![DecodeOutput::empty(); BATCH];
    let (mut s1, mut s2, mut t1, mut tn) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for b in 0..batches {
        let llrs = &inputs.llrs[b * BATCH * n..(b + 1) * BATCH * n];
        let t = Instant::now();
        {
            let _span = ctx.tracer.span("core.stage1", Some((b * BATCH) as u64));
            decoder
                .stage1()
                .decode_batch_into_threads(
                    compiled,
                    LlrBatch::new(llrs, n).unwrap(),
                    &mut outs,
                    threads,
                )
                .expect("stage 1 decodes");
        }
        s1.push(ms(t.elapsed()));
        // Stage 2 sees exactly what the cascade hands it: the failures'
        // LLRs after the stage-1 quantizer round trip.
        let mut escalated: Vec<f64> = Vec::new();
        for (j, out) in outs.iter().enumerate() {
            if !out.parity_satisfied {
                escalated.extend(
                    llrs[j * n..(j + 1) * n]
                        .iter()
                        .map(|&l| decoder.handoff_llr(l)),
                );
            }
        }
        if !escalated.is_empty() {
            let mut outs2 = vec![DecodeOutput::empty(); escalated.len() / n];
            let t = Instant::now();
            let _span = ctx.tracer.span("core.stage2", Some((b * BATCH) as u64));
            decoder
                .stage2()
                .decode_batch_into_threads(
                    compiled,
                    LlrBatch::new(&escalated, n).unwrap(),
                    &mut outs2,
                    threads,
                )
                .expect("stage 2 decodes");
            s2.push(ms(t.elapsed()));
        }
        for (threads_used, times) in [(1, &mut t1), (threads, &mut tn)] {
            let t = Instant::now();
            decoder
                .decode_batch_into_threads(
                    compiled,
                    LlrBatch::new(llrs, n).unwrap(),
                    &mut outs,
                    threads_used,
                )
                .expect("batch decodes");
            times.push(ms(t.elapsed()));
        }
    }
    o.set("core.stage1_ms", median(&mut s1));
    o.set("core.stage2_ms", median(&mut s2));
    o.set(
        "core.pool_speedup",
        median(&mut t1) / median(&mut tn).max(1e-9),
    );
    o.set(
        "core.single_frame_us",
        single_frame_us(ctx, compiled, decoder, &inputs.llrs, n, BATCH),
    );
}

/// Median time of the single-frame `decode_into` path over the first
/// `frames` frames of `llrs`.
pub fn single_frame_us(
    ctx: &Ctx,
    compiled: &CompiledCode,
    decoder: &CascadeDecoder,
    llrs: &[f64],
    n: usize,
    frames: usize,
) -> f64 {
    let mut ws = decoder.workspace_for(compiled);
    let mut out = DecodeOutput::empty();
    let mut times = Vec::with_capacity(frames);
    for f in 0..frames.min(llrs.len() / n) {
        let t = Instant::now();
        let _span = ctx.tracer.span("core.single_frame", Some(f as u64));
        decoder
            .decode_into(compiled, &llrs[f * n..(f + 1) * n], &mut ws, &mut out)
            .expect("frame decodes");
        times.push(us(t.elapsed()));
    }
    median(&mut times)
}
