//! End-to-end and per-layer benchmark of the multi-mode LDPC decoder stack.
//!
//! ```text
//! ldpcbench --workload offline-waterfall|serve-allmodes|harq-lowsnr
//!           --seed N --seconds N --trace 0|1 [--smoke]
//! ```
//!
//! Every input is generated from `--seed` before any clock starts. The run
//! then sets up the system several times (build and compile the modes,
//! construct the decoder or service, warm it up), measures the workload for
//! `--seconds`, checks every output, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from an in-memory span trace and direct layer probes)
//! with `--trace 1`. `--smoke` shrinks every input for a quick functional
//! run. A fuller record of each run (provenance, noise flags, exact counts)
//! goes to `.bench_out/` at the repository root; the exact counts of an
//! earlier run of the same build with the same seed are compared and any
//! difference fails the run.

mod harq;
mod host;
mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("info_mbps", "Mbps"),
    ("cpu_ns_per_bit", "ns/bit"),
    ("p50_ms", "ms"),
    ("block_error_rate", "ratio"),
    ("harq_tx_per_block", "tx/block"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Must match `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.cold_ms", "ms"),
    ("setup.cpu_ms", "ms"),
    ("setup.wall_ms", "ms"),
    ("codes.build_compile_ms", "ms"),
    ("core.decode_batch_ms", "ms"),
    ("core.stage1_ms", "ms"),
    ("core.stage2_ms", "ms"),
    ("core.pool_speedup", "x"),
    ("core.single_frame_us", "us"),
    ("core.iterations_per_frame", "count"),
    ("core.check_node_updates_per_frame", "count"),
    ("core.escalation_rate", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.frames_per_batch", "count"),
    ("serve.queue_to_done_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.refused", "count"),
    ("serve.max_rate_fps", "fps"),
    ("serve.failed_ratio", "ratio"),
    ("serve.harq.submit_us", "us"),
    ("serve.harq.combines", "count"),
    ("serve.harq.peak_occupancy_bytes", "bytes"),
    ("arch.model_info_mbps", "Mbps"),
    ("gen.late_p99_ms", "ms"),
    ("host.steal_ms", "ms"),
    ("host.calibration_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("host.p99_unfiltered_ms", "ms"),
    ("trace.codes.self_ms", "ms"),
    ("trace.core.self_ms", "ms"),
    ("trace.serve.self_ms", "ms"),
    ("trace.serve.harq.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Seed of the warm-up inputs. Set-up decodes the same frames whatever
/// `--seed` says, so set-up time does not depend on the measured inputs.
pub const WARM_UP_SEED: u64 = 0x5EED_0F0A_370B;

/// Workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["offline-waterfall", "serve-allmodes", "harq-lowsnr"];

/// What a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub tracer: Tracer,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (frames, transmissions).
    pub attempted: u64,
    /// Operations refused, shed, expired, failed, abandoned or poisoned.
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
    /// Counts that must repeat bit-for-bit for a given seed.
    pub exact: Vec<(&'static str, String)>,
    /// The host-speed probe of set-up and the timed phase, made with the
    /// outcome so that its memory is resident before the input baseline.
    pub probe: host::SpeedProbe,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Records the resident memory once every input and every record the
    /// timed phase fills exist, before set-up.
    pub fn set_input_baseline(&mut self) {
        self.set("rss.inputs_mib", host::rss_mib());
        self.set("rss.peak_before_setup_mib", host::peak_rss_mib());
    }

    /// Sets `peak_rss_mib`, the peak resident memory above the input
    /// baseline: the program's own memory, not the benchmark's inputs.
    /// Called when the timed phase ends, before the run's own checks and
    /// statistics allocate.
    pub fn set_peak_rss(&mut self) {
        let peak = host::peak_rss_mib();
        self.set("rss.peak_mib", peak);
        match self.values.get("rss.inputs_mib") {
            Some(&inputs) => self.set("peak_rss_mib", peak - inputs),
            None => self.problem("workload recorded no input memory baseline"),
        }
    }

    /// Runs `cycles` complete set-ups, each after tearing down the previous
    /// one, and keeps the last. `set_up` returns what it built and its
    /// build-and-compile milliseconds.
    ///
    /// `setup_s` is the CPU time all threads spend in one set-up, stated at
    /// the reference host's speed. CPU time leaves out steal, but co-tenant
    /// load on shared cores and caches also makes the host run the same code
    /// up to 1.9 times slower in some phases than in others. So after each
    /// set-up one thread per CPU times a fixed benchmark-local workload
    /// ([`host::SpeedProbe`]), twice, and `setup_s` is the median set-up CPU
    /// time over the median calibration pass, times the calibration pass's
    /// time on the reference host. The raw CPU median, the wall-clock median
    /// and the first (cold) cycle are recorded beside it.
    pub fn set_up_cycles<T>(
        &mut self,
        ctx: &Ctx,
        cycles: usize,
        mut set_up: impl FnMut() -> (T, f64),
        mut tear_down: impl FnMut(T),
    ) -> T {
        let (mut cpu_ms, mut wall_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut kept = None;
        let first_pass = self.probe.passes().len();
        ctx.tracer.set_enabled(ctx.trace);
        for _ in 0..cycles.max(1) {
            if let Some(previous) = kept.take() {
                tear_down(previous);
            }
            let cpu_before = host::thread_cpu_ns();
            let t = Instant::now();
            let (built, build_compile_ms) = set_up();
            wall_ms.push(stats::ms(t.elapsed()));
            let cpu = host::cpu_ns_between(&cpu_before, &host::thread_cpu_ns(), &[]);
            cpu_ms.push(cpu as f64 / 1e6);
            build_ms.push(build_compile_ms);
            // Every CPU the set-up ran on is sampled.
            self.probe.sample();
            self.probe.sample();
            kept = Some(built);
        }
        ctx.tracer.set_enabled(false);
        let cpu = stats::median(&mut cpu_ms);
        let mut calibration_ms: Vec<f64> = self.probe.passes()[first_pass..]
            .iter()
            .map(|&(_, ns)| ns as f64 / 1e6)
            .collect();
        let calibration = stats::median(&mut calibration_ms);
        self.set(
            "setup_s",
            cpu / calibration * host::CALIBRATION_REFERENCE_NS as f64 / 1e9,
        );
        self.set("setup.cpu_ms", cpu);
        self.set("host.calibration_ms", calibration);
        self.set("setup.cold_ms", wall_ms[0]);
        self.set("setup.wall_ms", stats::median(&mut wall_ms));
        self.set("codes.build_compile_ms", stats::median(&mut build_ms));
        kept.expect("at least one set-up cycle")
    }

    /// Sets the timed phase's metrics: `cpu_ns_per_bit` at the reference
    /// host's speed, the window-quartile figures as `info_mbps`, `p50_ms`
    /// and `latency.p99_ms`, the whole-phase figures beside them.
    pub fn set_timed(&mut self, series: &stats::Series, wall: Duration, closed_loop: bool) {
        let quiet = series.quiet();
        let (ops, bits) = series.totals();
        let mut latency = series.latencies();
        self.set("cpu_ns_per_bit", quiet.cpu_ns_per_bit);
        self.set("raw.cpu_ns_per_bit", quiet.raw_cpu_ns_per_bit);
        self.set("host.speed", quiet.speed);
        self.set("segments", quiet.segments as f64);
        // A closed loop's throughput and latency are bounded by the CPU the
        // host grants it and by how fast that CPU runs, so they are stated
        // per granted second at the reference host's speed. An open loop's
        // delivered rate is the offered rate, and its latency is mostly the
        // coalescing hold, so both are taken as measured.
        if closed_loop {
            self.set("info_mbps", quiet.reference_info_mbps);
            self.set("p50_ms", quiet.reference_p50_ms);
            self.set("granted.info_mbps", quiet.granted_info_mbps);
            self.set("granted.ops_per_s", quiet.granted_ops_per_s);
        } else {
            self.set("info_mbps", quiet.info_mbps);
            self.set("p50_ms", quiet.p50_ms);
        }
        self.set("window.info_mbps", quiet.info_mbps);
        self.set("window.ops_per_s", quiet.ops_per_s);
        self.set("window.p50_ms", quiet.p50_ms);
        self.set("latency.p99_ms", quiet.p99_ms);
        self.set(
            "unfiltered.info_mbps",
            bits as f64 / wall.as_secs_f64() / 1e6,
        );
        self.set("unfiltered.ops_per_s", ops as f64 / wall.as_secs_f64());
        self.set("unfiltered.p50_ms", stats::quantile(&mut latency, 0.5));
        self.set(
            "host.p99_unfiltered_ms",
            stats::quantile(&mut latency, 0.99),
        );
        self.set("unfiltered.windows", quiet.windows as f64);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

/// `.bench_out/` beside the benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(
            || PathBuf::from(".bench_out"),
            |root| root.join(".bench_out"),
        )
}

/// A JSON number; non-finite values (a latency quantile that landed on a
/// missed frame) become a large finite sentinel so the line stays valid.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e9".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ldpcbench: {e}");
            eprintln!(
                "usage: ldpcbench --workload {} --seed N --seconds N --trace 0|1 [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        smoke: args.smoke,
        tracer: Tracer::new(),
    };
    let started = Instant::now();
    let steal_before = host::steal_ms();
    let mut outcome = match args.workload.as_str() {
        "offline-waterfall" => offline::run(&ctx),
        "serve-allmodes" => serve::run(&ctx),
        _ => harq::run(&ctx),
    };
    let wall_s = started.elapsed().as_secs_f64();
    outcome.set("host.steal_ms", host::steal_ms() - steal_before);
    if ctx.trace {
        for (layer, self_ms) in ctx.tracer.self_ms_by_layer() {
            let key = format!("trace.{layer}.self_ms");
            if let Some(&(name, _)) = PER_LAYER.iter().find(|(name, _)| *name == key) {
                outcome.set(name, self_ms);
            }
        }
        outcome.set("trace.spans", ctx.tracer.len() as f64);
        for (name, count) in ctx.tracer.counts() {
            println!("ldpcbench: spans {name:<24} {count:>10}");
        }
        if let Some(pct) = ctx.tracer.overhead_pct() {
            outcome.set("trace.overhead_pct", pct);
        }
    }

    let catalog = if ctx.trace { PER_LAYER } else { END_TO_END };
    if !ctx.trace {
        for &(name, _) in END_TO_END {
            if !outcome.values.contains_key(name) {
                outcome.problem(format!("workload did not measure {name}"));
            }
        }
    }

    // Provenance and noise flags, printed and recorded with the result.
    let steal = outcome.values["host.steal_ms"];
    let late = outcome
        .values
        .get("gen.late_p99_ms")
        .copied()
        .unwrap_or(0.0);
    let steal_share = steal / (wall_s * 1e3 * host::nproc() as f64);
    let mut noise_flags = Vec::new();
    if steal_share > 0.05 {
        noise_flags.push(format!("steal {:.1}% of CPU time", steal_share * 100.0));
    }
    if late > 5.0 {
        noise_flags.push(format!("generator late {late:.1} ms at p99"));
    }
    let mut provenance = host::provenance();
    provenance.push(("build_id", format!("{:016x}", host::build_id())));
    provenance.push(("workload", args.workload.clone()));
    provenance.push(("seed", args.seed.to_string()));
    provenance.push(("seconds", args.seconds.to_string()));
    provenance.push(("trace", u8::from(args.trace).to_string()));
    provenance.push(("smoke", args.smoke.to_string()));
    provenance.push(("wall_s", format!("{wall_s:.3}")));
    for (key, value) in &provenance {
        println!("ldpcbench: {key} = {value}");
    }
    println!(
        "ldpcbench: host.steal_ms = {steal:.1}, gen.late_p99_ms = {late:.3}, noisy = {}",
        if noise_flags.is_empty() {
            "no".to_string()
        } else {
            noise_flags.join("; ")
        }
    );
    for &(name, unit) in catalog {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("ldpcbench: {name:<36} {value:>16.6} {unit}");
    }
    for (name, value) in &outcome.exact {
        println!("ldpcbench: exact {name} = {value}");
    }

    // Exact counts repeat for a seed: compare with the record of an earlier
    // run of the same build (a different build may change the counts on
    // purpose, for example through early termination).
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let exact_text: String = outcome
        .exact
        .iter()
        .map(|(name, value)| format!("{name} = {value}\n"))
        .collect();
    let exact_path = dir.join(format!(
        "exact-{}-seed{}{}-build{:016x}.txt",
        args.workload,
        args.seed,
        if args.smoke { "-smoke" } else { "" },
        host::build_id()
    ));
    match std::fs::read_to_string(&exact_path) {
        Ok(previous) if previous != exact_text => outcome.problem(format!(
            "exact counts differ from the earlier same-seed run in {}:\n{previous}vs\n{exact_text}",
            exact_path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::write(&exact_path, &exact_text);
        }
    }

    let correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        eprintln!("ldpcbench: FAIL — {problem}");
    }
    let mut metrics = String::new();
    for (i, &(name, unit)) in catalog.iter().enumerate() {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );

    // The full record: provenance, noise flags, exact counts, every value.
    let mut record = String::from("{");
    for (key, value) in &provenance {
        let _ = write!(record, "\"{key}\": \"{value}\", ");
    }
    let _ = write!(
        record,
        "\"noisy\": {}, \"noise\": \"{}\", \"exact\": {{{}}}, \"values\": {{{}}}, \"result\": {result}}}",
        !noise_flags.is_empty(),
        noise_flags.join("; "),
        outcome
            .exact
            .iter()
            .map(|(n, v)| format!("\"{n}\": \"{v}\""))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .values
            .iter()
            .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(dir.join(format!("result-{tag}.json")), record + "\n");
    if ctx.trace {
        let _ = std::fs::write(
            dir.join(format!("trace-{tag}.jsonl")),
            ctx.tracer.to_jsonl(),
        );
    }

    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
