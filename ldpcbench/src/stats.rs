//! Small statistics and fingerprint helpers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ldpc_core::DecodeOutput;

use crate::host::{self, SpeedProbe, CALIBRATION_REFERENCE_NS};

/// Length of a CPU-accounting segment of a [`Series`].
pub const SEGMENT: Duration = Duration::from_secs(2);

/// The `q`-quantile (0..=1) of `values` by nearest rank; `values` is sorted
/// in place. `f64::INFINITY` entries (misses) sort last. Empty input gives 0.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Completions of one timed phase, for window statistics.
///
/// The host loses CPU to hypervisor steal in 5–20 ms bursts whose share
/// changes from second to second and run to run. Wall-clock figures are
/// therefore taken per window of the phase and reported at the window
/// quartile least touched by steal: the third quartile of per-window
/// throughput, the first quartile of per-window latency quantiles. A
/// slowdown the program causes in most windows still shows; the unfiltered
/// whole-phase figures are recorded beside them.
///
/// The host's steal is sampled at each window boundary, so a closed loop's
/// throughput can also be stated per second of CPU the host granted: the
/// window's rate divided by the share of the window's CPU time not stolen.
///
/// The series also snapshots the CPU time of the program's threads at the
/// first completion of every [`SEGMENT`], and holds the host-speed probe's
/// passes ([`SpeedProbe`]) timed on the same clock. Each segment's CPU time
/// per delivered bit, times the reference pass time over the segment's
/// median pass, is its CPU time per bit at the reference host's speed; the
/// median over segments is the run's. The same speed scale states a closed
/// loop's window throughput and latency at the reference host's speed.
///
/// A series made with room for every record it will hold (see
/// [`Series::with_capacity`]) does not grow the process's resident memory
/// while it records, so `peak_rss_mib` measures the program, not this
/// bookkeeping.
pub struct Series {
    start: Instant,
    window: Duration,
    /// `(seconds since start, operations, information bits, latency ms)`.
    points: Vec<(f32, u32, u32, f32)>,
    /// Cumulative host steal (ms over all CPUs) read by `steal_source` at
    /// the first completion of each window.
    steal_ms: Vec<f64>,
    steal_source: fn() -> f64,
    /// `(seconds since start, CPU snapshot, information bits so far)` at the
    /// start, the first completion of each segment, and the end.
    cpu_marks: Vec<(f64, HashMap<u64, u64>, u64)>,
    /// Threads whose CPU time is not the program's (a load generator).
    cpu_exclude: Vec<u64>,
    bits: u64,
    /// `(seconds since start, calibration pass CPU ns)`.
    passes: Vec<(f64, u64)>,
}

/// Window-quartile and segment-median figures of a [`Series`].
pub struct Quiet {
    pub info_mbps: f64,
    pub ops_per_s: f64,
    /// As `info_mbps` and `ops_per_s`, per second of CPU not stolen.
    pub granted_info_mbps: f64,
    pub granted_ops_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub windows: usize,
    /// `granted_info_mbps` and `p50_ms` with each window stated at the
    /// reference host's speed.
    pub reference_info_mbps: f64,
    pub reference_p50_ms: f64,
    /// Median over segments of CPU ns per delivered bit at the reference
    /// host's speed.
    pub cpu_ns_per_bit: f64,
    /// CPU ns per delivered bit over the whole phase, as measured.
    pub raw_cpu_ns_per_bit: f64,
    /// Median host speed over the reference host's (above 1: faster).
    pub speed: f64,
    pub segments: usize,
}

impl Series {
    /// A series with room for `capacity` records, resident already; its
    /// clock starts with [`Series::start`].
    pub fn with_capacity(window: Duration, capacity: usize) -> Self {
        Series {
            start: Instant::now(),
            window,
            points: touched(capacity, (1.0, 1, 1, 1.0)),
            steal_ms: Vec::new(),
            steal_source: host::steal_ms,
            cpu_marks: Vec::with_capacity(1024),
            cpu_exclude: Vec::new(),
            bits: 0,
            passes: touched(1 << 14, (1.0, 1)),
        }
    }

    /// Leaves thread `tid` (a load generator) out of the CPU time.
    pub fn exclude_cpu(&mut self, tid: Option<u64>) {
        self.cpu_exclude.extend(tid);
    }

    #[cfg(test)]
    fn with_steal_source(start: Instant, window: Duration, steal_source: fn() -> f64) -> Self {
        let mut series = Self::with_capacity(window, 0);
        series.steal_source = steal_source;
        series.start(start);
        series
    }

    /// Times the records from `start`.
    pub fn start(&mut self, start: Instant) {
        self.start = start;
        self.points.clear();
        self.steal_ms = vec![(self.steal_source)()];
        self.passes.clear();
        self.bits = 0;
        self.cpu_marks = vec![(0.0, host::thread_cpu_ns(), 0)];
    }

    /// Samples the host's speed with `probe` now, with the clock stopped:
    /// the pause counts toward no window or segment, and the probe's own
    /// threads toward no CPU time.
    pub fn probe(&mut self, probe: &mut SpeedProbe) {
        let paused = Instant::now();
        let t = paused.saturating_duration_since(self.start).as_secs_f64();
        let before = probe.passes().len();
        probe.sample();
        self.passes
            .extend(probe.passes()[before..].iter().map(|&(_, ns)| (t, ns)));
        self.start += paused.elapsed();
    }

    /// Adds the passes of a probe that sampled on its own thread while the
    /// series recorded (and never paused it).
    pub fn add_passes(&mut self, passes: &[(Instant, u64)]) {
        let start = self.start;
        self.passes.extend(
            passes
                .iter()
                .filter(|&&(at, _)| at >= start)
                .map(|&(at, ns)| ((at - start).as_secs_f64(), ns)),
        );
    }

    /// Ends the phase at `at`: the last CPU snapshot.
    pub fn finish(&mut self, at: Instant) {
        let t = at.saturating_duration_since(self.start).as_secs_f64();
        self.cpu_marks.push((t, host::thread_cpu_ns(), self.bits));
    }

    /// Records `ops` operations completing at `at` with `bits` delivered
    /// information bits; a latency of `NAN` records no latency sample.
    pub fn record(&mut self, at: Instant, ops: u64, bits: u64, latency_ms: f64) {
        let t = at.saturating_duration_since(self.start).as_secs_f64();
        self.points.push((
            t as f32,
            u32::try_from(ops).expect("ops per record fit 32 bits"),
            u32::try_from(bits).expect("bits per record fit 32 bits"),
            latency_ms as f32,
        ));
        while t >= self.steal_ms.len() as f64 * self.window.as_secs_f64() {
            self.steal_ms.push((self.steal_source)());
        }
        self.bits += bits;
        if t >= self.cpu_marks.len() as f64 * SEGMENT.as_secs_f64() {
            self.cpu_marks.push((t, host::thread_cpu_ns(), self.bits));
        }
    }

    /// CPU nanoseconds of the program's threads and delivered bits between
    /// CPU marks `a` and `b`.
    fn cpu_between(&self, a: usize, b: usize) -> (u64, u64) {
        let (_, before, bits_a) = &self.cpu_marks[a];
        let (_, after, bits_b) = &self.cpu_marks[b];
        (
            host::cpu_ns_between(before, after, &self.cpu_exclude),
            bits_b - bits_a,
        )
    }

    /// Host speed over the reference host's from the median pass in
    /// `[t0, t1)` seconds; `None` without a pass there.
    fn speed_in(&self, t0: f64, t1: f64) -> Option<f64> {
        let mut ns: Vec<f64> = self
            .passes
            .iter()
            .filter(|&&(t, _)| t >= t0 && t < t1)
            .map(|&(_, ns)| ns as f64)
            .collect();
        (!ns.is_empty()).then(|| CALIBRATION_REFERENCE_NS as f64 / median(&mut ns))
    }

    /// Per-segment `(start s, end s, speed)` and the CPU ns per bit of each
    /// at the reference host's speed. A last segment shorter than half a
    /// segment is merged into the one before it.
    fn segments(&self) -> (Vec<(f64, f64, f64)>, Vec<f64>) {
        let overall = self.speed_in(0.0, f64::INFINITY).unwrap_or(1.0);
        let mut ends: Vec<usize> = (1..self.cpu_marks.len()).collect();
        if ends.len() >= 2 {
            let last = self.cpu_marks[ends[ends.len() - 1]].0;
            let before = self.cpu_marks[ends[ends.len() - 2]].0;
            if last - before < SEGMENT.as_secs_f64() / 2.0 {
                ends.remove(ends.len() - 2);
            }
        }
        let mut spans = Vec::new();
        let mut per_bit = Vec::new();
        let mut from = 0;
        for to in ends {
            let (t0, t1) = (self.cpu_marks[from].0, self.cpu_marks[to].0);
            let speed = self.speed_in(t0, t1).unwrap_or(overall);
            let (cpu, bits) = self.cpu_between(from, to);
            spans.push((t0, t1, speed));
            if bits > 0 {
                per_bit.push(cpu as f64 * speed / bits as f64);
            }
            from = to;
        }
        (spans, per_bit)
    }

    /// Share of window `i`'s CPU time (all CPUs) the host stole, in
    /// `[0, 0.9]`; 0 when the window was not sampled at both ends.
    fn steal_share(&self, i: usize, window_ms: f64) -> f64 {
        match (self.steal_ms.get(i), self.steal_ms.get(i + 1)) {
            (Some(a), Some(b)) => {
                ((b - a) / (window_ms * crate::host::nproc() as f64)).clamp(0.0, 0.9)
            }
            _ => 0.0,
        }
    }

    /// Total operations and information bits.
    pub fn totals(&self) -> (u64, u64) {
        self.points
            .iter()
            .fold((0, 0), |(o, b), p| (o + u64::from(p.1), b + u64::from(p.2)))
    }

    /// Latency samples in completion order.
    pub fn latencies(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| f64::from(p.3))
            .filter(|l| !l.is_nan())
            .collect()
    }

    /// Window-quartile figures over the whole windows of the phase (a
    /// phase shorter than two windows is one window).
    pub fn quiet(&self) -> Quiet {
        let w = self.window.as_secs_f64();
        let span = self
            .points
            .iter()
            .map(|p| f64::from(p.0))
            .fold(0.0, f64::max);
        let full = ((span / w).floor() as usize).max(1);
        let w = if span < 2.0 * w { span.max(1e-9) } else { w };
        let mut ops = vec![0u64; full];
        let mut bits = vec![0u64; full];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); full];
        for &(t, o, b, l) in &self.points {
            let i = (f64::from(t) / w) as usize;
            if i < full {
                ops[i] += u64::from(o);
                bits[i] += u64::from(b);
                if !l.is_nan() {
                    lat[i].push(f64::from(l));
                }
            }
        }
        let mut mbps: Vec<f64> = bits.iter().map(|&b| b as f64 / w / 1e6).collect();
        let mut rate: Vec<f64> = ops.iter().map(|&o| o as f64 / w).collect();
        let granted: Vec<f64> = (0..full)
            .map(|i| 1.0 - self.steal_share(i, w * 1e3))
            .collect();
        let mut granted_mbps: Vec<f64> = mbps.iter().zip(&granted).map(|(m, g)| m / g).collect();
        let mut granted_rate: Vec<f64> = rate.iter().zip(&granted).map(|(r, g)| r / g).collect();
        let mut p50: Vec<f64> = lat
            .iter_mut()
            .filter(|l| !l.is_empty())
            .map(|l| quantile(l, 0.5))
            .collect();
        let mut p99: Vec<f64> = lat
            .iter_mut()
            .filter(|l| !l.is_empty())
            .map(|l| quantile(l, 0.99))
            .collect();

        // Each window at the speed of the segment holding its midpoint.
        let (spans, mut per_bit) = self.segments();
        let overall = self.speed_in(0.0, f64::INFINITY).unwrap_or(1.0);
        let speed_at = |i: usize| {
            let mid = (i as f64 + 0.5) * w;
            spans
                .iter()
                .find(|&&(t0, t1, _)| mid >= t0 && mid < t1)
                .map_or(overall, |&(_, _, speed)| speed)
        };
        let mut reference_mbps: Vec<f64> = granted_mbps
            .iter()
            .enumerate()
            .map(|(i, m)| m / speed_at(i))
            .collect();
        let mut reference_p50: Vec<f64> = lat
            .iter_mut()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, l)| quantile(l, 0.5) * speed_at(i))
            .collect();
        let last = self.cpu_marks.len() - 1;
        let (cpu, bits) = self.cpu_between(0, last);
        Quiet {
            info_mbps: quantile(&mut mbps, 0.75),
            ops_per_s: quantile(&mut rate, 0.75),
            granted_info_mbps: quantile(&mut granted_mbps, 0.75),
            granted_ops_per_s: quantile(&mut granted_rate, 0.75),
            p50_ms: quantile(&mut p50, 0.25),
            p99_ms: quantile(&mut p99, 0.25),
            windows: full,
            reference_info_mbps: quantile(&mut reference_mbps, 0.75),
            reference_p50_ms: quantile(&mut reference_p50, 0.25),
            cpu_ns_per_bit: median(&mut per_bit),
            raw_cpu_ns_per_bit: cpu as f64 / bits.max(1) as f64,
            speed: overall,
            segments: spans.len(),
        }
    }
}

/// An empty vector with room for `capacity` items whose memory is resident
/// already: filling it later does not grow the process's resident memory.
pub fn touched<T: Clone>(capacity: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity);
    v.resize(capacity, fill);
    std::hint::black_box(&mut v);
    v.clear();
    v
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// 64-bit FNV-1a over everything a decode returns: hard decisions,
/// posterior LLR bit patterns, iteration count and parity flag. Two outputs
/// with equal fingerprints are, for the purposes of this benchmark,
/// bit-identical.
pub fn fingerprint(out: &DecodeOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&out.hard_bits);
    for llr in &out.posterior_llrs {
        eat(&llr.to_bits().to_le_bytes());
    }
    eat(&(out.iterations as u64).to_le_bytes());
    eat(&[
        u8::from(out.parity_satisfied),
        u8::from(out.early_terminated),
    ]);
    h
}

/// A splitmix64 step: derives independent seeds from `(seed, a, b, c)`.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ c.wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        let mut with_miss = vec![1.0, f64::INFINITY];
        assert_eq!(quantile(&mut with_miss, 0.99), f64::INFINITY);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quiet_windows_skip_disturbed_seconds() {
        let start = Instant::now();
        let mut series = Series::with_steal_source(start, Duration::from_secs(1), || 0.0);
        // Eight one-second windows of 100 completions of 1000 bits each; in
        // two of them a burst delays two completions to 50 ms and costs
        // half the window's throughput.
        for w in 0..8u64 {
            let burst = w % 4 == 1;
            for i in 0..100u64 {
                let at = start + Duration::from_millis(w * 1000 + i * 10);
                let bits = if burst && i % 2 == 0 { 0 } else { 1000 };
                let latency = if burst && i < 2 { 50.0 } else { 1.0 };
                series.record(at, 1, bits, latency);
            }
        }
        let q = series.quiet();
        assert_eq!(q.windows, 7, "the last window is not whole");
        assert_eq!(q.p99_ms, 1.0);
        assert_eq!(q.p50_ms, 1.0);
        assert!((q.info_mbps - 0.1).abs() < 1e-9);
        assert_eq!(q.ops_per_s, 100.0);
        assert_eq!(
            q.granted_ops_per_s, 100.0,
            "no steal, nothing to grant back"
        );
    }

    #[test]
    fn granted_rate_discounts_stolen_cpu() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Every sample adds one CPU-second of steal per window of one
        // second, i.e. half of two CPUs' time.
        static STOLEN: AtomicU64 = AtomicU64::new(0);
        fn source() -> f64 {
            STOLEN.fetch_add(1000, Ordering::Relaxed) as f64
        }
        let start = Instant::now();
        let mut series = Series::with_steal_source(start, Duration::from_secs(1), source);
        for w in 0..4u64 {
            series.record(start + Duration::from_millis(w * 1000 + 500), 100, 0, 1.0);
        }
        let q = series.quiet();
        let share = 1000.0 / (1000.0 * crate::host::nproc() as f64);
        assert!((q.granted_ops_per_s - 100.0 / (1.0 - share.min(0.9))).abs() < 1e-9);
    }

    #[test]
    fn reference_speed_takes_out_the_host_phase() {
        let start = Instant::now();
        let mut series = Series::with_steal_source(start, Duration::from_secs(1), || 0.0);
        // Eight one-second windows. The host runs twice the reference speed
        // for the first four seconds (its calibration pass takes half the
        // reference time) and at the reference speed after that; the program
        // completes twice the work, each op in half the time, while fast.
        let reference = CALIBRATION_REFERENCE_NS;
        let mut passes = Vec::new();
        for w in 0..8u64 {
            let fast = w < 4;
            let ops = if fast { 200 } else { 100 };
            for i in 0..ops {
                let at = start + Duration::from_millis(w * 1000) + Duration::from_secs(1) * i / ops;
                series.record(at, 1, 1000, if fast { 0.5 } else { 1.0 });
            }
            for tenth in 0..10 {
                let at = start + Duration::from_millis(w * 1000 + tenth * 100);
                passes.push((at, if fast { reference / 2 } else { reference }));
            }
        }
        series.add_passes(&passes);
        series.finish(start + Duration::from_secs(8));
        let q = series.quiet();
        assert_eq!(q.segments, 4, "four two-second segments");
        assert!(
            (q.reference_info_mbps - 0.1).abs() < 1e-9,
            "{}",
            q.reference_info_mbps
        );
        assert!(
            (q.reference_p50_ms - 1.0).abs() < 1e-9,
            "{}",
            q.reference_p50_ms
        );
        assert!(
            (q.info_mbps - 0.2).abs() < 1e-9,
            "as measured, the fast windows"
        );
        assert_eq!(q.p50_ms, 0.5);
    }

    #[test]
    fn mix_separates_inputs() {
        assert_ne!(mix(1, 0, 0, 1), mix(1, 0, 1, 0));
        assert_eq!(mix(7, 1, 2, 3), mix(7, 1, 2, 3));
    }
}
