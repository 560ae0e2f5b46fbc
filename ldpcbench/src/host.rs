//! Host probes: per-thread CPU time, steal time, host speed, resident
//! memory, and the provenance every result records.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Name of every thread the host-speed probe runs. Their CPU time is the
/// benchmark's own, so [`thread_cpu_ns`] leaves them out.
const PROBE_THREAD: &str = "bench-probe";

/// Kernel task id of the calling thread (`/proc/thread-self` resolves to
/// `<pid>/task/<tid>`); `None` off Linux.
pub fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// On-CPU nanoseconds of every live thread of this process but the
/// host-speed probe's, keyed by task id. Each thread's CPU-time clock counts
/// only time actually spent running, so hypervisor steal is excluded.
pub fn thread_cpu_ns() -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let comm = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == PROBE_THREAD {
            continue;
        }
        if let Some(ns) = task_cpu_ns(tid) {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU nanoseconds spent between two [`thread_cpu_ns`] snapshots by every
/// thread except `exclude`. Threads born after `before` count from zero.
pub fn cpu_ns_between(
    before: &HashMap<u64, u64>,
    after: &HashMap<u64, u64>,
    exclude: &[u64],
) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// On-CPU nanoseconds of the calling thread. It allocates nothing, so the
/// probe's short-lived threads leave no heap behind.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn own_cpu_ns() -> u64 {
    /// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's CPU-time clock.
    const OWN_THREAD_CLOCK: i32 = 3;
    cpu_clock_ns(OWN_THREAD_CLOCK).unwrap_or(0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn own_cpu_ns() -> u64 {
    current_tid().and_then(task_cpu_ns).unwrap_or(0)
}

/// On-CPU nanoseconds of thread `tid` of this process, from its CPU-time
/// clock: exact to the nanosecond, also for a thread that is running now.
/// (`/proc/<pid>/task/<tid>/schedstat` carries the same count, but for a
/// running thread it lags by up to a scheduler tick, several milliseconds,
/// which is the whole of a small set-up.)
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn task_cpu_ns(tid: u64) -> Option<u64> {
    // The kernel's clock id of one thread's scheduler CPU time:
    // `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`.
    cpu_clock_ns((!i32::try_from(tid).ok()? << 3) | 4 | 2)
}

/// Reads a CPU-time clock; `None` for an invalid clock id (a thread that
/// has exited).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; an invalid clock id only
    // makes the call return -1.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn task_cpu_ns(tid: u64) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Cumulative steal time of the whole host in milliseconds (the `steal`
/// column of the `cpu` line of `/proc/stat`, in USER_HZ ticks).
pub fn steal_ms() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return 0.0;
    };
    let ticks: f64 = line
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0);
    ticks * 1e3 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time of one [`Calibration`] pass on the reference host (2 vCPU KVM
/// guest, Xeon, 2.1 GHz nominal) in a quiet phase.
pub const CALIBRATION_REFERENCE_NS: u64 = 750_000;

/// A fixed, benchmark-local workload whose CPU time measures how fast the
/// host runs code right now: sort 16 384 keys, follow a random cycle through a
/// 256-KiB table, and run a vectorizable saturating min/sign loop over
/// 32-KiB arrays (the shape of a check-node update). It runs no repository
/// code and allocates nothing per pass, so its time moves with the host
/// alone.
pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    next: Vec<u32>,
    a: Vec<i32>,
    b: Vec<i32>,
    acc: Vec<i32>,
}

impl Calibration {
    const KEYS: usize = 1 << 14;
    const TABLE: usize = 1 << 16;
    const LANES: usize = 1 << 13;
    const ROUNDS: i32 = 24;

    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys: Vec<u64> = (0..Self::KEYS).map(|_| draw()).collect();
        // Sattolo's shuffle: one cycle through every slot.
        let mut next: Vec<u32> = (0..Self::TABLE as u32).collect();
        for i in (1..Self::TABLE).rev() {
            let j = (draw() % i as u64) as usize;
            next.swap(i, j);
        }
        let mut lanes = || -> Vec<i32> {
            (0..Self::LANES)
                .map(|_| (draw() % 255) as i32 - 127)
                .collect()
        };
        Calibration {
            scratch: keys.clone(),
            keys,
            next,
            a: lanes(),
            b: lanes(),
            acc: vec![0; Self::LANES],
        }
    }

    /// On-CPU nanoseconds of one pass on the calling thread.
    pub fn cpu_ns(&mut self) -> u64 {
        let before = own_cpu_ns();
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        let mut at = self.scratch[Self::KEYS / 2] as usize % Self::TABLE;
        for _ in 0..Self::TABLE / 2 {
            at = self.next[at] as usize;
        }
        std::hint::black_box(at);
        for round in 0..Self::ROUNDS {
            for ((acc, &a), &b) in self.acc.iter_mut().zip(&self.a).zip(&self.b) {
                let magnitude = a.abs().min(b.abs());
                let sign = (a ^ b) >> 31;
                *acc = (*acc + ((magnitude ^ sign) - sign) - round).clamp(-127, 127);
            }
            std::hint::black_box(&mut self.acc);
        }
        own_cpu_ns().saturating_sub(before)
    }
}

/// Pins the calling thread to logical CPU `cpu`; best effort (a host that
/// refuses leaves the thread where the scheduler puts it).
#[cfg(target_os = "linux")]
fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu < mask.len() * 64 {
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a valid CPU set of `size_of_val(&mask)` bytes;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_cpu: usize) {}

/// Measures the host's speed while a workload runs: each [`SpeedProbe::sample`]
/// times one [`Calibration`] pass on every CPU at once.
///
/// The host's speed moves in bursts and phases: co-tenants on shared cores
/// and caches make the same decode take up to 1.9 times as much CPU time in
/// one second as in the next, on one vCPU and not the other. A calibration
/// pass on the same CPU at nearly the same time slows down with it (a probe
/// of this host read a 0.88-0.96 correlation between one-second decode CPU
/// time and the pass time beside it), so CPU time divided by the pass time
/// states the work at the reference host's speed.
pub struct SpeedProbe {
    calibrations: Vec<Calibration>,
    /// `(when, pass CPU nanoseconds)` of every pass, in order.
    passes: Vec<(Instant, u64)>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// A probe whose buffers are allocated and resident already, so that
    /// sampling does not grow the process's resident memory.
    pub fn new() -> Self {
        SpeedProbe {
            calibrations: (0..nproc()).map(|_| Calibration::new()).collect(),
            passes: crate::stats::touched(1 << 14, (Instant::now(), 0)),
        }
    }

    /// One pass per CPU, all at once, each on a thread pinned to its CPU.
    /// Each thread first runs an untimed pass that brings the pass's
    /// 600 KiB into its caches, so the timed pass does not depend on what
    /// the workload left there.
    pub fn sample(&mut self) {
        let at = Instant::now();
        let passes: Vec<u64> = std::thread::scope(|scope| {
            let runs: Vec<_> = self
                .calibrations
                .iter_mut()
                .enumerate()
                .map(|(cpu, calibration)| {
                    std::thread::Builder::new()
                        .name(PROBE_THREAD.to_string())
                        .spawn_scoped(scope, move || {
                            pin_to_cpu(cpu);
                            calibration.cpu_ns();
                            calibration.cpu_ns()
                        })
                        .expect("probe thread spawns")
                })
                .collect();
            runs.into_iter()
                .map(|r| r.join().expect("calibration pass"))
                .collect()
        });
        self.passes.extend(passes.into_iter().map(|ns| (at, ns)));
    }

    pub fn passes(&self) -> &[(Instant, u64)] {
        &self.passes
    }

    /// Runs `work` on the calling thread while a thread of the probe's own
    /// samples every `interval`; for a workload whose loop must not pause.
    pub fn sample_during<R>(&mut self, interval: Duration, work: impl FnOnce() -> R) -> R {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = std::thread::Builder::new()
                .name(PROBE_THREAD.to_string())
                .spawn_scoped(scope, || {
                    while !done.load(Ordering::Relaxed) {
                        std::thread::sleep(interval);
                        self.sample();
                    }
                })
                .expect("probe thread spawns");
            let result = work();
            done.store(true, Ordering::Relaxed);
            sampler.join().expect("probe thread");
            result
        })
    }
}

/// Identity of the running build: FNV-1a over the executable's bytes.
pub fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The git commit checked out at the repository root, read at run time so
/// that it names the code that ran; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let mut git = root.join(".git");
    if git.is_file() {
        let text = fs::read_to_string(&git).ok()?;
        git = root.join(text.trim().strip_prefix("gitdir:")?.trim());
    }
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref:").map(str::trim) else {
        return Some(head.to_string());
    };
    let loose: PathBuf = git.join(reference);
    if let Ok(hash) = fs::read_to_string(loose) {
        return Some(hash.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
}

/// Build and host provenance, as `(key, value)` pairs.
pub fn provenance() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("kernel_tier", ldpc_core::kernel_tier().to_string()),
        ("rustc", env!("LDPCBENCH_RUSTC").to_string()),
        (
            "commit",
            git_commit().unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}
