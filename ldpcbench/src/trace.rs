//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer's public API
//! (name, start, end, parent, frame id). Synchronous spans nest through a
//! parent stack; asynchronous spans (a frame in flight inside the service)
//! are recorded with explicit start and end and have no children. Nothing
//! is recorded while the tracer is disabled, so the untraced run pays one
//! branch per call site.
//!
//! In the traced run the workload's timed phase alternates: tracing turns on
//! and off every [`SLICE`], and the driving thread's CPU time per unit of
//! work in each state gives the tracing overhead under the same host
//! conditions, however the host's speed drifts during the run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Length of one traced or untraced slice of the alternating phase.
pub const SLICE: Duration = Duration::from_millis(100);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: Option<u64>,
    pub asynchronous: bool,
}

/// Records spans of the benchmark thread. Not `Sync`: every span is opened
/// on the thread that drives the workload.
pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    /// Start of the current alternation slice and the thread's CPU time
    /// then; `None` when not alternating.
    slice: Cell<Option<(Instant, u64)>>,
    /// Work units and thread CPU nanoseconds, untraced and traced.
    units: Cell<[u64; 2]>,
    cpu_ns: Cell<[u64; 2]>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[index].end_ns = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(false),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            slice: Cell::new(None),
            units: Cell::new([0; 2]),
            cpu_ns: Cell::new([0; 2]),
        }
    }

    /// Starts alternating, untraced first.
    pub fn start_alternating(&self) {
        self.enabled.set(false);
        self.slice
            .set(Some((Instant::now(), crate::host::own_cpu_ns())));
    }

    /// Counts `units` of work done in the current state and flips the state
    /// once the slice is over. No-op unless alternating.
    pub fn tick(&self, units: u64) {
        let Some((start, cpu)) = self.slice.get() else {
            return;
        };
        let state = usize::from(self.enabled.get());
        let mut u = self.units.get();
        u[state] += units;
        self.units.set(u);
        if start.elapsed() >= SLICE {
            self.close_slice(state, cpu);
            self.enabled.set(state == 0);
        }
    }

    fn close_slice(&self, state: usize, cpu_at_start: u64) {
        let now_cpu = crate::host::own_cpu_ns();
        let mut c = self.cpu_ns.get();
        c[state] += now_cpu.saturating_sub(cpu_at_start);
        self.cpu_ns.set(c);
        self.slice.set(Some((Instant::now(), now_cpu)));
    }

    /// Ends alternating and leaves tracing off.
    pub fn stop_alternating(&self) {
        if let Some((_, cpu)) = self.slice.get() {
            self.close_slice(usize::from(self.enabled.get()), cpu);
        }
        self.slice.set(None);
        self.enabled.set(false);
    }

    /// Extra CPU time per unit of work with tracing on, in percent of the
    /// untraced cost; `None` before both states saw work.
    pub fn overhead_pct(&self) -> Option<f64> {
        let (u, c) = (self.units.get(), self.cpu_ns.get());
        if u[0] == 0 || u[1] == 0 || c[0] == 0 {
            return None;
        }
        let per = |i: usize| c[i] as f64 / u[i] as f64;
        Some((per(1) / per(0) - 1.0) * 100.0)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    #[cfg(test)]
    fn enabled(&self) -> bool {
        self.enabled.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a synchronous span, nested under the innermost open one.
    pub fn span(&self, name: &'static str, frame: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
            asynchronous: false,
        });
        self.stack.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Records a finished asynchronous span (e.g. a frame from its due
    /// time to its observed completion).
    pub fn record_async(&self, name: &'static str, frame: u64, start: Instant, end: Instant) {
        if self.enabled.get() {
            let (start_ns, end_ns) = (self.ns_of(start), self.ns_of(end));
            self.spans.borrow_mut().push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                frame: Some(frame),
                asynchronous: true,
            });
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The layer a span belongs to: its name up to the last dot
    /// (`core.stage1` → `core`, `serve.harq.submit` → `serve.harq`).
    pub fn layer_of(name: &str) -> &str {
        name.rsplit_once('.').map_or(name, |(layer, _)| layer)
    }

    /// Self time per layer in milliseconds: each synchronous span's
    /// duration minus its children's, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            if span.asynchronous {
                continue;
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            *out.entry(Self::layer_of(span.name).to_string())
                .or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Span counts by name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for span in self.spans.borrow().iter() {
            *out.entry(span.name).or_insert(0) += 1;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"frame\": {}, \"async\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.frame.map_or("null".to_string(), |f| f.to_string()),
                s.asynchronous
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_async() {
        let t = Tracer::new();
        {
            let _off = t.span("core.decode_batch", None);
        }
        assert_eq!(t.len(), 0, "a disabled tracer records nothing");
        t.set_enabled(true);
        {
            let _outer = t.span("serve.submit", Some(1));
            let _inner = t.span("core.stage1", Some(1));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let now = Instant::now();
        t.record_async(
            "serve.frame",
            1,
            now,
            now + std::time::Duration::from_secs(1),
        );
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["core"] >= 2.0);
        assert!(
            by_layer["serve"] < 1.0,
            "the child's time is not the parent's"
        );
        assert_eq!(t.counts()["serve.frame"], 1);
        assert_eq!(Tracer::layer_of("serve.harq.submit"), "serve.harq");
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn alternation_flips_each_slice_and_ends_untraced() {
        let t = Tracer::new();
        t.start_alternating();
        assert!(!t.enabled());
        t.tick(1);
        assert!(!t.enabled(), "the slice is not over yet");
        std::thread::sleep(SLICE);
        t.tick(1);
        assert!(t.enabled(), "the second slice is traced");
        std::thread::sleep(SLICE);
        t.tick(1);
        assert!(!t.enabled());
        t.stop_alternating();
        assert!(!t.enabled());
        assert_eq!(t.units.get(), [2, 1]);
    }
}
