//! # obs — workspace-wide telemetry
//!
//! The observability layer of the Sammy reproduction: counters, t-digest
//! histograms and a bounded structured event trace, all recorded into a
//! [`Registry`]. One summary per question: a count is a counter, a sampled
//! value (a queue depth, a window, a stall in seconds) is a histogram, and
//! an event is a trace entry.
//!
//! ## Design
//!
//! Instrumentation is gated by **one switch**, this crate's `enabled`
//! feature (the root package's `obs` feature is its alias), read as the
//! constant [`ENABLED`]: the [`counter!`]/[`observe!`]/[`trace_event!`]
//! macros expand to `if obs::ENABLED { … }` in every crate, so both modes
//! type-check in every build and the off mode is a dead branch the
//! optimizer deletes — hot paths carry zero cost. With the feature on,
//! recording goes to a **thread-local** registry (no locks anywhere on the
//! hot path); it is a `BTreeMap` lookup per sample, which is why it is not
//! always on (DESIGN.md §13 has the prices).
//!
//! Determinism is part of the contract: recorded values derive only from
//! simulation state (counts, sim-time durations), never the wall clock,
//! and shard registries are merged in a caller-defined deterministic order
//! (the A/B runner merges per-user registries in population order, exactly
//! like its session-record merge). The JSON-lines sink therefore emits
//! **byte-identical** output for every worker-thread count on a fixed
//! seed.
//!
//! The metric-name registry and sink formats are documented in
//! DESIGN.md §13.

#![warn(missing_docs)]

mod ids;
mod sink;
mod snapshot;

pub use ids::TraceId;

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use tdigest::TDigest;

/// Whether telemetry is compiled in: the `enabled` feature. The recording
/// macros branch on it; code that only prepares a recorded value can too.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// The structured trace ring keeps the most recent `TRACE_CAP` events.
const TRACE_CAP: usize = 256;

/// Compression parameter of every histogram's t-digest.
const DIGEST_COMPRESSION: f64 = 100.0;

/// A sampled value: the exact sum of its samples and a t-digest over the
/// same samples, which holds the count, the exact min and max and the
/// quantiles. A non-finite sample is skipped whole, as [`TDigest::add`]
/// skips it, so the sum and the digest always see the same samples.
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    pub(crate) sum: f64,
    pub(crate) digest: TDigest,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            sum: 0.0,
            digest: TDigest::new(DIGEST_COMPRESSION),
        }
    }
}

impl Histogram {
    fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.sum += v;
            self.digest.add(v);
        }
    }

    fn merge(&mut self, other: &Histogram) {
        self.sum += other.sum;
        self.digest.merge(&other.digest);
    }
}

/// One structured trace event (see [`TraceId`] for the stable id space):
/// its sim time in nanoseconds and two event-specific operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceEvent {
    pub(crate) t_ns: u64,
    pub(crate) id: TraceId,
    pub(crate) a: u64,
    pub(crate) b: u64,
}

/// The most recent `TRACE_CAP` trace events, oldest first.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRing {
    pub(crate) events: VecDeque<TraceEvent>,
}

impl TraceRing {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == TRACE_CAP {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }
}

/// Counters, histograms and the trace ring — the unit of collection and
/// of deterministic shard merging.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) hists: BTreeMap<&'static str, Histogram>,
    pub(crate) trace: TraceRing,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to a counter.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Record a histogram sample (a non-finite one is skipped).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// Append a structured trace event.
    pub fn trace(&mut self, id: TraceId, t_ns: u64, a: u64, b: u64) {
        self.trace.push(TraceEvent { t_ns, id, a, b });
    }

    /// Merge another registry into this one. Callers must invoke merges in
    /// a deterministic order (e.g. population order) — counter sums are
    /// order-independent, but digest compression, histogram sums and trace
    /// retention are merge-order sensitive.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
        for &ev in &other.trace.events {
            self.trace.push(ev);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.trace.events.is_empty()
    }

    /// A counter's value (0 if never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Names of all metrics, sorted, with their kind (`counter` or `hist`).
    pub fn metric_names(&self) -> Vec<(&'static str, &'static str)> {
        let mut out: Vec<(&'static str, &'static str)> = Vec::new();
        out.extend(self.counters.keys().map(|&n| (n, "counter")));
        out.extend(self.hists.keys().map(|&n| (n, "hist")));
        out.sort();
        out
    }
}

thread_local! {
    static CURRENT: RefCell<Registry> = RefCell::new(Registry::new());
}

/// Run `f` with mutable access to the calling thread's registry.
///
/// Recording macros route here; sinks and harnesses can use it directly.
/// Do not call [`with`] reentrantly from inside `f`.
pub fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    CURRENT.with(|c| f(&mut c.borrow_mut()))
}

/// Take the calling thread's registry, leaving a fresh empty one.
pub fn take() -> Registry {
    CURRENT.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Replace the calling thread's registry, returning the previous one.
/// Harnesses use the [`install`]/[`take`] pair to scope collection (e.g.
/// one registry per user so shards merge deterministically).
pub fn install(r: Registry) -> Registry {
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), r))
}

/// Add `delta` to a named counter (no-op unless [`ENABLED`]).
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr) => {{
        if $crate::ENABLED {
            $crate::with(|r| r.counter($name, $delta));
        }
    }};
}

/// Record a histogram sample (no-op unless [`ENABLED`]).
#[macro_export]
macro_rules! observe {
    ($name:literal, $value:expr) => {{
        if $crate::ENABLED {
            $crate::with(|r| r.observe($name, $value));
        }
    }};
}

/// Append a structured trace event: `trace_event!(RebufferStart, t_ns, a, b)`
/// (no-op unless [`ENABLED`]).
#[macro_export]
macro_rules! trace_event {
    ($id:ident, $t_ns:expr, $a:expr, $b:expr) => {{
        if $crate::ENABLED {
            $crate::with(|r| r.trace($crate::TraceId::$id, $t_ns, $a, $b));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Registry {
        let mut r = Registry::new();
        r.counter("a.count", 2);
        r.counter("a.count", 3);
        r.observe("c.hist", 10.0);
        r.observe("c.hist", 1000.0);
        r.trace(TraceId::RebufferStart, 1_000, 7, 0);
        r
    }

    #[test]
    fn records_and_reads_back() {
        let r = filled();
        assert_eq!(r.counter_value("a.count"), 5);
        let h = &r.hists["c.hist"];
        assert_eq!(h.digest.count(), 2);
        assert_eq!(h.sum, 1010.0);
        assert_eq!(r.trace.events.len(), 1);
    }

    #[test]
    fn histogram_count_min_and_max_are_its_digests() {
        let mut r = Registry::new();
        for v in [3.5, -2.0, f64::NAN, 7.25, f64::INFINITY, 0.0] {
            r.observe("h", v);
        }
        let mut other = Registry::new();
        other.observe("h", f64::NEG_INFINITY);
        other.observe("h", 9.0);
        r.merge(&other);
        let h = &r.hists["h"];
        // The three non-finite samples are skipped whole: in neither the
        // sum nor the digest.
        assert_eq!(h.digest.count(), 5);
        assert_eq!(h.sum, 3.5 - 2.0 + 7.25 + 0.0 + 9.0);
        assert_eq!((h.digest.min(), h.digest.max()), (Some(-2.0), Some(9.0)));
        let line = r.to_jsonl();
        assert!(
            line.contains(r#""count":5,"sum":17.75,"min":-2,"max":9,"#),
            "{line}"
        );

        // A histogram that saw only non-finite samples is empty.
        let mut r = Registry::new();
        r.observe("h", f64::NAN);
        let h = &r.hists["h"];
        assert_eq!((h.digest.count(), h.sum.to_bits()), (0, 0));
        assert!(r
            .to_jsonl()
            .contains(r#""count":0,"sum":0,"min":null,"max":null"#));
    }

    #[test]
    fn merge_is_order_deterministic() {
        let mut a = filled();
        let b = filled();
        a.merge(&b);
        assert_eq!(a.counter_value("a.count"), 10);
        assert_eq!(a.hists["c.hist"].digest.count(), 4);
        assert_eq!(a.trace.events.len(), 2);

        // Merging the same parts in the same order gives identical output.
        let mut x = Registry::new();
        let mut y = Registry::new();
        for _ in 0..3 {
            x.merge(&filled());
            y.merge(&filled());
        }
        assert_eq!(x.to_jsonl(), y.to_jsonl());
    }

    #[test]
    fn trace_ring_caps() {
        let mut r = Registry::new();
        for i in 0..(TRACE_CAP as u64 + 10) {
            r.trace(TraceId::ChunkDone, i, i, 0);
        }
        assert_eq!(r.trace.events.len(), TRACE_CAP);
        let first = r.trace.events.front().unwrap();
        assert_eq!(first.t_ns, 10);
    }

    #[test]
    fn ring_never_exceeds_its_capacity_across_merges() {
        // Registries holding 0, 1, cap − 1, cap and (pushed past) cap + 9
        // events, merged in every order of pairs and chained.
        let sizes = [0, 1, TRACE_CAP - 1, TRACE_CAP, TRACE_CAP + 9];
        let part = |n: usize, tag: u64| {
            let mut r = Registry::new();
            for i in 0..n as u64 {
                r.trace(TraceId::LinkDrop, i, tag, i);
            }
            r
        };
        let mut chain = Registry::new();
        for (k, &n) in sizes.iter().enumerate() {
            for &m in &sizes {
                let mut a = part(n, 1);
                let b = part(m, 2);
                a.merge(&b);
                assert_eq!(a.trace.events.len(), (n + m).min(TRACE_CAP));
                // The newest events survive: b's, then a's tail.
                let newest = a.trace.events.iter().rev().take(m.min(TRACE_CAP));
                assert!(newest.into_iter().all(|ev| ev.a == 2));
            }
            chain.merge(&part(n, k as u64));
            assert!(chain.trace.events.len() <= TRACE_CAP);
        }
        assert_eq!(chain.trace.events.len(), TRACE_CAP);
    }

    #[test]
    fn thread_local_install_take() {
        let prev = install(Registry::new());
        with(|r| r.counter("x", 1));
        let got = take();
        assert_eq!(got.counter_value("x"), 1);
        assert!(take().is_empty());
        let _ = install(prev);
    }

    #[test]
    fn empty_registry_is_empty() {
        assert!(Registry::new().is_empty());
        assert!(!filled().is_empty());
    }
}
