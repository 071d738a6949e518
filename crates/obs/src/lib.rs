//! # obs — workspace-wide telemetry
//!
//! The observability layer of the Sammy reproduction: counters, gauges,
//! fixed-bucket + t-digest histograms, span timers, and a bounded
//! structured event trace, all recorded into a [`Registry`].
//!
//! ## Design
//!
//! Instrumentation is gated by **one switch**, this crate's `enabled`
//! feature (the root package's `obs` feature is its alias), read as the
//! constant [`ENABLED`]: the
//! [`counter!`]/[`gauge!`]/[`observe!`]/[`span!`]/[`trace_event!`] macros
//! expand to `if obs::ENABLED { … }` in every crate, so both modes
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
//! seed. Wall-clock measurements do exist — scoped [`WallTimer`] spans for
//! runner progress — but they live in a separate section that only the
//! pretty-table sink prints; they never reach the deterministic sink.
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

/// Number of fixed histogram buckets: bucket 0 collects non-positive and
/// non-finite samples; bucket `i >= 1` spans `[2^(i-32), 2^(i-31))`.
pub const HIST_BUCKETS: usize = 64;

/// Default capacity of the structured trace ring.
const DEFAULT_TRACE_CAP: usize = 256;

/// Compression parameter of every histogram's embedded t-digest.
const DIGEST_COMPRESSION: f64 = 100.0;

/// Min/max/mean/last summary of a sampled value.
#[derive(Debug, Clone)]
pub struct Gauge {
    /// Samples recorded.
    pub count: u64,
    /// Most recent sample (merge order decides across shards).
    pub last: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples (for the mean).
    pub sum: f64,
}

impl Gauge {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
    }

    fn merge(&mut self, other: &Gauge) {
        self.count += other.count;
        self.last = other.last;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            count: 0,
            last: f64::NAN,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

/// Fixed log2-bucket histogram with an embedded t-digest for quantiles.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Fixed power-of-two buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Mergeable quantile sketch over the same samples.
    pub digest: TDigest,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            buckets: [0; HIST_BUCKETS],
            digest: TDigest::new(DIGEST_COMPRESSION),
        }
    }
}

/// The fixed bucket index for a sample (see [`HIST_BUCKETS`]).
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    (v.log2().floor() as i64 + 32).clamp(1, HIST_BUCKETS as i64 - 1) as usize
}

/// The `[lo, hi)` bounds of bucket `i`; bucket 0 is the non-positive /
/// non-finite catch-all and reports `(0.0, 0.0)`.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        (2f64.powi(i as i32 - 32), 2f64.powi(i as i32 - 31))
    }
}

impl Histogram {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
        self.digest.add(v);
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.digest.merge(&other.digest);
    }

    /// Quantile estimate from the embedded digest.
    pub fn quantile(&self, q: f64) -> f64 {
        self.digest.quantile(q)
    }
}

/// Accumulated durations of a named span (integer nanoseconds, so merges
/// and sums stay exact and deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean span duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// One structured trace event (see [`TraceId`] for the stable id space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time of the event in nanoseconds.
    pub t_ns: u64,
    /// Stable event id.
    pub id: TraceId,
    /// First event-specific operand.
    pub a: u64,
    /// Second event-specific operand.
    pub b: u64,
}

/// Bounded ring of the most recent [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    cap: usize,
}

impl TraceRing {
    /// An empty ring retaining at most `cap` events.
    pub fn with_cap(cap: usize) -> Self {
        TraceRing {
            events: VecDeque::new(),
            cap,
        }
    }

    /// The ring's retention capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing {
            events: VecDeque::new(),
            cap: DEFAULT_TRACE_CAP,
        }
    }
}

impl TraceRing {
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }

    fn merge(&mut self, other: &TraceRing) {
        for &ev in &other.events {
            self.push(ev);
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A set of named metrics plus the trace ring — the unit of collection
/// and of deterministic shard merging.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) gauges: BTreeMap<&'static str, Gauge>,
    pub(crate) hists: BTreeMap<&'static str, Histogram>,
    pub(crate) spans: BTreeMap<&'static str, SpanStat>,
    /// Wall-clock spans; excluded from the deterministic sink.
    pub(crate) wall_spans: BTreeMap<&'static str, SpanStat>,
    pub(crate) trace: TraceRing,
}

impl Registry {
    /// An empty registry with the default trace capacity.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to a counter.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Record a gauge sample (last/min/max/mean summary).
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.entry(name).or_default().record(value);
    }

    /// Record a histogram sample (fixed buckets + t-digest quantiles).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// Record a completed sim-time span of `dur_ns` nanoseconds.
    pub fn span(&mut self, name: &'static str, dur_ns: u64) {
        self.spans.entry(name).or_default().record(dur_ns);
    }

    /// Record a completed wall-clock span (nondeterministic section).
    fn wall_span(&mut self, name: &'static str, dur: std::time::Duration) {
        self.wall_spans
            .entry(name)
            .or_default()
            .record(dur.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Append a structured trace event.
    pub fn trace(&mut self, id: TraceId, t_ns: u64, a: u64, b: u64) {
        self.trace.push(TraceEvent { t_ns, id, a, b });
    }

    /// Merge another registry into this one. Callers must invoke merges in
    /// a deterministic order (e.g. population order) — counter sums are
    /// order-independent, but gauge `last`, digest compression, and trace
    /// retention are merge-order sensitive.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name).or_default().merge(g);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
        for (name, s) in &other.spans {
            self.spans.entry(name).or_default().merge(s);
        }
        for (name, s) in &other.wall_spans {
            self.wall_spans.entry(name).or_default().merge(s);
        }
        self.trace.merge(&other.trace);
    }

    /// True when nothing has been recorded (including wall spans).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
            && self.wall_spans.is_empty()
            && self.trace.is_empty()
    }

    /// A counter's value (0 if never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Drop the wall-clock section. Wall spans are nondeterministic by
    /// design; callers that fold registries into bit-identity-contracted
    /// state (the streaming A/B runner's shard accumulators) clear them
    /// at the fold boundary so the deterministic sections alone define
    /// the bytes.
    pub fn clear_wall_spans(&mut self) {
        self.wall_spans.clear();
    }

    /// The trace ring.
    pub fn trace_ring(&self) -> &TraceRing {
        &self.trace
    }

    /// Names of all deterministic metrics, sorted, with their kind.
    pub fn metric_names(&self) -> Vec<(&'static str, &'static str)> {
        let mut out: Vec<(&'static str, &'static str)> = Vec::new();
        out.extend(self.counters.keys().map(|&n| (n, "counter")));
        out.extend(self.gauges.keys().map(|&n| (n, "gauge")));
        out.extend(self.hists.keys().map(|&n| (n, "hist")));
        out.extend(self.spans.keys().map(|&n| (n, "span")));
        out.sort();
        out
    }

    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn sections(
        &self,
    ) -> (
        &BTreeMap<&'static str, u64>,
        &BTreeMap<&'static str, Gauge>,
        &BTreeMap<&'static str, Histogram>,
        &BTreeMap<&'static str, SpanStat>,
        &BTreeMap<&'static str, SpanStat>,
    ) {
        (
            &self.counters,
            &self.gauges,
            &self.hists,
            &self.spans,
            &self.wall_spans,
        )
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

/// Scoped wall-clock timer: records a wall span on drop. Wall spans are
/// nondeterministic and never reach the JSON-lines sink; use them for
/// runner progress (sessions/sec, shard wall time), not sim metrics.
#[must_use = "the span is recorded when the timer drops"]
#[derive(Debug)]
pub struct WallTimer {
    name: &'static str,
    start: std::time::Instant,
}

impl WallTimer {
    /// Start timing `name` now.
    pub fn start(name: &'static str) -> Self {
        WallTimer {
            name,
            start: std::time::Instant::now(),
        }
    }
}

impl Drop for WallTimer {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        with(|r| r.wall_span(self.name, dur));
    }
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

/// Record a gauge sample (no-op unless [`ENABLED`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {{
        if $crate::ENABLED {
            $crate::with(|r| r.gauge($name, $value));
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

/// Record a completed sim-time span in nanoseconds (no-op unless [`ENABLED`]).
#[macro_export]
macro_rules! span {
    ($name:literal, $dur_ns:expr) => {{
        if $crate::ENABLED {
            $crate::with(|r| r.span($name, $dur_ns));
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
        r.gauge("b.gauge", 1.5);
        r.gauge("b.gauge", -2.0);
        r.observe("c.hist", 10.0);
        r.observe("c.hist", 1000.0);
        r.span("d.span", 5_000);
        r.trace(TraceId::RebufferStart, 1_000, 7, 0);
        r
    }

    #[test]
    fn records_and_reads_back() {
        let r = filled();
        assert_eq!(r.counter_value("a.count"), 5);
        let g = &r.gauges["b.gauge"];
        assert_eq!(g.count, 2);
        assert_eq!(g.min, -2.0);
        assert_eq!(g.max, 1.5);
        assert_eq!(g.last, -2.0);
        let h = &r.hists["c.hist"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010.0);
        let s = &r.spans["d.span"];
        assert_eq!((s.count, s.total_ns, s.max_ns), (1, 5_000, 5_000));
        assert_eq!(r.trace_ring().len(), 1);
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), 32);
        assert_eq!(bucket_index(1.5), 32);
        assert_eq!(bucket_index(2.0), 33);
        assert!(bucket_index(1e300) == HIST_BUCKETS - 1);
        let (lo, hi) = bucket_bounds(32);
        assert_eq!((lo, hi), (1.0, 2.0));
    }

    #[test]
    fn merge_is_order_deterministic() {
        let mut a = filled();
        let b = filled();
        a.merge(&b);
        assert_eq!(a.counter_value("a.count"), 10);
        assert_eq!(a.gauges["b.gauge"].count, 4);
        assert_eq!(a.hists["c.hist"].count, 4);
        assert_eq!(a.spans["d.span"].total_ns, 10_000);
        assert_eq!(a.trace_ring().len(), 2);

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
        for i in 0..(DEFAULT_TRACE_CAP as u64 + 10) {
            r.trace(TraceId::ChunkDone, i, i, 0);
        }
        assert_eq!(r.trace_ring().len(), DEFAULT_TRACE_CAP);
        let first = r.trace_ring().events().next().unwrap();
        assert_eq!(first.t_ns, 10);
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
    fn wall_timer_records_on_drop() {
        let prev = install(Registry::new());
        {
            let _t = WallTimer::start("w.timer");
        }
        let got = take();
        let s = &got.wall_spans["w.timer"];
        assert_eq!(s.count, 1);
        // Wall spans never appear in the deterministic sink.
        assert!(!got.to_jsonl().contains("w.timer"));
        let _ = install(prev);
    }

    #[test]
    fn empty_registry_is_empty() {
        assert!(Registry::new().is_empty());
        assert!(!filled().is_empty());
    }
}
