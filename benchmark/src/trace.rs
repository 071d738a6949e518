//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Nothing outside `benchmark/` is instrumented: a span is opened by the
//! benchmark's own code just before it calls a crate's public function and
//! closed when the call returns. The layer of a span is the part of its
//! name before the first dot (`netsim.shared_cell.codel` → `netsim`).

use spec::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Rep the span belongs to (spans of one rep share it).
    pub rep: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Disabled, it only runs the closure, so untraced reps take
/// the same code path minus two clock reads per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans recorded from now on with `rep`.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span name below the root span at `root`: a span's
    /// duration minus the part its direct children cover. The root's own
    /// self time is returned under its name — the share of the rep the
    /// benchmark could not attribute to a call into a layer.
    pub fn self_times_ns(&self, root: usize) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        // Parents are recorded before their children, so one forward pass
        // settles membership.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if inside[p] {
                    inside[i] = true;
                    child_ns[p] += s.dur_ns();
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                *out.entry(s.name.clone()).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Indices of the spans called `name`, in recording order.
    pub fn indices_of(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// JSON-lines dump: one span per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let doc = obj(vec![
                ("id", Value::Num(i as f64)),
                ("name", Value::Str(s.name.clone())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("workload", Value::Str(workload.to_string())),
                ("rep", Value::Num(s.rep as f64)),
            ]);
            out.push_str(&doc.to_string());
            out.push('\n');
        }
        out
    }
}

/// The layer a span or metric name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.span("bench.rep", |t| {
            t.span("a.outer", |t| {
                t.span("b.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let root = t.indices_of("bench.rep")[0];
        let selfs = t.self_times_ns(root);
        let total: u64 = selfs.values().sum();
        assert_eq!(
            total,
            t.spans()[root].dur_ns(),
            "self times partition the root"
        );
        assert!(selfs["b.inner"] >= 2_000_000);
        assert!(selfs["a.outer"] < selfs["b.inner"]);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(layer_of("netsim.shared_cell.codel"), "netsim");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x.y", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
