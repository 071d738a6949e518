//! Sinks: deterministic JSON-lines and a human pretty-table.
//!
//! The JSON-lines sink is the machine contract (DESIGN.md §13): one JSON
//! object per line, sections in fixed order (counters, hists, trace),
//! names sorted within each section, floats printed with Rust's
//! shortest-roundtrip formatting. Every recorded value derives from
//! simulation state, so the output is byte-identical for a seed regardless
//! of machine speed or worker-thread count.

use crate::Registry;
use std::fmt::Write as _;

/// Format an f64 as a JSON value (`null` for non-finite or absent).
fn num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

impl Registry {
    /// Deterministic JSON-lines rendering.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, r#"{{"kind":"counter","name":"{name}","value":{v}}}"#);
        }
        for (name, h) in &self.hists {
            let d = &h.digest;
            let _ = writeln!(
                out,
                r#"{{"kind":"hist","name":"{name}","count":{},"sum":{},"min":{},"max":{},"p50":{},"p90":{},"p99":{}}}"#,
                d.count(),
                num(Some(h.sum)),
                num(d.min()),
                num(d.max()),
                num(Some(d.quantile(0.50))),
                num(Some(d.quantile(0.90))),
                num(Some(d.quantile(0.99))),
            );
        }
        for ev in &self.trace.events {
            let _ = writeln!(
                out,
                r#"{{"kind":"trace","id":{},"event":"{}","t_ns":{},"a":{},"b":{}}}"#,
                ev.id.code(),
                ev.id.name(),
                ev.t_ns,
                ev.a,
                ev.b,
            );
        }
        out
    }

    /// Write [`Registry::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Human-readable aligned table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {v:>14}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms (min / p50 / p99 / max, n)\n");
            for (name, h) in &self.hists {
                let d = &h.digest;
                let _ = writeln!(
                    out,
                    "  {name:<42} {:>12.4} / {:>12.4} / {:>12.4} / {:>12.4}  (n={})",
                    d.min().unwrap_or(f64::NAN),
                    d.quantile(0.50),
                    d.quantile(0.99),
                    d.max().unwrap_or(f64::NAN),
                    d.count(),
                );
            }
        }
        if !self.trace.events.is_empty() {
            let _ = writeln!(out, "trace (last {} events)", self.trace.events.len());
            for ev in &self.trace.events {
                let _ = writeln!(
                    out,
                    "  {:>14} ns  {:<16} a={} b={}",
                    ev.t_ns,
                    ev.id.name(),
                    ev.a,
                    ev.b,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Registry, TraceId};

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counter("netsim.engine.events", 42);
        r.observe("transport.cwnd_bytes", 14_600.0);
        r.observe("video.rebuffer_s", 2.0);
        r.trace(TraceId::LinkDrop, 123, 1, 1500);
        r
    }

    #[test]
    fn jsonl_is_sorted_by_section() {
        let out = sample().to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""kind":"counter""#));
        assert!(lines[1].contains(r#""kind":"hist","name":"transport.cwnd_bytes""#));
        assert!(lines[1].contains(r#""min":14600,"max":14600"#));
        assert!(lines[2].contains(r#""kind":"hist","name":"video.rebuffer_s""#));
        assert!(lines[3].contains(r#""kind":"trace""#));
        // Every line parses as a flat JSON object shape.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line: {l}");
        }
    }

    #[test]
    fn jsonl_identical_across_clones() {
        let r = sample();
        assert_eq!(r.to_jsonl(), r.clone().to_jsonl());
    }

    #[test]
    fn table_shows_every_section() {
        let t = sample().render_table();
        assert!(t.contains("netsim.engine.events"));
        assert!(t.contains("video.rebuffer_s"));
        assert!(t.contains("link_drop"));
        assert!(Registry::new().render_table().contains("no metrics"));
    }

    #[test]
    fn empty_histogram_renders_null() {
        let mut r = Registry::new();
        r.observe("h", f64::NAN);
        let out = r.to_jsonl();
        assert!(out.contains(r#""p50":null"#), "{out}");
    }
}
