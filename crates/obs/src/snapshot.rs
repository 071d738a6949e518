//! Registry snapshot/restore — telemetry that survives checkpoint/resume.
//!
//! A [`Registry`] serializes to a self-contained byte blob via the
//! [`tdigest::wire`] codec (DESIGN.md §16): every section is written in
//! its deterministic BTreeMap order, floats as raw bits, so
//! decoding an encoded registry reproduces it **bit-exactly** —
//! including digest centroid state, gauge extrema, and the trace ring.
//! The streaming A/B runner embeds these blobs in experiment checkpoints;
//! a resumed run's merged registry (and therefore its JSONL sink output)
//! is byte-identical to an uninterrupted run's.
//!
//! Metric names are `&'static str` in the live registry (they come from
//! macro literals). Restored names are interned through a process-wide
//! table ([`intern`]) that leaks each *distinct* name once — bounded by
//! the metric-name registry, not by restore count.

use crate::{Gauge, Histogram, Registry, SpanStat, TraceEvent, TraceId, TraceRing, HIST_BUCKETS};
use std::collections::BTreeSet;
use std::sync::Mutex;
use tdigest::wire::{self, Reader, WireError};
use tdigest::TDigest;

/// Format tag so a registry blob is self-identifying inside larger files.
const MAGIC: u32 = 0x0B5D_0001;

static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Intern a metric name: returns a `&'static str` equal to `name`,
/// leaking each distinct name at most once per process. Restore paths use
/// this to rebuild `&'static str`-keyed maps from decoded strings.
fn intern(name: &str) -> &'static str {
    let mut set = INTERNED.lock().expect("intern table");
    if let Some(&existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

fn put_gauge(out: &mut Vec<u8>, g: &Gauge) {
    wire::put_u64(out, g.count);
    wire::put_f64(out, g.last);
    wire::put_f64(out, g.min);
    wire::put_f64(out, g.max);
    wire::put_f64(out, g.sum);
}

fn get_gauge(r: &mut Reader<'_>) -> Result<Gauge, WireError> {
    Ok(Gauge {
        count: r.u64("gauge.count")?,
        last: r.f64("gauge.last")?,
        min: r.f64("gauge.min")?,
        max: r.f64("gauge.max")?,
        sum: r.f64("gauge.sum")?,
    })
}

fn put_hist(out: &mut Vec<u8>, h: &Histogram) {
    wire::put_u64(out, h.count);
    wire::put_f64(out, h.sum);
    for &b in h.buckets.iter() {
        wire::put_u64(out, b);
    }
    h.digest.encode(out);
}

fn get_hist(r: &mut Reader<'_>) -> Result<Histogram, WireError> {
    let count = r.u64("hist.count")?;
    let sum = r.f64("hist.sum")?;
    let mut buckets = [0u64; HIST_BUCKETS];
    for b in buckets.iter_mut() {
        *b = r.u64("hist.bucket")?;
    }
    let digest = TDigest::decode(r)?;
    Ok(Histogram {
        count,
        sum,
        buckets,
        digest,
    })
}

fn put_span(out: &mut Vec<u8>, s: &SpanStat) {
    wire::put_u64(out, s.count);
    wire::put_u64(out, s.total_ns);
    wire::put_u64(out, s.max_ns);
}

fn get_span(r: &mut Reader<'_>) -> Result<SpanStat, WireError> {
    Ok(SpanStat {
        count: r.u64("span.count")?,
        total_ns: r.u64("span.total_ns")?,
        max_ns: r.u64("span.max_ns")?,
    })
}

impl Registry {
    /// Append the registry, serialized, to `out` — a self-contained blob
    /// embeddable in larger checkpoint files (see the module docs for the
    /// exactness contract).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let (counters, gauges, hists, spans, wall) = self.sections();
        wire::put_u32(out, MAGIC);
        wire::put_u64(out, counters.len() as u64);
        for (name, v) in counters {
            wire::put_str(out, name);
            wire::put_u64(out, *v);
        }
        wire::put_u64(out, gauges.len() as u64);
        for (name, g) in gauges {
            wire::put_str(out, name);
            put_gauge(out, g);
        }
        wire::put_u64(out, hists.len() as u64);
        for (name, h) in hists {
            wire::put_str(out, name);
            put_hist(out, h);
        }
        wire::put_u64(out, spans.len() as u64);
        for (name, s) in spans {
            wire::put_str(out, name);
            put_span(out, s);
        }
        wire::put_u64(out, wall.len() as u64);
        for (name, s) in wall {
            wire::put_str(out, name);
            put_span(out, s);
        }
        let ring = self.trace_ring();
        wire::put_u64(out, ring.cap() as u64);
        wire::put_u64(out, ring.len() as u64);
        for ev in ring.events() {
            wire::put_u64(out, ev.t_ns);
            wire::put_u32(out, ev.id.code() as u32);
            wire::put_u64(out, ev.a);
            wire::put_u64(out, ev.b);
        }
    }

    /// Decode a registry written by [`Registry::encode`] from `r`, leaving
    /// the reader positioned after it (the checkpoint format embeds
    /// registries mid-stream).
    pub fn decode(r: &mut Reader<'_>) -> Result<Registry, WireError> {
        if r.u32("registry.magic")? != MAGIC {
            return Err(WireError {
                context: "registry.magic",
            });
        }
        let mut reg = Registry::new();
        let n = r.len("registry.counters")?;
        for _ in 0..n {
            let name = intern(r.str("counter.name")?);
            let v = r.u64("counter.value")?;
            reg.counters.insert(name, v);
        }
        let n = r.len("registry.gauges")?;
        for _ in 0..n {
            let name = intern(r.str("gauge.name")?);
            let g = get_gauge(r)?;
            reg.gauges.insert(name, g);
        }
        let n = r.len("registry.hists")?;
        for _ in 0..n {
            let name = intern(r.str("hist.name")?);
            let h = get_hist(r)?;
            reg.hists.insert(name, h);
        }
        let n = r.len("registry.spans")?;
        for _ in 0..n {
            let name = intern(r.str("span.name")?);
            let s = get_span(r)?;
            reg.spans.insert(name, s);
        }
        let n = r.len("registry.wall_spans")?;
        for _ in 0..n {
            let name = intern(r.str("wall_span.name")?);
            let s = get_span(r)?;
            reg.wall_spans.insert(name, s);
        }
        let cap = r.len("trace.cap")?;
        let len = r.len("trace.len")?;
        if len > cap {
            return Err(WireError {
                context: "trace.len",
            });
        }
        let mut ring = TraceRing::with_cap(cap);
        for _ in 0..len {
            let t_ns = r.u64("trace.t_ns")?;
            let code = r.u32("trace.id")?;
            let id = u16::try_from(code)
                .ok()
                .and_then(TraceId::from_code)
                .ok_or(WireError {
                    context: "trace.id",
                })?;
            let a = r.u64("trace.a")?;
            let b = r.u64("trace.b")?;
            ring.push(TraceEvent { t_ns, id, a, b });
        }
        reg.trace = ring;
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(r: &Registry) -> Vec<u8> {
        let mut out = Vec::new();
        r.encode(&mut out);
        out
    }

    /// Decode a blob holding exactly one registry.
    fn from_bytes(bytes: &[u8]) -> Result<Registry, WireError> {
        let mut r = Reader::new(bytes);
        let reg = Registry::decode(&mut r)?;
        assert!(r.is_done(), "bytes left after the registry");
        Ok(reg)
    }

    fn filled() -> Registry {
        let mut r = Registry::new();
        r.counter("s.count", 41);
        r.gauge("s.gauge", 2.25);
        r.gauge("s.gauge", f64::NAN);
        for i in 0..5000 {
            r.observe("s.hist", (i % 977) as f64 * 0.5);
        }
        r.span("s.span", 12_345);
        r.wall_span("s.wall", std::time::Duration::from_micros(7));
        for i in 0..10 {
            r.trace(TraceId::ChunkDone, i, i * 2, 1);
        }
        r
    }

    #[test]
    fn intern_dedupes() {
        let a = intern("snapshot.test.metric");
        let b = intern("snapshot.test.metric");
        assert!(std::ptr::eq(a, b));
        assert_ne!(intern("snapshot.test.other"), a);
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let r = filled();
        let bytes = to_bytes(&r);
        let back = from_bytes(&bytes).unwrap();
        // The JSONL sink is the deterministic contract: byte-identical.
        assert_eq!(back.to_jsonl(), r.to_jsonl());
        // Wall spans and trace survive too (sink excludes them).
        assert_eq!(back.wall_spans["s.wall"].count, 1);
        assert_eq!(back.trace_ring().len(), 10);
        // Re-encoding is canonical.
        assert_eq!(to_bytes(&back), bytes);
        // Merge histories stay identical: merging the same shard into the
        // original and the restored copy gives byte-identical snapshots.
        let (mut a, mut b) = (r, back);
        a.merge(&filled());
        b.merge(&filled());
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn empty_registry_round_trips() {
        let r = Registry::new();
        let back = from_bytes(&to_bytes(&r)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let bytes = to_bytes(&filled());
        for cut in [0, 3, 4, 20, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(from_bytes(&wrong_magic).is_err());
        // Decoding stops at the registry's end: what follows is the
        // embedding file's.
        let mut trailing = bytes;
        trailing.push(0);
        let mut reader = Reader::new(&trailing);
        Registry::decode(&mut reader).unwrap();
        assert!(!reader.is_done());
    }

    #[test]
    fn unknown_trace_id_is_rejected() {
        let mut r = Registry::new();
        r.trace(TraceId::LinkDrop, 1, 2, 3);
        let mut bytes = to_bytes(&r);
        // The trace id u32 sits 12 bytes before the end (a + b follow it).
        let idx = bytes.len() - 20;
        bytes[idx..idx + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(from_bytes(&bytes).is_err());
    }
}
