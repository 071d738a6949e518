//! Registry snapshot/restore — telemetry that survives checkpoint/resume.
//!
//! A [`Registry`] serializes to a self-contained byte blob via the
//! [`tdigest::wire`] codec (DESIGN.md §16): the magic, then the counters,
//! the histograms (each an exact sum and its digest) and the trace ring,
//! each section in its sorted-name order, floats as raw bits. Decoding an
//! encoded registry reproduces it **bit-exactly**, digest centroids
//! included, and refuses what `encode` never writes: names out of order or
//! repeated, a ring longer than its capacity, an empty digest beside a
//! nonzero sum. The streaming A/B runner embeds these blobs in experiment
//! checkpoints; a resumed run's merged registry (and therefore its JSONL
//! sink output) is byte-identical to an uninterrupted run's.
//!
//! Metric names are `&'static str` in the live registry (they come from
//! macro literals). Restored names are interned through a process-wide
//! table ([`intern`]) that leaks each *distinct* name once — bounded by
//! the metric-name registry, not by restore count.

use crate::{Histogram, Registry, TraceEvent, TraceId, TRACE_CAP};
use std::collections::BTreeSet;
use std::sync::Mutex;
use tdigest::wire::{self, Reader, WireError};
use tdigest::TDigest;

/// Format tag so a registry blob is self-identifying inside larger files.
const MAGIC: u32 = 0x0B5D_0002;

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

/// Read one section's entries: a count, then each name (strictly after
/// the one before it, as a sorted map writes them) and its value.
fn get_section<T>(
    r: &mut Reader<'_>,
    context: &'static str,
    mut value: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<Vec<(&'static str, T)>, WireError> {
    let n = r.len(context)?;
    let mut out: Vec<(&'static str, T)> = Vec::new();
    for _ in 0..n {
        let name = r.str(context)?;
        if out.last().is_some_and(|&(prev, _)| prev >= name) {
            return Err(WireError { context });
        }
        let v = value(r)?;
        out.push((intern(name), v));
    }
    Ok(out)
}

fn get_hist(r: &mut Reader<'_>) -> Result<Histogram, WireError> {
    let sum = r.f64("hist.sum")?;
    let digest = TDigest::decode(r)?;
    if digest.is_empty() && sum.to_bits() != 0 {
        return Err(WireError {
            context: "hist.sum",
        });
    }
    Ok(Histogram { sum, digest })
}

impl Registry {
    /// Append the registry, serialized, to `out` — a self-contained blob
    /// embeddable in larger checkpoint files (see the module docs for the
    /// exactness contract).
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, MAGIC);
        wire::put_u64(out, self.counters.len() as u64);
        for (name, v) in &self.counters {
            wire::put_str(out, name);
            wire::put_u64(out, *v);
        }
        wire::put_u64(out, self.hists.len() as u64);
        for (name, h) in &self.hists {
            wire::put_str(out, name);
            wire::put_f64(out, h.sum);
            h.digest.encode(out);
        }
        wire::put_u64(out, self.trace.events.len() as u64);
        for ev in &self.trace.events {
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
        reg.counters = get_section(r, "registry.counters", |r| r.u64("counter.value"))?
            .into_iter()
            .collect();
        reg.hists = get_section(r, "registry.hists", get_hist)?
            .into_iter()
            .collect();
        let len = r.len("trace.len")?;
        if len > TRACE_CAP {
            return Err(WireError {
                context: "trace.len",
            });
        }
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
            reg.trace.push(TraceEvent { t_ns, id, a, b });
        }
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
        r.observe("s.window", 2.25);
        r.observe("s.window", f64::NAN);
        for i in 0..5000 {
            r.observe("s.hist", (i % 977) as f64 * 0.5);
        }
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
        assert_eq!(back.trace.events.len(), 10);
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
        let bytes = to_bytes(&r);
        // The trace id u32 sits 20 bytes before the end (a + b follow it).
        let idx = bytes.len() - 20;
        for code in [5u32, 7, 8, 999] {
            let mut bytes = bytes.clone();
            bytes[idx..idx + 4].copy_from_slice(&code.to_le_bytes());
            assert!(from_bytes(&bytes).is_err(), "code {code}");
        }
    }

    /// The blob of two counters named `x` and `y`, with `y`'s name byte
    /// rewritten to `name`.
    fn counters_renamed(name: u8) -> Vec<u8> {
        let mut r = Registry::new();
        r.counter("x", 1);
        r.counter("y", 2);
        let mut bytes = to_bytes(&r);
        let at = bytes.iter().rposition(|&b| b == b'y').unwrap();
        bytes[at] = name;
        bytes
    }

    #[test]
    fn names_must_strictly_increase_within_a_section() {
        assert!(from_bytes(&counters_renamed(b'y')).is_ok());
        assert!(from_bytes(&counters_renamed(b'z')).is_ok());
        // A repeated name would overwrite, a smaller one re-sort: neither
        // re-encodes to the bytes read.
        let err = from_bytes(&counters_renamed(b'x')).unwrap_err();
        assert_eq!(err.context, "registry.counters");
        assert!(from_bytes(&counters_renamed(b'a')).is_err());
    }

    #[test]
    fn ring_longer_than_its_capacity_is_rejected() {
        let mut r = Registry::new();
        for i in 0..TRACE_CAP as u64 {
            r.trace(TraceId::LinkDrop, i, 0, 0);
        }
        let mut bytes = to_bytes(&r);
        assert!(from_bytes(&bytes).is_ok());
        // Append one more event and bump the ring's length word.
        let len_at = bytes.len() - TRACE_CAP * 28 - 8;
        bytes[len_at..len_at + 8].copy_from_slice(&(TRACE_CAP as u64 + 1).to_le_bytes());
        bytes.extend_from_within(bytes.len() - 28..);
        assert_eq!(from_bytes(&bytes).unwrap_err().context, "trace.len");
    }

    #[test]
    fn empty_digest_beside_a_nonzero_sum_is_rejected() {
        let mut r = Registry::new();
        r.observe("h", f64::NAN);
        let bytes = to_bytes(&r);
        assert!(from_bytes(&bytes).is_ok());
        // The sum's 8 bytes follow the magic, two section counts and the
        // name (a length word and one byte).
        let at = 4 + 8 + 8 + 8 + 1;
        for sum in [-0.0, 1.0, f64::NAN] {
            let mut bytes = bytes.clone();
            bytes[at..at + 8].copy_from_slice(&sum.to_bits().to_le_bytes());
            assert_eq!(from_bytes(&bytes).unwrap_err().context, "hist.sum");
        }
    }
}
