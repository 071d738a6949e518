//! A tiny length-checked binary codec shared by the checkpoint formats.
//!
//! The workspace's `serde` is an offline no-op shim (there is no JSON or
//! bincode backend in the tree), so anything that must survive a process
//! boundary — experiment checkpoints, telemetry snapshots — serializes by
//! hand through this module. The encoding is deliberately boring:
//! little-endian fixed-width integers, `f64` as raw IEEE-754 bits (so
//! round-trips are bit-exact, which the resume-equivalence guarantee
//! depends on), and length-prefixed byte strings. Every read is bounds-
//! checked and returns [`WireError`] instead of panicking: checkpoint
//! files come from disk and may be torn or corrupt.

/// A decode failure: the buffer ended early or held an invalid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was being decoded when the failure hit.
    pub context: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated or invalid wire data while reading {}",
            self.context
        )
    }
}

impl std::error::Error for WireError {}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its raw IEEE-754 bits (bit-exact round trip,
/// including NaN payloads and signed zeros/infinities).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed byte string.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Bounds-checked sequential reader over an encoded buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read an `f64` from its raw bits.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read a `u64` and check it fits a sane in-memory allocation before
    /// using it as a collection length (guards corrupt files against
    /// attempted multi-exabyte `Vec::with_capacity`).
    pub fn len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let n = self.u64(context)?;
        if n > (1 << 40) {
            return Err(WireError { context });
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes(context)?).map_err(|_| WireError { context })
    }
}

/// FNV-1a 64-bit hash — the workspace's stable, dependency-free
/// fingerprint (same constants as the golden-test hashers).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorb a string (length-delimited so concatenations can't collide).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0xDEAD_BEEF_0BAD_F00D);
        put_u32(&mut buf, 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "hello");
        put_bytes(&mut buf, &[1, 2, 3]);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u64("a").unwrap(), 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(r.u32("b").unwrap(), 7);
        assert_eq!(r.f64("c").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("d").unwrap().is_nan());
        assert_eq!(r.str("e").unwrap(), "hello");
        assert_eq!(r.bytes("f").unwrap(), &[1, 2, 3]);
        assert!(r.is_done());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "metric.name");
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.str("name").is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn absurd_length_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut r = Reader::new(&buf);
        assert!(r.len("len").is_err());
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
