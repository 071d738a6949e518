//! Titles and chunks.
//!
//! A title is a video split into fixed-duration chunks, each encoded at
//! every rung of a ladder. Chunk sizes vary around `bitrate × duration`
//! because encoders are variable-bitrate; the variation is seeded and
//! deterministic per title.
//!
//! Storage is flat: per-chunk/per-rung sizes and VMAFs live in two dense
//! arrays (chunk-major). ABR algorithms see chunks through the zero-copy
//! [`Chunk`] view and lookahead windows through [`Lookahead`], so selecting
//! a chunk allocates nothing.

use crate::ladder::{Ladder, MAX_RUNGS};
use netsim::{Rate, SimDuration};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// A title: a ladder plus its chunk data in flattened chunk-major layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Title {
    /// The encoding ladder.
    pub ladder: Ladder,
    /// Number of chunks (`sizes.len() / rungs`, stored so that bounds
    /// checks do not divide).
    chunks: usize,
    /// Encoded size in bytes at `[chunk * rungs + rung]`.
    sizes: Vec<u64>,
    /// Per-chunk VMAF at `[chunk * rungs + rung]`: the rung's nominal score
    /// plus a small scene-dependent offset (encoders hold quality only
    /// approximately constant across scenes).
    vmafs: Vec<f64>,
}

/// A zero-copy view of one chunk of a title.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    title: &'a Title,
    index: usize,
}

impl<'a> Chunk<'a> {
    /// Position of this chunk in the title.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Playback duration.
    pub fn duration(&self) -> SimDuration {
        CHUNK_DURATION
    }

    /// Encoded size of this chunk at `rung`.
    pub fn size(&self, rung: usize) -> u64 {
        self.sizes()[rung]
    }

    /// VMAF of this chunk at `rung`.
    pub fn vmaf(&self, rung: usize) -> f64 {
        self.vmafs()[rung]
    }

    /// Actual encoding bitrate of this chunk at `rung` (size / duration).
    pub fn actual_bitrate(&self, rung: usize) -> Rate {
        Rate::from_bps(self.size(rung) as f64 * 8.0 / self.duration().as_secs_f64())
    }

    /// Encoded sizes, one entry per ladder rung.
    pub fn sizes(&self) -> &'a [u64] {
        let r = self.title.rungs();
        &self.title.sizes[self.index * r..(self.index + 1) * r]
    }

    /// Per-rung VMAF scores.
    fn vmafs(&self) -> &'a [f64] {
        let r = self.title.rungs();
        &self.title.vmafs[self.index * r..(self.index + 1) * r]
    }
}

/// A lookahead window over a title's remaining chunks, handed to ABR
/// algorithms. Copyable and allocation-free; indexing is relative to the
/// window start.
#[derive(Debug, Clone, Copy)]
pub struct Lookahead<'a> {
    title: &'a Title,
    from: usize,
}

impl<'a> Lookahead<'a> {
    /// Number of chunks in the window.
    pub fn len(&self) -> usize {
        self.title.len() - self.from
    }

    /// True when no chunks remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th upcoming chunk (0 = the chunk being selected).
    ///
    /// # Panics
    /// Panics past the end of the window.
    pub fn chunk(&self, i: usize) -> Chunk<'a> {
        assert!(i < self.len(), "lookahead index out of range");
        Chunk {
            title: self.title,
            index: self.from + i,
        }
    }

    /// Encoded sizes of the first `h` upcoming chunks as one chunk-major
    /// block: `h` rows of one entry per rung, so row `i` is
    /// `self.chunk(i).sizes()`.
    ///
    /// Within a row, sizes never decrease with rung: a ladder's bitrates
    /// ascend and [`Title::generate`] scales every rung of a chunk by the
    /// one multiplier, through a floor and a `max(1)` that both keep order.
    /// `abr::Mpc` relies on this to skip its rebuffer walk when the top
    /// rung cannot stall.
    ///
    /// # Panics
    /// Panics if `h` exceeds the window.
    pub fn sizes(&self, h: usize) -> &'a [u64] {
        let r = self.title.rungs();
        &self.title.sizes[self.from * r..(self.from + h) * r]
    }
}

/// Playback duration of every chunk of every title.
const CHUNK_DURATION: SimDuration = SimDuration::from_secs(4);

/// Parameters for generating a synthetic title, whose chunks each play
/// for 4 s.
#[derive(Debug, Clone)]
pub struct TitleConfig {
    /// Total playback duration.
    pub duration: SimDuration,
    /// Coefficient of variation of chunk sizes around the rung bitrate
    /// (VBR wobble). 0 gives perfectly CBR chunks.
    pub size_cv: f64,
    /// Standard deviation of the per-chunk VMAF offset (quality wobble
    /// across scenes at a fixed rung). 0 gives constant per-rung VMAF.
    pub vmaf_sd: f64,
    /// RNG seed for the size wobble.
    pub seed: u64,
}

impl Default for TitleConfig {
    fn default() -> Self {
        TitleConfig {
            duration: SimDuration::from_secs(20 * 60),
            size_cv: 0.15,
            vmaf_sd: 1.5,
            seed: 0,
        }
    }
}

impl Title {
    /// Generate a title with the given ladder and config.
    ///
    /// # Panics
    /// Panics if the title is shorter than one chunk.
    pub fn generate(ladder: Ladder, cfg: &TitleConfig) -> Self {
        assert!(
            cfg.duration >= CHUNK_DURATION,
            "title shorter than one chunk"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = (cfg.duration.as_nanos() / CHUNK_DURATION.as_nanos()) as usize;
        let chunk_secs = CHUNK_DURATION.as_secs_f64();
        let rungs = ladder.rungs().len();
        // Per-title constants: the size wobble's log-normal parameters
        // (mean ≈ 1, coefficient of variation `size_cv`), and per rung its
        // ideal chunk size and the weight of the scene's VMAF offset,
        // which shrinks toward the top of the scale (scores saturate).
        let cv = cfg.size_cv;
        let sigma = (1.0 + cv * cv).ln().sqrt();
        let mu = -sigma * sigma / 2.0;
        let mut ideal = [0.0; MAX_RUNGS];
        let mut offset_weight = [0.0; MAX_RUNGS];
        for (i, r) in ladder.rungs().iter().enumerate() {
            ideal[i] = r.bitrate.bps() * chunk_secs / 8.0;
            offset_weight[i] = 0.5 + (100.0 - r.vmaf) / 100.0;
        }
        let mut sizes = Vec::with_capacity(n * rungs);
        let mut vmafs = Vec::with_capacity(n * rungs);
        for _ in 0..n {
            // One multiplier per chunk, shared across rungs: scene
            // complexity moves all encodings together. Log-normal,
            // clamped to [0.4, 2.5]; exactly 1 when CBR.
            let mult = if cv <= 0.0 {
                1.0
            } else {
                (mu + sigma * gaussian(&mut rng)).exp().clamp(0.4, 2.5)
            };
            sizes.extend(
                ideal[..rungs]
                    .iter()
                    .map(|&ideal| ((ideal * mult) as u64).max(1)),
            );
            // Scene-dependent quality offset, shared across rungs.
            let offset = gaussian(&mut rng) * cfg.vmaf_sd;
            vmafs.extend(
                ladder
                    .rungs()
                    .iter()
                    .zip(&offset_weight)
                    .map(|(r, &w)| (r.vmaf + offset * w).clamp(0.0, 100.0)),
            );
        }
        Title {
            ladder,
            chunks: n,
            sizes,
            vmafs,
        }
    }

    /// Number of rungs (row stride of the flattened arrays).
    fn rungs(&self) -> usize {
        self.ladder.rungs().len()
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks
    }

    /// True if the title has no chunks (never produced by `generate`).
    pub fn is_empty(&self) -> bool {
        self.chunks == 0
    }

    /// Uniform per-chunk playback duration.
    pub fn chunk_duration(&self) -> SimDuration {
        CHUNK_DURATION
    }

    /// Total playback duration.
    pub fn duration(&self) -> SimDuration {
        CHUNK_DURATION * self.len() as u64
    }

    /// View of the chunk at `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn chunk(&self, index: usize) -> Chunk<'_> {
        assert!(index < self.len(), "chunk index out of range");
        Chunk { title: self, index }
    }

    /// Chunks from `from` (inclusive), for ABR lookahead.
    pub fn upcoming(&self, from: usize) -> Lookahead<'_> {
        Lookahead {
            title: self,
            from: from.min(self.len()),
        }
    }
}

/// A standard normal draw (Box-Muller from two uniforms).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmaf::VmafModel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn title(seed: u64, cv: f64) -> Title {
        Title::generate(
            Ladder::hd(&VmafModel::standard()),
            &TitleConfig {
                seed,
                size_cv: cv,
                ..Default::default()
            },
        )
    }

    #[test]
    fn chunk_count_and_duration() {
        let t = title(0, 0.15);
        assert_eq!(t.len(), 300); // 20 min / 4 s
        assert_eq!(t.duration(), SimDuration::from_secs(1200));
        assert_eq!(t.chunk_duration(), SimDuration::from_secs(4));
    }

    #[test]
    fn cbr_sizes_exact() {
        let t = title(0, 0.0);
        let c = t.chunk(7);
        // 1.05 Mbps rung, 4 s chunk: 525 kB.
        assert_eq!(c.size(4), 525_000);
        assert!((c.actual_bitrate(4).bps() - 1_050e3).abs() < 1.0);
    }

    #[test]
    fn vbr_sizes_average_near_bitrate() {
        let t = title(3, 0.15);
        let rung = 6; // 3 Mbps
        let mean_size: f64 = (0..t.len())
            .map(|i| t.chunk(i).size(rung) as f64)
            .sum::<f64>()
            / t.len() as f64;
        let ideal = 3_000e3 * 4.0 / 8.0;
        assert!(
            (mean_size - ideal).abs() / ideal < 0.05,
            "mean {mean_size} vs ideal {ideal}"
        );
    }

    #[test]
    fn sizes_ascend_with_rung() {
        let t = title(1, 0.15);
        for i in 0..t.len() {
            for w in t.chunk(i).sizes().windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn per_chunk_vmaf_varies_and_stays_ordered() {
        let t = title(2, 0.1);
        // Wobble exists...
        let v: Vec<f64> = (0..t.len()).map(|i| t.chunk(i).vmaf(4)).collect();
        let spread = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.5, "vmaf spread {spread}");
        // ...but rung ordering holds within every chunk.
        for i in 0..t.len() {
            let c = t.chunk(i);
            for w in c.vmafs().windows(2) {
                assert!(w[1] > w[0], "vmaf ordering broken: {:?}", c.vmafs());
            }
            for &x in c.vmafs() {
                assert!((0.0..=100.0).contains(&x));
            }
        }
    }

    #[test]
    fn zero_vmaf_sd_is_exact() {
        let t = Title::generate(
            Ladder::hd(&VmafModel::standard()),
            &TitleConfig {
                size_cv: 0.0,
                vmaf_sd: 0.0,
                ..Default::default()
            },
        );
        for i in 0..t.len() {
            for (r, rung) in t.ladder.rungs().iter().enumerate() {
                assert_eq!(t.chunk(i).vmaf(r), rung.vmaf);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = title(42, 0.15);
        let b = title(42, 0.15);
        let c = title(43, 0.15);
        assert_eq!(a.chunk(5).sizes(), b.chunk(5).sizes());
        assert_ne!(a.chunk(5).sizes(), c.chunk(5).sizes());
    }

    #[test]
    fn upcoming_lookahead() {
        let t = title(0, 0.0);
        assert_eq!(t.upcoming(295).len(), 5);
        assert_eq!(t.upcoming(300).len(), 0);
        assert_eq!(t.upcoming(10_000).len(), 0);
        assert_eq!(t.upcoming(0).len(), 300);
    }

    #[test]
    fn lookahead_views_match_title() {
        let t = title(4, 0.15);
        let w = t.upcoming(100);
        assert_eq!(w.chunk(0).index(), 100);
        assert_eq!(w.chunk(3).size(2), t.chunk(103).size(2));
        assert_eq!(w.chunk(3).vmaf(2), t.chunk(103).vmaf(2));
    }

    /// The window block is chunk-major with the ladder's stride, for
    /// ladders of one, five and nine rungs, at every short window.
    #[test]
    fn lookahead_sizes_rows_are_the_chunks() {
        let vmaf = VmafModel::standard();
        for ladder in [
            Ladder::from_bitrates(&[1e6], &vmaf),
            Ladder::lab(&vmaf),
            Ladder::hd(&vmaf),
        ] {
            let rungs = ladder.len();
            let t = Title::generate(
                ladder,
                &TitleConfig {
                    duration: SimDuration::from_secs(40),
                    seed: 9,
                    ..Default::default()
                },
            );
            for k in 0..=6 {
                let w = t.upcoming(t.len() - k);
                for h in 0..=w.len() {
                    let block = w.sizes(h);
                    assert_eq!(block.len(), h * rungs);
                    for i in 0..h {
                        for r in 0..rungs {
                            assert_eq!(block[i * rungs + r], w.chunk(i).size(r), "k={k} h={h}");
                        }
                    }
                }
            }
        }
    }

    /// Cases of `monotone_size_cases` in which some chunk's multiplier sat
    /// on the [0.4, 2.5] clamp.
    static CLAMPED: AtomicUsize = AtomicUsize::new(0);

    proptest::proptest! {
        /// The order [`Lookahead::sizes`] promises: every chunk's sizes
        /// never decrease with rung, over ladders of 1–9 rungs under tops
        /// of 1.75–16 Mbps and size wobbles from CBR to a `size_cv` of 0.5,
        /// whose multipliers reach the clamp.
        fn monotone_size_cases(
            seed in 0u64..100_000,
            top_mbps in 1.75f64..16.0,
            rungs in 1usize..=9,
            cv_draw in 0u8..8,
            cv in 0.0f64..=0.5,
        ) {
            let mut rates: Vec<f64> = [0.235, 0.56, 1.05, 1.75, 3.0, 4.3, 5.8, 8.1]
                .iter()
                .map(|m| m * 1e6)
                .filter(|&r| r < top_mbps * 1e6 * 0.99)
                .collect();
            rates.push(top_mbps * 1e6);
            let rates = &rates[rates.len().saturating_sub(rungs)..];
            // One case in eight is CBR, one in eight at the widest wobble.
            let size_cv = match cv_draw {
                0 => 0.0,
                1 => 0.5,
                _ => cv,
            };
            let t = Title::generate(
                Ladder::from_bitrates(rates, &VmafModel::standard()),
                &TitleConfig { seed, size_cv, ..Default::default() },
            );
            let top = t.ladder.top();
            let ideal = t.ladder.rung(top).bitrate.bps() * 4.0 / 8.0;
            let mut clamped = false;
            for i in 0..t.len() {
                let row = t.chunk(i).sizes();
                proptest::prop_assert!(
                    row.windows(2).all(|w| w[0] <= w[1]),
                    "chunk {} sizes {:?}",
                    i,
                    row
                );
                clamped |= [0.4, 2.5].iter().any(|&m| row[top] == (ideal * m) as u64);
            }
            if clamped {
                CLAMPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn generated_sizes_never_decrease_with_rung() {
        monotone_size_cases();
        assert!(
            CLAMPED.load(Ordering::Relaxed) > 0,
            "no case reached the clamp"
        );
    }

    #[test]
    #[should_panic]
    fn lookahead_sizes_past_the_window_panic() {
        let t = title(0, 0.15);
        t.upcoming(t.len() - 2).sizes(3);
    }
}
