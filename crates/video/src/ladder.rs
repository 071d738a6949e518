//! Bitrate ladders.
//!
//! Each title is encoded at a ladder of bitrates, from a small low-quality
//! rung to a large high-quality rung (§2.1). The ABR algorithm picks a rung
//! per chunk; Sammy's pace-rate selection is keyed off the *highest* rung.

use crate::vmaf::VmafModel;
use netsim::{Rate, SimError};
use serde::{Deserialize, Serialize};

/// One encoding of a title: a bitrate and its perceptual quality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rung {
    /// Average encoding bitrate.
    pub bitrate: Rate,
    /// VMAF score of this encoding.
    pub vmaf: f64,
}

/// Most rungs a ladder may have (published ladders have about ten), so
/// that per-rung constants fit a stack array.
pub(crate) const MAX_RUNGS: usize = 32;

/// An ascending ladder of encodings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ladder {
    rungs: Vec<Rung>,
}

impl Ladder {
    /// Build a ladder from bitrates (bits/sec) and a VMAF model.
    ///
    /// # Panics
    /// Panics if `bitrates_bps` is empty or not strictly ascending; use
    /// [`Ladder::try_from_bitrates`] for caller-supplied input.
    pub fn from_bitrates(bitrates_bps: &[f64], vmaf: &VmafModel) -> Self {
        match Ladder::try_from_bitrates(bitrates_bps, vmaf) {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Ladder::from_bitrates`]: rejects empty, over-long
    /// (past `MAX_RUNGS`), non-finite, non-positive, or non-ascending
    /// bitrate lists.
    fn try_from_bitrates(bitrates_bps: &[f64], vmaf: &VmafModel) -> Result<Self, SimError> {
        let invalid = |reason: String| SimError::InvalidConfig {
            field: "ladder.bitrates",
            reason,
        };
        if bitrates_bps.is_empty() {
            return Err(invalid("ladder needs at least one rung".into()));
        }
        if bitrates_bps.len() > MAX_RUNGS {
            return Err(invalid(format!(
                "ladder has {} rungs, at most {MAX_RUNGS} allowed",
                bitrates_bps.len()
            )));
        }
        if let Some(&b) = bitrates_bps.iter().find(|b| !b.is_finite() || **b <= 0.0) {
            return Err(invalid(format!("bitrate {b} is not positive and finite")));
        }
        if !bitrates_bps.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid("ladder bitrates must be strictly ascending".into()));
        }
        Ok(Ladder {
            rungs: bitrates_bps
                .iter()
                .map(|&b| Rung {
                    bitrate: Rate::from_bps(b),
                    vmaf: vmaf.score(b),
                })
                .collect(),
        })
    }

    /// Parse a ladder from a comma-separated list of Mbps values, e.g.
    /// `"0.235,0.56,1.05,1.75,3.3"` (the CLI `--ladder` format).
    pub fn parse(spec: &str, vmaf: &VmafModel) -> Result<Self, SimError> {
        let mut bps = Vec::new();
        for part in spec.split(',') {
            let mbps: f64 = part.trim().parse().map_err(|_| SimError::Parse {
                what: "ladder",
                input: spec.to_string(),
                reason: format!("{:?} is not a number", part.trim()),
            })?;
            bps.push(mbps * 1e6);
        }
        Ladder::try_from_bitrates(&bps, vmaf).map_err(|e| match e {
            SimError::InvalidConfig { reason, .. } => SimError::Parse {
                what: "ladder",
                input: spec.to_string(),
                reason,
            },
            other => other,
        })
    }

    /// A ladder similar to published streaming ladders for HD content:
    /// 235 kbps up to 16 Mbps across 9 rungs.
    pub fn hd(vmaf: &VmafModel) -> Self {
        Ladder::from_bitrates(
            &[
                235e3, 375e3, 560e3, 750e3, 1_050e3, 1_750e3, 3_000e3, 5_800e3, 16_000e3,
            ],
            vmaf,
        )
    }

    /// The lab ladder from §6: maximum bitrate 3.3 Mbps.
    pub fn lab(vmaf: &VmafModel) -> Self {
        Ladder::from_bitrates(&[235e3, 560e3, 1_050e3, 1_750e3, 3_300e3], vmaf)
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Always false: ladders are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rungs in ascending bitrate order.
    pub fn rungs(&self) -> &[Rung] {
        &self.rungs
    }

    /// Rung at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn rung(&self, idx: usize) -> Rung {
        self.rungs[idx]
    }

    /// Index of the lowest rung (always 0).
    pub fn lowest(&self) -> usize {
        0
    }

    /// Index of the highest rung.
    pub fn top(&self) -> usize {
        self.rungs.len() - 1
    }

    /// The highest bitrate in the ladder — `r` in Sammy's pace-rate rule
    /// (§4.2: pace = multiplier × highest bitrate).
    pub fn top_bitrate(&self) -> Rate {
        self.rungs[self.top()].bitrate
    }

    /// Highest rung whose bitrate is `<= limit`, or the lowest rung if none
    /// fits.
    pub fn highest_at_most(&self, limit: Rate) -> usize {
        let mut best = 0;
        for (i, r) in self.rungs.iter().enumerate() {
            if r.bitrate <= limit {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_ladder_shape() {
        let l = Ladder::hd(&VmafModel::standard());
        assert_eq!(l.len(), 9);
        assert_eq!(l.top(), 8);
        assert_eq!(l.top_bitrate(), Rate::from_mbps(16.0));
        // VMAF ascends with the ladder.
        for w in l.rungs().windows(2) {
            assert!(w[0].vmaf < w[1].vmaf);
            assert!(w[0].bitrate < w[1].bitrate);
        }
    }

    #[test]
    fn lab_ladder_max_bitrate() {
        let l = Ladder::lab(&VmafModel::standard());
        assert_eq!(l.top_bitrate(), Rate::from_mbps(3.3));
    }

    #[test]
    fn highest_at_most() {
        let l = Ladder::hd(&VmafModel::standard());
        assert_eq!(l.highest_at_most(Rate::from_bps(100_000.0)), 0);
        assert_eq!(l.highest_at_most(Rate::from_bps(600_000.0)), 2);
        assert_eq!(l.highest_at_most(Rate::from_mbps(100.0)), l.top());
        // Exactly at a rung.
        assert_eq!(l.highest_at_most(Rate::from_bps(560_000.0)), 2);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_panics() {
        Ladder::from_bitrates(&[1e6, 1e6], &VmafModel::standard());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_panics() {
        Ladder::from_bitrates(&[], &VmafModel::standard());
    }

    #[test]
    fn try_from_bitrates_rejects_bad_input() {
        let v = VmafModel::standard();
        assert!(Ladder::try_from_bitrates(&[], &v).is_err());
        assert!(Ladder::try_from_bitrates(&[1e6, 1e6], &v).is_err());
        assert!(Ladder::try_from_bitrates(&[-1e6, 1e6], &v).is_err());
        assert!(Ladder::try_from_bitrates(&[f64::NAN], &v).is_err());
        let rates: Vec<f64> = (1..=MAX_RUNGS + 1).map(|i| i as f64 * 1e5).collect();
        assert!(Ladder::try_from_bitrates(&rates[..MAX_RUNGS], &v).is_ok());
        assert!(Ladder::try_from_bitrates(&rates, &v).is_err());
        let ok = Ladder::try_from_bitrates(&[1e6, 2e6], &v).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn parse_accepts_cli_spec() {
        let v = VmafModel::standard();
        let l = Ladder::parse("0.235, 0.56, 1.05, 1.75, 3.3", &v).unwrap();
        assert_eq!(l.len(), 5);
        assert_eq!(l.top_bitrate(), Rate::from_mbps(3.3));
        assert!(Ladder::parse("1,x,3", &v).is_err());
        assert!(Ladder::parse("", &v).is_err());
        let err = Ladder::parse("3,2,1", &v).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");
    }
}
