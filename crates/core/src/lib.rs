//! # sammy-core — the paper's primary contribution
//!
//! This crate implements Sammy, the joint ABR bitrate + pace-rate selection
//! scheme of *"Sammy: smoothing video traffic to be a friendly internet
//! neighbor"* (SIGCOMM 2023):
//!
//! - [`Sammy`]: Algorithm 1 — initial-phase selection from initial-only
//!   historical throughput (unpaced), playing-phase selection by a
//!   pacing-aware ABR plus the buffer-interpolated pace multiplier.
//! - [`PaceSelector`]: the `c1·B̂ + c0·(1−B̂)` multiplier of the top ladder
//!   bitrate, with a validator against the Eq. 1 threshold.
//! - [`analysis`]: the Appendix A buffer-evolution identity (Theorem A.1),
//!   its corollaries, and the Fig 2 threshold curves.
//! - [`NaivePacedAbr`]: the §5.5 "constant 4x on everything" baseline that
//!   degrades QoE. (Table 1's other mechanisms — cwnd cap, token bucket —
//!   are pacer burst sizes, read off the Fig 4 sweep in `sammy-bench`.)

#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod pace;
pub mod sammy;

pub use baseline::NaivePacedAbr;
pub use pace::PaceSelector;
pub use sammy::{Sammy, SammyConfig};
