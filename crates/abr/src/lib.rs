//! # abr — adaptive-bitrate algorithms
//!
//! Implementations of the ABR algorithms the paper builds on, analyzes, or
//! compares against, all behind the [`video::Abr`] trait:
//!
//! - [`Hyb`]: throughput-based ABR with lookahead (§4.2's analyzed
//!   example), plus the closed-form selection rule
//!   ([`hyb_max_bitrate_bps`]) and minimum-throughput corollary
//!   ([`hyb_min_throughput_bps`], Eq. 1 / Fig 2).
//! - [`Mpc`]: lookahead QoE-utility maximization — the stand-in for the
//!   proprietary MPC-style production algorithm (§4.3).
//! - [`NaiveThroughputRule`]: the dash.js-style `bitrate ≤ c · min(x)` rule
//!   used to demonstrate the black-box downward spiral (§2.3.1).
//! - [`ProductionAbr`]: historical-throughput initial-phase selection
//!   wrapped around a playing-phase algorithm, with the history update
//!   [`HistoryPolicy`] that §4.1 and §5.7 turn on.

#![warn(missing_docs)]

pub mod hyb;
pub mod initial;
pub mod mpc;
pub mod naive;

pub use hyb::{hyb_max_bitrate_bps, hyb_min_throughput_bps, Hyb};
pub use initial::{
    initial_rung_for, shared_history, HistoryPolicy, HistoryStore, InitialSelectorConfig,
    ProductionAbr, SharedHistory,
};
pub use mpc::Mpc;
pub use naive::NaiveThroughputRule;
