//! # abtest — the production A/B-experiment harness
//!
//! Reproduces the methodology of the paper's §5 evaluation on the fluid
//! simulator:
//!
//! - [`population`]: heavy-tailed user network profiles spanning the Fig 3
//!   throughput buckets, per-title ladders — one generator, [`user_at`],
//!   user `i` of `(config, seed)` in O(1).
//! - [`experiment`]: arms ([`Arm::Production`], [`Arm::Sammy`],
//!   [`Arm::InitialOnly`], [`Arm::NaivePaced`], and Fig 6's
//!   [`Arm::HistoryReset`]), the pre-experiment phase that builds history
//!   and pre-experiment p95 throughput, the session loop, and the row
//!   tables a report folds ([`METRICS`] for Tables 2/3, [`BUCKET_METRICS`]
//!   for Fig 3, [`DAY_METRICS`] for Fig 6's days).
//! - [`streaming`]: the one runner, a shard-merge fold — million-user
//!   arms at O(threads) memory, users derived per index,
//!   checkpoint/resume that is bit-identical to an uninterrupted run, and
//!   [`StreamReport`]: digest medians and a paired-mean bootstrap CI.
//! - [`stats`]: percentiles, percent changes, mergeable summaries.
//! - [`sweep`]: the (c0, c1) grid behind Fig 5's VMAF-vs-throughput
//!   tradeoff, and the one Production-vs-Sammy(c0, c1) evaluation.
//! - [`optimize`]: the §5.3 parameter-search loop (the Ax analogue):
//!   successive halving over a [`spec::SearchSpec`] under its QoE guards,
//!   every evaluation the sweep's.
//! - [`pool`]: the one index-ordered worker pool under all of the above.

#![warn(missing_docs)]

pub mod experiment;
pub mod optimize;
pub mod pool;
pub mod population;
pub mod stats;
pub mod streaming;
pub mod sweep;

pub use experiment::{
    population_config_from_spec, run_user, Arm, Experiment, ExperimentBuilder, ExperimentConfig,
    MetricExtractor, MetricTable, SessionRecord, BUCKET_METRICS, DAY_METRICS, METRICS,
};
pub use optimize::{halving_search, halving_search_with, Candidate, Evaluation, HalvingOutcome};
pub use population::{bucket_label, bucket_of, user_at, PopulationConfig, UserProfile};
pub use stats::{percentile, Aggregate, PairedDelta, StreamingStat};
pub use streaming::{
    MetricAcc, ShardState, StreamConfig, StreamFailure, StreamReport, StreamRow, StreamRun,
};
pub use sweep::{default_grid, run_sweep, SweepPoint};
