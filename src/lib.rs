//! Umbrella crate for the Sammy reproduction.
//!
//! Re-exports the public surface of every crate in the workspace so that the
//! examples and integration tests can use a single import root. Most programs
//! want [`prelude`] instead of the per-crate roots.

pub use abr;
pub use abtest;
pub use fluidsim;
pub use netsim;
pub use obs;
pub use sammy_bench;
pub use sammy_core;
pub use sammy_serve;
pub use spec;
pub use tdigest;
pub use traffic;
pub use transport;
pub use video;

/// The types most programs need, under one import.
///
/// ```
/// use sammy_repro::prelude::*;
///
/// let cfg = ExperimentConfig {
///     users_per_arm: 4,
///     ..Default::default()
/// };
/// let run = Experiment::builder().config(cfg).run_streaming().unwrap();
/// assert_eq!(run.state.control_sessions, run.state.treatment_sessions);
/// ```
pub mod prelude {
    pub use abtest::{
        user_at, Arm, Experiment, ExperimentBuilder, ExperimentConfig, PopulationConfig,
        StreamReport, StreamRun, UserProfile,
    };
    pub use fluidsim::{NetworkProfile, SessionBuilder, SessionOutcome};
    pub use netsim::{Rate, SimDuration, SimError, SimTime};
    pub use obs::Registry;
    pub use spec::{ArmSpec, ExperimentSpec, GuardSpec, NetworkSpec, SearchSpec, TransportSpec};
    pub use video::{Ladder, Title, TitleConfig, VmafModel};
}
