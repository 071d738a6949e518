//! # video — the streaming substrate
//!
//! Models everything between the encoder and the screen for the Sammy
//! reproduction:
//!
//! - [`VmafModel`]: monotone concave bitrate → perceptual-quality curve
//!   standing in for VMAF (the experiments only consume per-rung scores).
//! - [`Ladder`] / [`Rung`]: encoding ladders, including the paper's lab
//!   ladder with a 3.3 Mbps top bitrate (§6).
//! - [`Title`] / [`Chunk`] / [`Lookahead`]: chunked titles with seeded VBR
//!   size wobble.
//! - [`PlaybackBuffer`]: the client buffer obeying the update equation of
//!   Appendix A.
//! - [`Abr`] + [`AbrContext`] / [`AbrDecision`]: the joint bitrate +
//!   pace-rate interface Sammy plugs into.
//! - [`Player`]: a sans-IO player state machine (startup → playing →
//!   rebuffering → ended) producing [`ChunkRequest`]s and QoE accounting.
//! - [`QoeAccumulator`] / [`QoeSummary`]: play delay, rebuffers,
//!   time-weighted VMAF, initial VMAF (first 20 s), average bitrate.
//! - [`ThroughputHistory`]: chunk throughput measurements and the
//!   estimators ABR algorithms consume.
//! - [`VideoClientEndpoint`]: the packet-level client on netsim, speaking
//!   requests with an application-informed pacing header to a
//!   [`transport::SenderEndpoint`] server.

#![warn(missing_docs)]

pub mod abr_api;
pub mod buffer;
pub mod history;
pub mod ladder;
pub mod netclient;
pub mod player;
pub mod qoe;
pub mod title;
pub mod vmaf;

pub use abr_api::{Abr, AbrContext, AbrDecision, FixedRung, PlayerPhase};
pub use buffer::PlaybackBuffer;
pub use history::{ChunkMeasurement, ThroughputHistory};
pub use ladder::{Ladder, Rung};
pub use netclient::VideoClientEndpoint;
pub use player::{ChunkRequest, Player, PlayerConfig, PlayerState};
pub use qoe::{QoeAccumulator, QoeSummary};
pub use title::{Chunk, Lookahead, Title, TitleConfig};
pub use vmaf::VmafModel;
