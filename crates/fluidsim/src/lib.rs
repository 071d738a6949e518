//! # fluidsim — chunk-level fluid simulation for A/B-scale experiments
//!
//! The paper's production results (Tables 2–3, Figs 3, 5, 6) are medians
//! over many thousands of user sessions. Packet-level simulation of that
//! fleet is unnecessary: every reported metric is a function of per-chunk
//! interactions between the pace rate, the user's available bandwidth, and
//! the bottleneck queue. This crate models those interactions in closed
//! form per chunk:
//!
//! - [`NetworkProfile`]: per-user capacity, base RTT, bufferbloat depth,
//!   ambient and self-inflicted loss.
//! - [`download_chunk`]: effective-rate + slow-start-ramp download-time
//!   model with congestion side effects.
//! - [`SessionBuilder`]: drives a [`video::Player`] end-to-end and reports
//!   [`SessionOutcome`] — QoE plus the congestion triple (chunk
//!   throughput, retransmit fraction, median RTT) of §5.1. Its startup
//!   buffer threshold adapts to the session's throughput estimate, so an
//!   accurate initial estimate improves both initial quality and play
//!   delay (§5.4).
//!
//! Lab experiments (Figs 1, 4, 7, 8) use the packet-level `netsim` +
//! `transport` stack instead; this crate is calibrated against it (see
//! `tests/fluid_vs_packet.rs` at the workspace root).

#![warn(missing_docs)]

pub mod network;
pub mod session;

pub use network::{download_chunk, jitter_stream, ChunkOutcome, NetworkProfile};
pub use session::{SessionBuilder, SessionOutcome};
