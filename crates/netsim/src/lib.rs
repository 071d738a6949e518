//! # netsim — a deterministic discrete-event packet network simulator
//!
//! This crate is the network substrate for the Sammy reproduction. It models
//! nodes, unidirectional links whose queues run one of five disciplines
//! (drop-tail by default), MTU-sized packets, and endpoint protocol logic
//! driven by an event loop with exact integer-nanosecond time. Runs are
//! fully deterministic: events are ordered by `(time, insertion sequence)`
//! and there is no wall-clock or unseeded randomness anywhere.
//!
//! The design follows the event-driven, no-surprises style of embedded TCP/IP
//! stacks: protocol state machines are plain structs that react to packets
//! and timers, and all I/O is explicit.
//!
//! ## Layout
//! - [`time`]: [`SimTime`] / [`SimDuration`] integer-nanosecond time.
//! - [`units`]: [`Rate`] (bits/sec) and packet-size constants.
//! - [`packet`]: [`Packet`] and the neutral [`Payload`] wire format.
//! - [`queue`]: the link [`Queue`]: one byte ledger under a [`Discipline`].
//! - [`aqm`]: RED and CoDel active queue management.
//! - [`fq`]: deficit-round-robin per-flow fair queuing.
//! - [`shaper`]: token-bucket ISP rate shaping (non-work-conserving).
//! - [`link`]: serialization + propagation delay model.
//! - [`engine`]: the event loop, [`Simulator`], and the [`Endpoint`] trait.
//! - [`topology`]: the one topology builder, the shared CDN/ISP/access path;
//!   the lab dumbbell is its one-session view.
//! - [`trace`]: throughput/gauge recorders for the figures.
//!
//! ## Example
//! ```
//! use netsim::prelude::*;
//!
//! let mut sim = Simulator::new();
//! let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
//! let pkt = Packet::new(db.left[0], db.right[0], FlowId(1), Payload::Datagram { seq: 0 })
//!     .with_size(1500);
//! sim.inject(db.left[0], pkt);
//! sim.run_to_completion();
//! assert_eq!(sim.flow_stats(FlowId(1)).delivered_packets, 1);
//! ```

#![warn(missing_docs)]

pub mod aqm;
pub mod engine;
pub mod error;
pub mod fq;
pub mod invariants;
pub mod link;
pub mod packet;
pub mod queue;
pub mod shaper;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

pub use aqm::{CoDelConfig, RedConfig};
pub use engine::{BudgetExceeded, Endpoint, FlowStats, NodeCtx, Simulator};
pub use error::SimError;
pub use fq::DrrConfig;
pub use link::{Link, LinkConfig};
pub use packet::{FlowId, LinkId, NodeId, Packet, PacketId, PacketRef, PacketStore, Payload};
pub use queue::{Dequeue, Discipline, EnqueueResult, Queue, QueueStats};
pub use shaper::TokenBucketConfig;
pub use time::{SimDuration, SimTime};
pub use topology::{Dumbbell, DumbbellConfig, SharedTopology, SharedTopologyConfig};
pub use trace::{BinnedThroughput, GaugeSeries};
pub use units::{Rate, HEADER_BYTES, MSS_BYTES, MTU_BYTES};

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::engine::{Endpoint, NodeCtx, Simulator};
    pub use crate::error::SimError;
    pub use crate::link::LinkConfig;
    pub use crate::packet::{FlowId, LinkId, NodeId, Packet, PacketId, PacketRef, Payload};
    pub use crate::queue::{Discipline, Queue};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Dumbbell, DumbbellConfig, SharedTopology, SharedTopologyConfig};
    pub use crate::trace::{BinnedThroughput, GaugeSeries};
    pub use crate::units::{Rate, HEADER_BYTES, MSS_BYTES, MTU_BYTES};
}
