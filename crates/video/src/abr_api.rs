//! The ABR interface.
//!
//! The player asks an [`Abr`] for a joint decision per chunk: which ladder
//! rung to download and what pace rate (if any) to request from the server.
//! Conventional ABR algorithms leave `pace` as `None` (congestion control
//! picks the throughput); Sammy fills it in (§4).

use crate::history::{ChunkMeasurement, ThroughputHistory};
use crate::ladder::Ladder;
use crate::title::Lookahead;
use netsim::{Rate, SimDuration, SimTime};

/// Which phase the player is in (§4: the initial phase is before playback
/// starts; QoE goals differ between the phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerPhase {
    /// Before playback starts: building the startup buffer.
    Initial,
    /// Playback underway (including rebuffering).
    Playing,
}

/// Everything an ABR algorithm may consult when selecting a chunk.
pub struct AbrContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Player phase.
    pub phase: PlayerPhase,
    /// Current playback buffer level.
    pub buffer: SimDuration,
    /// Buffer capacity.
    pub max_buffer: SimDuration,
    /// The title's ladder.
    pub ladder: &'a Ladder,
    /// Upcoming chunks starting with the one being selected (lookahead).
    pub upcoming: Lookahead<'a>,
    /// Throughput measurements observed this session.
    pub history: &'a ThroughputHistory,
    /// Rung of the previously selected chunk, if any.
    pub last_rung: Option<usize>,
}

/// A joint bitrate + pace-rate decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbrDecision {
    /// Ladder rung to download.
    pub rung: usize,
    /// Pace rate to request via application-informed pacing; `None` leaves
    /// the transfer unpaced.
    pub pace: Option<Rate>,
}

impl AbrDecision {
    /// An unpaced decision for `rung`.
    pub fn unpaced(rung: usize) -> Self {
        AbrDecision { rung, pace: None }
    }
}

/// An adaptive-bitrate algorithm (possibly pacing-aware).
///
/// `Send` is a supertrait so a whole session stack (player + ABR + shared
/// history) can move across threads: the experiment runner shards users
/// over a worker pool and each worker owns the sessions it runs.
pub trait Abr: Send {
    /// Select the rung and pace rate for the next chunk.
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision;

    /// Observe a completed download (throughput sample). Algorithms with
    /// internal state (estimators, historical stores) update here.
    fn on_chunk_downloaded(&mut self, _m: &ChunkMeasurement) {}

    /// Name for reporting.
    fn name(&self) -> &'static str;
}

/// A fixed-rung ABR for tests and calibration runs.
#[derive(Debug, Clone, Copy)]
pub struct FixedRung(
    /// The rung to always select.
    pub usize,
);

impl Abr for FixedRung {
    fn select(&mut self, _ctx: &AbrContext<'_>) -> AbrDecision {
        AbrDecision::unpaced(self.0)
    }

    fn name(&self) -> &'static str {
        "fixed-rung"
    }
}
