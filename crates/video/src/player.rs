//! The video player state machine.
//!
//! [`Player`] is substrate-independent ("sans-IO"): it never touches the
//! network. A driver (the netsim client endpoint, or the fluid simulator)
//! feeds it time and completed downloads; the player answers with chunk
//! requests carrying the ABR's joint bitrate + pace-rate decision.
//!
//! Lifecycle: the session starts in the *initial phase*, downloading chunks
//! until the startup buffer threshold is reached, at which point playback
//! begins (play delay ends). During the *playing phase* the buffer drains
//! in real time; if it empties, the player rebuffers until the resume
//! threshold is rebuilt. The player requests the next chunk whenever no
//! download is in flight and the buffer has room — the buffer-capacity gate
//! is what produces the on-off traffic pattern of Fig 1a.

use crate::abr_api::{Abr, AbrContext, AbrDecision, PlayerPhase};
use crate::buffer::PlaybackBuffer;
use crate::history::{ChunkMeasurement, ThroughputHistory};
use crate::qoe::{QoeAccumulator, QoeSummary};
use crate::title::Title;
use netsim::{Rate, SimDuration, SimTime};
use std::sync::Arc;

/// Player configuration.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// Buffer needed before playback starts (the startup threshold).
    pub start_threshold: SimDuration,
    /// Buffer needed to resume after a rebuffer.
    pub resume_threshold: SimDuration,
    /// Buffer capacity.
    pub max_buffer: SimDuration,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            start_threshold: SimDuration::from_secs(4),
            resume_threshold: SimDuration::from_secs(4),
            max_buffer: SimDuration::from_secs(240),
        }
    }
}

/// Player state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerState {
    /// Building the startup buffer; playback has not begun.
    Startup,
    /// Playing back content.
    Playing,
    /// Stalled: buffer ran dry during playback.
    Rebuffering,
    /// All content played.
    Ended,
}

/// A chunk request produced by the player for its driver to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRequest {
    /// Chunk index within the title.
    pub index: usize,
    /// Ladder rung to fetch.
    pub rung: usize,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Pace rate for application-informed pacing (`None` = unpaced).
    pub pace: Option<Rate>,
}

/// The sans-IO player.
pub struct Player {
    cfg: PlayerConfig,
    title: Arc<Title>,
    abr: Box<dyn Abr>,

    state: PlayerState,
    buffer: PlaybackBuffer,
    /// Next chunk index to request.
    next_index: usize,
    /// Chunks fully downloaded (and therefore enqueued for playback).
    downloaded: usize,
    /// In-flight request, if any.
    in_flight: Option<ChunkRequest>,
    last_rung: Option<usize>,
    /// Last time playback state was advanced.
    last_advance: SimTime,

    history: ThroughputHistory,
    qoe: QoeAccumulator,
    /// Total content committed to the buffer (validate feature): conserved
    /// as played + buffered.
    #[cfg(feature = "validate")]
    committed: SimDuration,
    /// Total content drained from the buffer (validate feature).
    #[cfg(feature = "validate")]
    played_total: SimDuration,
    /// Session start: anchors the play-delay span (telemetry).
    session_start: SimTime,
    /// Open stall start: anchors the rebuffer span (telemetry).
    rebuffer_started: Option<SimTime>,
}

impl Player {
    /// Create a player for `title` driven by `abr`, starting at `now`.
    pub fn new(title: Arc<Title>, abr: Box<dyn Abr>, cfg: PlayerConfig, now: SimTime) -> Self {
        assert!(cfg.start_threshold <= cfg.max_buffer);
        assert!(cfg.resume_threshold <= cfg.max_buffer);
        Player {
            buffer: PlaybackBuffer::new(cfg.max_buffer),
            cfg,
            title,
            abr,
            state: PlayerState::Startup,
            next_index: 0,
            downloaded: 0,
            in_flight: None,
            last_rung: None,
            last_advance: now,
            history: ThroughputHistory::new(),
            qoe: QoeAccumulator::new(now),
            #[cfg(feature = "validate")]
            committed: SimDuration::ZERO,
            #[cfg(feature = "validate")]
            played_total: SimDuration::ZERO,
            session_start: now,
            rebuffer_started: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> PlayerState {
        self.state
    }

    /// Current buffer level.
    pub fn buffer_level(&self) -> SimDuration {
        self.buffer.level()
    }

    /// The phase as seen by ABR algorithms.
    pub fn phase(&self) -> PlayerPhase {
        match self.state {
            PlayerState::Startup => PlayerPhase::Initial,
            _ => PlayerPhase::Playing,
        }
    }

    /// Throughput history observed so far.
    pub fn history(&self) -> &ThroughputHistory {
        &self.history
    }

    /// The title being played.
    pub fn title(&self) -> &Title {
        &self.title
    }

    /// QoE summary so far (call after [`Player::state`] is `Ended` for the
    /// full-session summary). If a stall is still open — the driver stopped
    /// the trace mid-rebuffer without [`Player::abandon`] — its duration up
    /// to the last [`Player::advance_to`] is included in `rebuffer_time`.
    pub fn qoe(&self) -> QoeSummary {
        self.qoe.summary_at(self.last_advance)
    }

    /// Advance playback to `now`: drain the buffer, detect rebuffers and
    /// session end. Must be called with nondecreasing `now`; drivers call it
    /// before any interaction.
    pub fn advance_to(&mut self, now: SimTime) {
        netsim::invariant!(
            "player-buffer-conservation",
            now >= self.last_advance,
            "player clock ran backwards: {:?} before {:?}",
            now,
            self.last_advance
        );
        self.check_conservation();
        let elapsed = now.saturating_since(self.last_advance);
        self.last_advance = now;
        if elapsed.is_zero() {
            return;
        }
        match self.state {
            PlayerState::Playing => {
                let played = self.buffer.drain(elapsed);
                #[cfg(feature = "validate")]
                {
                    self.played_total += played;
                }
                self.qoe.on_played(played);
                if self.all_content_played() {
                    self.state = PlayerState::Ended;
                    self.qoe.on_end(now);
                } else if played < elapsed && self.buffer.is_empty() {
                    // Ran dry mid-interval: a rebuffer started at the moment
                    // the buffer emptied.
                    let stall_start = now - (elapsed - played);
                    self.state = PlayerState::Rebuffering;
                    self.qoe.on_rebuffer_start(stall_start);
                    obs::counter!("video.rebuffers", 1);
                    obs::trace_event!(
                        RebufferStart,
                        stall_start.as_nanos(),
                        self.next_index as u64,
                        0
                    );
                    self.rebuffer_started = Some(stall_start);
                }
            }
            PlayerState::Startup | PlayerState::Rebuffering | PlayerState::Ended => {}
        }
    }

    /// Whether a new chunk request should be issued now. If yes, returns
    /// the request (recording the decision); the driver must deliver it and
    /// later call [`Player::on_chunk_complete`].
    pub fn poll_request(&mut self, now: SimTime) -> Option<ChunkRequest> {
        self.advance_to(now);
        if self.in_flight.is_some()
            || self.state == PlayerState::Ended
            || self.next_index >= self.title.len()
        {
            return None;
        }
        let chunk_dur = self.title.chunk_duration();
        if !self.buffer.has_room_for(chunk_dur) {
            return None;
        }
        let decision = self.select(now);
        let spec = self.title.chunk(self.next_index);
        let req = ChunkRequest {
            index: spec.index(),
            rung: decision.rung,
            bytes: spec.size(decision.rung),
            pace: decision.pace,
        };
        self.in_flight = Some(req);
        Some(req)
    }

    fn select(&mut self, now: SimTime) -> AbrDecision {
        let ctx = AbrContext {
            now,
            phase: self.phase(),
            buffer: self.buffer.level(),
            max_buffer: self.cfg.max_buffer,
            ladder: &self.title.ladder,
            upcoming: self.title.upcoming(self.next_index),
            history: &self.history,
            last_rung: self.last_rung,
        };
        let d = self.abr.select(&ctx);
        assert!(
            d.rung < self.title.ladder.len(),
            "ABR chose an invalid rung"
        );
        d
    }

    /// The driver reports that the in-flight chunk finished downloading.
    pub fn on_chunk_complete(&mut self, now: SimTime, download_time: SimDuration) {
        self.advance_to(now);
        let req = self
            .in_flight
            .take()
            .expect("chunk completion with no request in flight");

        let m = ChunkMeasurement {
            index: req.index,
            rung: req.rung,
            bytes: req.bytes,
            download_time,
            completed_at: now,
        };
        self.history.record(m);
        self.abr.on_chunk_downloaded(&m);

        let spec = self.title.chunk(req.index);
        self.buffer.add_chunk(spec.duration());
        #[cfg(feature = "validate")]
        {
            self.committed += spec.duration();
        }
        self.check_conservation();
        self.qoe.on_chunk(
            spec.duration(),
            spec.vmaf(req.rung),
            spec.actual_bitrate(req.rung),
        );
        obs::observe!("video.buffer_level_s", self.buffer.level().as_secs_f64());
        if let Some(prev) = self.last_rung {
            if prev != req.rung {
                self.qoe.on_quality_switch();
                obs::counter!("video.rung_switches", 1);
                obs::trace_event!(RungSwitch, now.as_nanos(), prev as u64, req.rung as u64);
            }
        }
        self.last_rung = Some(req.rung);
        self.next_index += 1;
        self.downloaded += 1;

        // State transitions driven by buffer growth.
        match self.state {
            PlayerState::Startup => {
                if self.buffer.level() >= self.cfg.start_threshold
                    || self.next_index >= self.title.len()
                {
                    self.state = PlayerState::Playing;
                    self.qoe.on_playback_start(now);
                    let delay = now.saturating_since(self.session_start);
                    obs::observe!("video.play_delay_s", delay.as_secs_f64());
                }
            }
            PlayerState::Rebuffering => {
                if self.buffer.level() >= self.cfg.resume_threshold
                    || self.next_index >= self.title.len()
                {
                    self.state = PlayerState::Playing;
                    self.qoe.on_rebuffer_end(now);
                    if let Some(start) = self.rebuffer_started.take() {
                        let stall = now.saturating_since(start);
                        obs::observe!("video.rebuffer_s", stall.as_secs_f64());
                        obs::trace_event!(
                            RebufferEnd,
                            now.as_nanos(),
                            stall.as_nanos() / 1_000_000,
                            0
                        );
                    }
                }
            }
            PlayerState::Playing | PlayerState::Ended => {}
        }
    }

    /// When the player next needs attention, given no network events: the
    /// time the buffer will run dry (rebuffer detection), the time room for
    /// the next chunk opens up, or the end of playback. `None` if nothing
    /// is scheduled (e.g. waiting on a download).
    pub fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        match self.state {
            PlayerState::Playing => {
                let mut deadline = now + self.buffer.time_to_empty();
                if self.in_flight.is_none() && self.next_index < self.title.len() {
                    let dur = self.title.chunk_duration();
                    deadline = deadline.min(now + self.buffer.time_until_room(dur));
                }
                Some(deadline)
            }
            _ => None,
        }
    }

    fn all_content_played(&self) -> bool {
        self.next_index >= self.title.len() && self.buffer.is_empty()
    }

    /// Buffer conservation (validate feature): every second of content
    /// committed to the playback buffer is either still buffered or was
    /// played. A drain that skips accounting (the "negative buffer" class
    /// of bug — more played than was ever downloaded) breaks the ledger.
    #[cfg(feature = "validate")]
    fn check_conservation(&self) {
        netsim::invariant!(
            "player-buffer-conservation",
            self.committed == self.played_total + self.buffer.level(),
            "committed {:?} != played {:?} + buffered {:?}",
            self.committed,
            self.played_total,
            self.buffer.level()
        );
    }

    #[cfg(not(feature = "validate"))]
    #[inline(always)]
    fn check_conservation(&self) {}

    /// Mutant mode: drain a second of content without crediting playback —
    /// the buffer under-runs relative to its ledger. Must trip
    /// `player-buffer-conservation` on the next interaction.
    #[cfg(feature = "validate")]
    pub fn mutant_negative_buffer(&mut self) {
        let _ = self.buffer.drain(SimDuration::from_secs(1));
    }

    /// End the session early (user abandons). Finalizes QoE accounting.
    pub fn abandon(&mut self, now: SimTime) {
        self.advance_to(now);
        if self.state != PlayerState::Ended {
            self.state = PlayerState::Ended;
            self.qoe.on_end(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr_api::FixedRung;
    use crate::ladder::Ladder;
    use crate::title::{Title, TitleConfig};
    use crate::vmaf::VmafModel;

    fn short_title() -> Arc<Title> {
        Arc::new(Title::generate(
            Ladder::lab(&VmafModel::standard()),
            &TitleConfig {
                duration: SimDuration::from_secs(60),
                size_cv: 0.0,
                vmaf_sd: 0.0,
                seed: 0,
            },
        ))
    }

    fn player(cfg: PlayerConfig) -> Player {
        Player::new(short_title(), Box::new(FixedRung(2)), cfg, SimTime::ZERO)
    }

    /// Drive the player through a fixed-throughput network.
    fn run_session(mut p: Player, rate_bps: f64) -> Player {
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            if p.state() == PlayerState::Ended {
                break;
            }
            if let Some(req) = p.poll_request(now) {
                let dl = SimDuration::from_secs_f64(req.bytes as f64 * 8.0 / rate_bps);
                now += dl;
                p.on_chunk_complete(now, dl);
            } else if let Some(d) = p.next_deadline(now) {
                now = d.max(now + SimDuration::from_millis(1));
                p.advance_to(now);
            } else {
                now += SimDuration::from_millis(100);
                p.advance_to(now);
            }
        }
        p
    }

    #[test]
    fn startup_then_play_to_end() {
        // Fast network: no rebuffers, tiny play delay.
        let p = run_session(player(PlayerConfig::default()), 50e6);
        assert_eq!(p.state(), PlayerState::Ended);
        let q = p.qoe();
        assert_eq!(q.rebuffer_count, 0);
        assert!(q.play_delay.unwrap() < SimDuration::from_secs(1));
        // All 15 chunks played: 60 s of content.
        assert_eq!(q.played, SimDuration::from_secs(60));
    }

    #[test]
    fn slow_network_rebuffers() {
        // Rung 2 = 1.05 Mbps; network at 0.9 Mbps cannot keep up.
        let p = run_session(player(PlayerConfig::default()), 0.9e6);
        let q = p.qoe();
        assert!(
            q.rebuffer_count > 0,
            "must rebuffer on an underprovisioned link"
        );
        assert!(q.rebuffer_time > SimDuration::ZERO);
        // Content still eventually plays out fully.
        assert_eq!(q.played, SimDuration::from_secs(60));
    }

    #[test]
    fn play_delay_counts_startup_buffering() {
        // 1.05 Mbps rung, 4 s chunks => 525 kB/chunk; at 2.1 Mbps each takes
        // 2 s. Start threshold 4 s = 1 chunk... default is 4 s so one chunk
        // reaches it: play delay = one chunk download = 2 s.
        let p = run_session(player(PlayerConfig::default()), 2.1e6);
        let q = p.qoe();
        let pd = q.play_delay.unwrap().as_secs_f64();
        assert!((pd - 2.0).abs() < 0.1, "play delay {pd}");
    }

    #[test]
    fn buffer_cap_gates_requests() {
        let cfg = PlayerConfig {
            max_buffer: SimDuration::from_secs(8),
            start_threshold: SimDuration::from_secs(4),
            resume_threshold: SimDuration::from_secs(4),
        };
        let mut p = player(cfg);
        let mut now = SimTime::ZERO;
        // Download two chunks instantly-ish: buffer = 8 s = max.
        for _ in 0..2 {
            let req = p.poll_request(now).expect("request expected");
            now += SimDuration::from_millis(10);
            p.on_chunk_complete(now, SimDuration::from_millis(10));
            let _ = req;
        }
        // No room: poll must return None (the off period).
        assert!(p.poll_request(now).is_none());
        // Room opens after ~4 s of playback (minus the 10 ms already played
        // between the first chunk's arrival and the second's).
        let deadline = p.next_deadline(now).expect("deadline for room");
        assert_eq!(
            deadline.saturating_since(now),
            SimDuration::from_secs(4) - SimDuration::from_millis(10)
        );
        now = deadline;
        assert!(p.poll_request(now).is_some());
    }

    #[test]
    fn ended_after_all_chunks_played() {
        let mut p = player(PlayerConfig::default());
        let mut now = SimTime::ZERO;
        while p.state() != PlayerState::Ended {
            if let Some(req) = p.poll_request(now) {
                let _ = req;
                now += SimDuration::from_millis(1);
                p.on_chunk_complete(now, SimDuration::from_millis(1));
            } else {
                now += SimDuration::from_secs(1);
                p.advance_to(now);
            }
        }
        // 15 chunks * 4 s: playback ends roughly 60 s after start.
        assert!(now.as_secs_f64() >= 60.0 && now.as_secs_f64() < 62.0);
    }

    /// Regression: stop a trace mid-stall (no `abandon`) and ask for QoE.
    /// The open stall must be counted up to the last `advance_to`, not
    /// dropped. Pre-fix this reported `rebuffer_time == 0`.
    #[test]
    fn open_stall_at_trace_end_counted() {
        let mut p = player(PlayerConfig::default());
        let mut now = SimTime::ZERO;
        // Download exactly enough to start playback (4 s threshold = 1 chunk).
        let _ = p.poll_request(now).expect("first request");
        now += SimDuration::from_millis(10);
        p.on_chunk_complete(now, SimDuration::from_millis(10));
        p.advance_to(now + SimDuration::from_millis(1));
        assert_eq!(p.state(), PlayerState::Playing);
        // Let the 4 s buffer run dry and keep stalling for 6 more seconds.
        p.advance_to(now + SimDuration::from_secs(10));
        assert_eq!(p.state(), PlayerState::Rebuffering);
        let q = p.qoe();
        assert_eq!(q.rebuffer_count, 1);
        let stalled = q.rebuffer_time.as_secs_f64();
        assert!(
            (stalled - 6.0).abs() < 0.1,
            "open stall must count to trace end, got {stalled}s"
        );
        // Closing the session does not double-count the same interval.
        p.abandon(now + SimDuration::from_secs(10));
        assert_eq!(p.qoe().rebuffer_time, q.rebuffer_time);
    }

    /// The negative-buffer mutant must trip `player-buffer-conservation`
    /// (and nothing else) on the next player interaction.
    #[cfg(feature = "validate")]
    #[test]
    fn negative_buffer_mutant_trips_conservation() {
        let err = std::panic::catch_unwind(|| {
            let mut p = player(PlayerConfig::default());
            let mut now = SimTime::ZERO;
            let _ = p.poll_request(now).expect("first request");
            now += SimDuration::from_millis(10);
            p.on_chunk_complete(now, SimDuration::from_millis(10));
            p.mutant_negative_buffer();
            p.advance_to(now + SimDuration::from_millis(1));
        })
        .expect_err("mutant must trip the invariant");
        let msg = netsim::invariants::panic_message(&*err);
        assert!(
            msg.starts_with(&netsim::invariants::violation_tag(
                "player-buffer-conservation"
            )),
            "wrong invariant: {msg}"
        );
    }

    #[test]
    fn abandon_finalizes() {
        let mut p = player(PlayerConfig::default());
        let now = SimTime::from_secs(1);
        p.abandon(now);
        assert_eq!(p.state(), PlayerState::Ended);
        // Never started playing: no play delay recorded.
        assert_eq!(p.qoe().play_delay, None);
    }

    #[test]
    fn no_request_while_in_flight() {
        let mut p = player(PlayerConfig::default());
        assert!(p.poll_request(SimTime::ZERO).is_some());
        assert!(p.poll_request(SimTime::ZERO).is_none());
    }

    #[test]
    fn measurements_feed_history() {
        let mut p = player(PlayerConfig::default());
        let _ = p.poll_request(SimTime::ZERO).unwrap();
        p.on_chunk_complete(SimTime::from_secs(1), SimDuration::from_secs(1));
        assert_eq!(p.history().len(), 1);
        let m = p.history().last().unwrap();
        assert_eq!(m.index, 0);
        assert!(m.throughput().bps() > 0.0);
    }
}
