//! The TCP wire half: a NewReno byte stream.
//!
//! [`TcpWire`] splits one byte stream into application *transfers* (video
//! chunks, HTTP responses) and implements what is TCP about sending them:
//!
//! - the `snd_una / snd_nxt / stream_end` sequence space and MSS framing,
//! - cumulative-ACK parsing and duplicate-ACK counting,
//! - NewReno loss detection and recovery: fast retransmit on the third
//!   duplicate ACK, one hole per partial ACK, go-back-N after an RTO.
//!
//! *When* a segment may leave — the congestion window's pacing, the
//! application-informed pace rate (§3.2 of the paper), timer backoff, idle
//! restart — and all telemetry live in [`SenderCore`], shared with QUIC.
//! [`TcpSender`] is the two joined.

use crate::core::{CompletedTransfer, Frame, Sender, SenderCore, TcpConfig, Wire};
use netsim::{Packet, Payload, Rate, SimTime, MSS_BYTES};
use std::collections::VecDeque;

/// NewReno TCP sender with application-informed pacing.
pub type TcpSender = Sender<TcpWire>;

/// A queued or in-progress application transfer (one chunk / response).
#[derive(Debug, Clone)]
struct Transfer {
    id: u64,
    /// Byte range [start, end) within the connection's stream.
    start: u64,
    end: u64,
    /// Pace-rate limit for this transfer (application-informed pacing).
    pace: Option<Rate>,
    /// When the transfer was queued.
    queued_at: SimTime,
    /// When its first byte entered the network.
    started_at: Option<SimTime>,
}

impl Transfer {
    fn contains(&self, offset: u64) -> bool {
        self.start <= offset && offset < self.end
    }
}

/// TCP protocol state: sequence space and NewReno recovery.
#[derive(Debug)]
pub struct TcpWire {
    send_buffer: u64,

    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Next new byte to send.
    snd_nxt: u64,
    /// Application bytes available to send (stream length so far).
    stream_end: u64,

    /// Duplicate-ACK counter.
    dup_acks: u32,
    /// If in fast recovery, recovery ends when `snd_una >= recover`.
    recover: Option<u64>,
    /// Next byte to (re)send inside the recovery hole, if any.
    retx_next: Option<u64>,
    /// Send epoch: bumped on RTO so stale ACK info can be recognized.
    round: u64,

    transfers: VecDeque<Transfer>,
    next_transfer_id: u64,
}

impl Wire for TcpWire {
    const SANITY_TAG: &'static str = "tcp-sender-sanity";

    fn new(cfg: &TcpConfig) -> Self {
        TcpWire {
            send_buffer: cfg.send_buffer,
            snd_una: 0,
            snd_nxt: 0,
            stream_end: 0,
            dup_acks: 0,
            recover: None,
            retx_next: None,
            round: 0,
            transfers: VecDeque::new(),
            next_transfer_id: 0,
        }
    }

    fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64 {
        debug_assert!(
            self.stream_end - self.snd_una + bytes <= self.send_buffer,
            "send buffer overflow"
        );
        let id = self.next_transfer_id;
        self.next_transfer_id += 1;
        let start = self.stream_end;
        self.stream_end += bytes;
        self.transfers.push_back(Transfer {
            id,
            start,
            end: self.stream_end,
            pace,
            queued_at: now,
            started_at: None,
        });
        id
    }

    fn set_pace(&mut self, id: u64, pace: Option<Rate>) -> bool {
        let snd_nxt = self.snd_nxt;
        self.transfers
            .iter_mut()
            .find(|t| t.id == id)
            .is_some_and(|t| {
                t.pace = pace;
                t.contains(snd_nxt)
            })
    }

    fn is_idle(&self) -> bool {
        self.snd_una == self.stream_end
    }

    fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn peek(&self, cwnd: u64) -> Option<Frame> {
        // Priority 1: the recovery hole (one per partial ACK / entry). It
        // replaces bytes already counted in flight, so cwnd does not apply.
        if let (Some(next), Some(recover)) = (self.retx_next, self.recover) {
            if next < recover {
                return Some(Frame {
                    stream: 0,
                    offset: next,
                    len: MSS_BYTES.min(recover - next),
                    retx: true,
                });
            }
        }
        self.peek_paced(cwnd)
    }

    /// New data within cwnd. A recovery retransmit the pacer held back is
    /// not scheduled: NewReno's recovery is ACK-clocked (one hole per
    /// partial ACK), so it is retried on the next ACK — or on this wakeup
    /// if the window also has room — with the RTO as backstop.
    fn peek_paced(&self, cwnd: u64) -> Option<Frame> {
        // Always a full segment once permitted to send at all; sub-MSS
        // nibbles would stall recovery.
        if self.snd_nxt == self.stream_end || self.bytes_in_flight() >= cwnd {
            return None;
        }
        Some(Frame {
            stream: 0,
            offset: self.snd_nxt,
            len: MSS_BYTES.min(self.stream_end - self.snd_nxt),
            retx: false,
        })
    }

    fn commit(&mut self, now: SimTime, frame: &Frame) -> Payload {
        if let Some(t) = self.transfers.iter_mut().find(|t| t.contains(frame.offset)) {
            t.started_at.get_or_insert(now);
        }
        if frame.retx {
            self.retx_next = None;
        } else {
            self.snd_nxt += frame.len;
        }
        Payload::Data {
            offset: frame.offset,
            len: frame.len as u32,
            retx: frame.retx,
            round: self.round,
        }
    }

    fn pace_of(&self, frame: &Frame) -> Option<Rate> {
        self.transfers
            .iter()
            .find(|t| t.contains(frame.offset))
            .and_then(|t| t.pace)
    }

    fn app_limited(&self, cwnd: u64) -> bool {
        self.snd_nxt == self.stream_end && self.bytes_in_flight() < cwnd
    }

    fn on_timeout(&mut self) {
        self.round += 1;
        self.dup_acks = 0;
        self.recover = None;
        self.retx_next = None;
        // Go-back-N from the hole.
        self.snd_nxt = self.snd_una;
    }

    /// Process a cumulative ACK: advance the window, run NewReno's
    /// recovery state machine, and count duplicate ACKs.
    fn on_ack(&mut self, core: &mut SenderCore, now: SimTime, payload: &Payload) -> bool {
        let Payload::Ack {
            cum_ack, echo_ts, ..
        } = *payload
        else {
            return false;
        };
        if cum_ack > self.snd_una {
            // New data acknowledged.
            let newly_acked = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            // After an RTO's go-back-N reset, a late ACK for data sent
            // before the reset can move snd_una past snd_nxt; restore the
            // invariant snd_nxt >= snd_una or in-flight accounting
            // underflows and the connection wedges.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            // Every advancing cumulative ACK is progress; its echoed
            // timestamp is valid even for retransmissions (timestamp
            // option semantics).
            let rtt = core.on_progress(now, echo_ts);

            let mut in_recovery = self.recover.is_some();
            if let Some(recover) = self.recover {
                if cum_ack >= recover {
                    // Full ACK: leave recovery.
                    self.recover = None;
                    self.retx_next = None;
                    in_recovery = false;
                } else {
                    // Partial ACK: retransmit the next hole (NewReno).
                    self.retx_next = Some(cum_ack);
                }
            }
            core.on_acked(now, newly_acked, rtt, in_recovery, self.bytes_in_flight());

            while let Some(t) = self.transfers.front().filter(|t| self.snd_una >= t.end) {
                core.complete(CompletedTransfer {
                    id: t.id,
                    bytes: t.end - t.start,
                    queued_at: t.queued_at,
                    started_at: t.started_at.unwrap_or(t.queued_at),
                    completed_at: now,
                });
                self.transfers.pop_front();
            }

            if self.snd_una == self.snd_nxt {
                core.clear_timeout();
            } else {
                core.arm_timeout(now);
            }
        } else if cum_ack == self.snd_una && self.snd_nxt > self.snd_una {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recover.is_none() {
                // Fast retransmit: enter recovery.
                core.on_loss_event(now);
                self.recover = Some(self.snd_nxt);
                self.retx_next = Some(self.snd_una);
                core.arm_timeout(now);
            }
        }
        true
    }

    /// TCP sanity (validate feature): sequence-space ordering and in-flight
    /// bounded by the send buffer.
    #[cfg(feature = "validate")]
    fn check_invariants(&self) {
        netsim::invariant!(
            "tcp-sender-sanity",
            self.snd_una <= self.snd_nxt && self.snd_nxt <= self.stream_end,
            "sequence space out of order: una {} nxt {} end {}",
            self.snd_una,
            self.snd_nxt,
            self.stream_end
        );
        netsim::invariant!(
            "tcp-sender-sanity",
            self.bytes_in_flight() <= self.send_buffer,
            "inflight {} exceeds send buffer {}",
            self.bytes_in_flight(),
            self.send_buffer
        );
    }
}

impl TcpSender {
    /// Handle an arriving cumulative ACK. Newly permitted segments are
    /// pushed into `out`.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        cum_ack: u64,
        echo_ts: SimTime,
        round: u64,
        out: &mut Vec<Packet>,
    ) {
        let ack = Payload::Ack {
            cum_ack,
            echo_ts,
            round,
        };
        self.wire.on_ack(&mut self.core, now, &ack);
        self.pump(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SenderStats;
    use netsim::{FlowId, NodeId, SimDuration, HEADER_BYTES};

    fn sender() -> TcpSender {
        TcpSender::new(NodeId(0), NodeId(1), FlowId(1), TcpConfig::default())
    }

    fn data_range(pkt: &Packet) -> (u64, u64, bool) {
        match pkt.payload {
            Payload::Data {
                offset, len, retx, ..
            } => (offset, offset + len as u64, retx),
            _ => panic!("not a data packet"),
        }
    }

    /// A non-physical pace must trip `pacing-rate-bounds` (and nothing
    /// else) the first time the send path runs with it. `Rate::ZERO` gets
    /// past `Rate`'s constructor (it is a legitimate rate elsewhere) but a
    /// zero pace can never release a byte.
    #[cfg(feature = "validate")]
    #[test]
    fn zero_pace_trips_pacing_invariant() {
        let err = std::panic::catch_unwind(|| {
            let mut s = sender();
            let mut out = Vec::new();
            s.start_transfer(SimTime::ZERO, 100_000, Some(Rate::ZERO));
            s.pump(SimTime::ZERO, &mut out);
        })
        .expect_err("invalid pace must trip the invariant");
        let msg = netsim::invariants::panic_message(&*err);
        assert!(
            msg.starts_with(&netsim::invariants::violation_tag("pacing-rate-bounds")),
            "wrong invariant: {msg}"
        );
    }

    #[test]
    fn initial_window_burst() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        // IW = 10 segments.
        assert_eq!(out.len(), 10);
        assert_eq!(s.wire.bytes_in_flight(), 10 * MSS_BYTES);
        let (o, e, retx) = data_range(&out[0]);
        assert_eq!((o, e, retx), (0, MSS_BYTES, false));
    }

    #[test]
    fn ack_clocking_grows_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 10_000_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let first_burst = out.len();
        out.clear();
        // ACK everything: slow start doubles cwnd; roughly 2x packets flow.
        let t1 = SimTime::from_millis(10);
        s.on_ack(t1, s.wire.bytes_in_flight(), SimTime::ZERO, 0, &mut out);
        assert!(
            out.len() >= first_burst,
            "slow start should open the window"
        );
        assert!(s.core().srtt().is_some());
    }

    #[test]
    fn transfer_completion_reported() {
        let mut s = sender();
        let mut out = Vec::new();
        let id = s.start_transfer(SimTime::ZERO, 5000, None);
        s.pump(SimTime::ZERO, &mut out);
        let sent: u64 = out
            .iter()
            .map(|p| match p.payload {
                Payload::Data { len, .. } => len as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(sent, 5000);
        let t1 = SimTime::from_millis(20);
        s.on_ack(t1, 5000, SimTime::ZERO, 0, &mut Vec::new());
        let done = s.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].bytes, 5000);
        assert_eq!(done[0].completed_at, t1);
        assert!(s.is_idle());
        // Throughput: 5000 B in 20 ms = 2 Mbps.
        assert!((done[0].throughput().mbps() - 2.0).abs() < 0.01);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let w0 = s.core().cwnd();
        out.clear();

        // First segment lost: receiver keeps ACKing 0... wait, receiver
        // would ACK cum=0 on each out-of-order arrival. Simulate 3 dupacks.
        for _ in 0..2 {
            s.on_ack(SimTime::from_millis(5), 0, SimTime::ZERO, 0, &mut out);
            assert_eq!(s.stats().loss_events, 0);
        }
        s.on_ack(SimTime::from_millis(6), 0, SimTime::ZERO, 0, &mut out);
        assert_eq!(s.stats().loss_events, 1);
        assert!(s.core().cwnd() < w0);
        // The retransmission of the first segment must be in `out`.
        let retxs: Vec<_> = out.iter().filter(|p| data_range(p).2).collect();
        assert_eq!(retxs.len(), 1);
        assert_eq!(data_range(retxs[0]).0, 0);
    }

    #[test]
    fn full_ack_exits_recovery() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 50_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let flight = s.wire.bytes_in_flight();
        for _ in 0..3 {
            s.on_ack(SimTime::from_millis(5), 0, SimTime::ZERO, 0, &mut out);
        }
        assert_eq!(s.stats().loss_events, 1);
        // Receiver got the retransmission: full cumulative ACK.
        s.on_ack(SimTime::from_millis(10), flight, SimTime::ZERO, 0, &mut out);
        // Next loss event is a fresh one.
        s.pump(SimTime::from_millis(10), &mut out);
        for _ in 0..3 {
            s.on_ack(SimTime::from_millis(15), flight, SimTime::ZERO, 0, &mut out);
        }
        assert_eq!(s.stats().loss_events, 2);
    }

    #[test]
    fn rto_collapses_and_retransmits() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        out.clear();

        // No ACKs arrive; fire the timer past the RTO deadline.
        let deadline = s.next_wakeup(SimTime::ZERO).expect("rto armed");
        s.on_tick(deadline, &mut out);
        assert_eq!(s.stats().rtos, 1);
        assert_eq!(s.core().cwnd(), MSS_BYTES);
        // Go-back-N restart: first segment retransmitted.
        assert!(!out.is_empty());
        let (o, _, _) = data_range(&out[0]);
        assert_eq!(o, 0);
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 10_000, None);
        s.pump(SimTime::ZERO, &mut out);

        let d1 = s.next_wakeup(SimTime::ZERO).unwrap();
        s.on_tick(d1, &mut out);
        let d2 = s.next_wakeup(d1).unwrap();
        s.on_tick(d2, &mut out);
        let d3 = s.next_wakeup(d2).unwrap();
        // Exponential backoff: interval roughly doubles.
        let i1 = d2.saturating_since(d1).as_secs_f64();
        let i2 = d3.saturating_since(d2).as_secs_f64();
        assert!(i2 > 1.5 * i1, "i1={i1} i2={i2}");
    }

    #[test]
    fn pacing_limits_release() {
        let mut s = TcpSender::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            TcpConfig {
                max_burst_packets: 4,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        // Pace at 12 Mbps: 1500 B wire packets, 1 per ms after the burst.
        s.start_transfer(SimTime::ZERO, 1_000_000, Some(Rate::from_mbps(12.0)));
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 4, "initial burst limited by burst size");

        // The pacer schedules the next release.
        let wake = s.next_wakeup(SimTime::ZERO).expect("pacer wakeup");
        assert!(wake > SimTime::ZERO);
        assert!(wake <= SimTime::from_millis(2));
        out.clear();
        s.on_tick(wake, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn paced_rate_is_honored_end_to_end() {
        // Drive with fixed 1 ms steps, acknowledging everything sent on each
        // step (an idealized zero-loss network). The pacer alone must limit
        // the average wire rate to the pace rate.
        let mut s = sender();
        let mut out = Vec::new();
        let pace = Rate::from_mbps(8.0);
        s.start_transfer(SimTime::ZERO, 2_000_000, Some(pace));
        let mut now = SimTime::ZERO;
        let mut wire_bytes = 0u64;
        let mut acked = 0u64;
        s.pump(now, &mut out);
        let mut finished_at = None;
        for _ in 0..10_000 {
            for p in out.drain(..) {
                if let Payload::Data { len, .. } = p.payload {
                    wire_bytes += len as u64 + HEADER_BYTES;
                }
            }
            acked += s.wire.bytes_in_flight();
            s.on_ack(now, acked, now, 0, &mut out);
            if s.is_idle() && out.is_empty() {
                finished_at = Some(now);
                break;
            }
            now += SimDuration::from_millis(1);
            s.on_tick(now, &mut out);
        }
        let finished = finished_at.expect("transfer did not finish");
        let elapsed = finished.as_secs_f64();
        assert!(
            elapsed > 0.5,
            "transfer finished suspiciously fast: {elapsed}"
        );
        let avg = wire_bytes as f64 * 8.0 / elapsed;
        assert!(
            (avg - pace.bps()).abs() / pace.bps() < 0.1,
            "avg={avg} pace={}",
            pace.bps()
        );
    }

    #[test]
    fn per_transfer_pace_rates_switch() {
        let mut s = sender();
        let mut out = Vec::new();
        // First transfer larger than the initial window so the sender stays
        // inside it at t=0; second transfer at a different rate.
        s.start_transfer(SimTime::ZERO, 20 * MSS_BYTES, Some(Rate::from_mbps(1.0)));
        s.start_transfer(SimTime::ZERO, 2 * MSS_BYTES, Some(Rate::from_mbps(100.0)));
        s.pump(SimTime::ZERO, &mut out);
        // Still inside the first transfer: pacer at 1 Mbps.
        assert_eq!(s.core().pacing_rate().map(|r| r.mbps()), Some(1.0));
        // ACK what's outstanding; the window opens and the stream eventually
        // crosses into the second transfer, switching the pacer.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(100);
            s.on_ack(now, s.wire.snd_nxt, now, 0, &mut out);
            if s.is_idle() {
                break;
            }
            if let Some(w) = s.next_wakeup(now) {
                now = now.max(w);
                s.on_tick(now, &mut out);
            }
        }
        assert!(s.is_idle());
        assert_eq!(s.core().pacing_rate().map(|r| r.mbps()), Some(100.0));
        assert_eq!(s.take_completed().len(), 2);
    }

    #[test]
    fn retransmit_fraction_stat() {
        let mut st = SenderStats {
            bytes_sent: 1000,
            retx_bytes: 50,
            ..Default::default()
        };
        assert!((st.retransmit_fraction() - 0.05).abs() < 1e-12);
        st.bytes_sent = 0;
        assert_eq!(st.retransmit_fraction(), 0.0);
    }

    #[test]
    fn late_ack_after_rto_does_not_underflow_flight() {
        // Regression: RTO fires (go-back-N: snd_nxt = snd_una), then an ACK
        // for data sent before the reset arrives. Flight accounting must
        // not underflow and the transfer must still complete.
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let sent = s.wire.snd_nxt;
        assert!(sent > 0);

        // RTO fires with everything unacked.
        let deadline = s.next_wakeup(SimTime::ZERO).unwrap();
        s.on_tick(deadline, &mut out);
        assert_eq!(s.stats().rtos, 1);

        // A late cumulative ACK for all pre-reset data arrives.
        out.clear();
        s.on_ack(
            deadline + SimDuration::from_millis(1),
            sent,
            SimTime::ZERO,
            0,
            &mut out,
        );
        assert!(
            s.wire.bytes_in_flight() < 1 << 40,
            "flight underflowed: {}",
            s.wire.bytes_in_flight()
        );

        // The connection keeps making progress to completion.
        let mut now = deadline + SimDuration::from_millis(1);
        let mut acked = sent;
        for _ in 0..500 {
            if s.is_idle() {
                break;
            }
            now += SimDuration::from_millis(5);
            acked += s.wire.bytes_in_flight();
            s.on_ack(now, acked, now, 0, &mut out);
            s.on_tick(now, &mut out);
        }
        assert!(s.is_idle(), "transfer wedged after late ACK");
    }
}
