//! # transport — TCP-like transport with application-informed pacing
//!
//! This crate implements the transport substrate of the Sammy reproduction
//! on top of [`netsim`]:
//!
//! - [`SenderCore`]: the one sender core under both wire protocols. It
//!   owns the congestion controller, the [`Pacer`], the RTT estimator, the
//!   retransmission timer (exponential backoff, slow-start restart after
//!   idle) and all telemetry, and runs the single emission loop *peek next
//!   frame → pacing gate → commit*. The decision "when may bytes leave a
//!   paced sender" — the paper's contribution — lives here and nowhere else.
//! - [`Sender`]`<W: `[`Wire`]`>`: the core plus a protocol half that only
//!   frames, parses ACKs, detects loss and tracks flow control.
//!   [`TcpSender`] (`Sender<TcpWire>`, with [`TcpReceiver`]) is a NewReno
//!   byte stream: duplicate-ACK fast retransmit, partial-ACK recovery,
//!   go-back-N after an RTO. [`QuicSender`] (`Sender<QuicWire>`, with
//!   [`QuicReceiver`]) is QUIC-style: stream multiplexing over one
//!   connection, ACK ranges with selective retransmission (no head-of-line
//!   blocking across streams), connection flow control.
//!   [`TransportSender`] / [`TransportReceiver`] select the protocol per
//!   [`Protocol`] so endpoints are transport-agnostic.
//! - [`Reno`], [`Cubic`], [`BbrLite`] (BBR with PROBE_RTT, app-limited
//!   sampling, and drain-exit) and [`Ledbat`] congestion controllers
//!   behind the [`CongestionControl`] trait.
//! - [`Pacer`]: token-bucket pacing with a configurable burst size — the
//!   mechanism behind *application-informed pacing* (paper §3.2). Transfers
//!   carry an optional pace rate; the sender releases packets no faster
//!   than that rate, in bursts no larger than the configured size
//!   (the paper's Fig 4 sweeps this burst size from 4 to 40 packets).
//! - [`UdpCbrSource`] / [`UdpSink`]: paced constant-bit-rate datagram flows
//!   with one-way-delay measurement (neighboring traffic of Fig 8a).
//! - [`SenderEndpoint`] / [`ReceiverEndpoint`]: plug-in [`netsim::Endpoint`]
//!   adapters; the sender endpoint answers [`netsim::Payload::Request`]
//!   messages whose `pace_bps` field is the application-informed pacing
//!   header. It is the one sender host: 1..N flows at a node, a packet's
//!   slot found by a scan of flow ids, so one video session on a dumbbell
//!   host and N on a shared origin run the same code.
//!
//! Telemetry matches what the paper's production experiments measure:
//! per-connection retransmitted-byte fractions and per-packet RTTs stored
//! in a [`tdigest::TDigest`] (§5.1).

#![warn(missing_docs)]

pub mod bbr;
pub mod cc;
pub mod core;
pub mod endpoint;
pub mod mux;
pub mod pacing;
pub mod quic;
pub mod receiver;
pub mod rtt;
pub mod scavenger;
pub mod sender;
pub mod udp;

pub use bbr::BbrLite;
pub use cc::{CcAlgorithm, CongestionControl, Cubic, Reno, INITIAL_CWND_SEGMENTS};
pub use core::{CompletedTransfer, Frame, Sender, SenderCore, SenderStats, TcpConfig, Wire};
pub use endpoint::{ReceiverEndpoint, SenderEndpoint};
pub use mux::{Protocol, TransportReceiver, TransportSender};
pub use pacing::Pacer;
pub use quic::{QuicReceiver, QuicSender};
pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use scavenger::Ledbat;
pub use sender::TcpSender;
pub use udp::{UdpCbrSource, UdpSink};
