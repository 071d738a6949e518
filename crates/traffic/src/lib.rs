//! # traffic — neighboring workloads for the §6 lab experiments
//!
//! The paper measures how Sammy changes the QoE of traffic sharing its
//! bottleneck (Fig 8). This crate provides those neighbors on the packet
//! simulator:
//!
//! - [`BulkSender`]: a long-lived congestion-window-limited flow (Fig 8b,
//!   and Fig 4's cross traffic), received by a
//!   [`transport::ReceiverEndpoint`].
//! - [`HttpClient`]: back-to-back 3 MB HTTP requests with response-time
//!   measurement (Fig 8c).
//! - UDP CBR with one-way-delay measurement lives in
//!   [`transport::UdpCbrSource`] / [`transport::UdpSink`] (Fig 8a).
//! - The neighboring *video* session of Fig 8d is just a second
//!   `video::VideoClientEndpoint` + [`transport::SenderEndpoint`] pair;
//!   experiments compose it directly.

#![warn(missing_docs)]

pub mod bulk;
pub mod http;

pub use bulk::BulkSender;
pub use http::HttpClient;
