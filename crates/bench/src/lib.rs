//! # sammy-bench — experiment harnesses for every table and figure
//!
//! Two families of experiments reproduce the paper's evaluation:
//!
//! - [`lab`]: packet-level lab experiments on the 40 Mbps / 5 ms / 4x BDP
//!   dumbbell — the single-flow trace (Fig 7, which is also the paper's
//!   Fig 1), the burst-size sweep (Fig 4, whose bursts are also Table 1's
//!   mechanisms), the neighboring UDP / TCP / HTTP / video experiments
//!   (Fig 8), which on the LEDBAT substrate are also §2.2's scavenger
//!   contrast.
//! - [`figures`]: fluid-simulation production experiments — the A/B tables
//!   (Tables 2 and 3), the throughput-bucket breakdown (Fig 3), the
//!   parameter-sweep tradeoff (Fig 5), the cold-start series (Fig 6), the
//!   §5.5 naive baseline, the §2.3.1 downward spiral, and the Fig 2
//!   analysis curves.
//!
//! [`shared`] scales the lab out: N concurrent sessions served from one
//! CDN origin over a shared ISP-core bottleneck (with pluggable AQM/FQ
//! disciplines), backing the shared-queue-occupancy and Jain's-fairness
//! figures.
//!
//! Every packet-lab video session, in [`lab`] and [`shared`] alike, is
//! installed one way (a flow on its server node's
//! `transport::MultiSenderEndpoint`, a player on the lab title) and every
//! lab trace is read on one 100 ms grid over `[0, run_for)`.
//!
//! [`matrix`] runs the CC × pacing A/B matrix: the single-flow lab over
//! every transport substrate ({Reno, CUBIC, BBR} on TCP, CUBIC on the
//! QUIC-style transport) × {unpaced control, Sammy}, backing the
//! `fig_cc_matrix` figure — whose rows are also the Reno-vs-CUBIC
//! substrate ablation and §2.2's Reno vs BBR vs Sammy contrast, and whose
//! Reno row's traces are Fig 7.
//!
//! The `figures` binary (`cargo run -p sammy-bench --bin figures --release`)
//! regenerates all of them as aligned text tables and CSV files.
//!
//! Timing lives outside this crate: the repo's one benchmark is the
//! `benchmark/` package (`bash benchmark/run.sh`, declared in
//! `BENCHMARK.json`), which drives these harnesses from outside.

#![warn(missing_docs)]

pub mod figures;
pub mod lab;
pub mod matrix;
pub mod shared;
