//! The CC × pacing A/B matrix.
//!
//! Sammy's claim is that application-informed pacing is a property of the
//! *application*, not of any one transport: smoothing should hold up
//! whether the bytes ride Reno, CUBIC, BBR, or a QUIC-style stream
//! transport. This module runs the single-flow lab experiment over every
//! substrate in `{Reno, CUBIC, BBR} × TCP ∪ {CUBIC × QUIC}` and both
//! pacing arms (unpaced production control vs Sammy), yielding the
//! `fig_cc_matrix` figure: per cell, chunk throughput, median RTT,
//! retransmit fraction, and peak bottleneck queue. The `reno` row is the
//! paper's Fig 7 setup, so its two runs' traces are Fig 7's CSVs.
//!
//! Cells run on the [`run_cells`] worker pool in a fixed order
//! (substrate-major, arm-minor), so the CSV is byte-identical for every
//! `--threads` setting — the CI determinism gate compares sha256 of the
//! `--threads 1` and `--threads 8` outputs.

use crate::lab::{single_flow, LabArm, LabConfig, SingleFlowResult};
use crate::shared::run_cells;
use transport::{CcAlgorithm, Protocol};

/// One transport/CC combination of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Substrate {
    /// Row label (`reno`, `cubic`, `bbr`, `quic`).
    pub label: &'static str,
    /// Wire protocol.
    pub transport: Protocol,
    /// Congestion controller.
    pub cc: CcAlgorithm,
}

/// The four matrix substrates: the three TCP congestion controllers plus
/// the QUIC-style transport (which runs CUBIC, as production QUIC stacks
/// default to).
pub const SUBSTRATES: [Substrate; 4] = [
    Substrate {
        label: "reno",
        transport: Protocol::Tcp,
        cc: CcAlgorithm::Reno,
    },
    Substrate {
        label: "cubic",
        transport: Protocol::Tcp,
        cc: CcAlgorithm::Cubic,
    },
    Substrate {
        label: "bbr",
        transport: Protocol::Tcp,
        cc: CcAlgorithm::BbrLite,
    },
    Substrate {
        label: "quic",
        transport: Protocol::Quic,
        cc: CcAlgorithm::Cubic,
    },
];

/// One cell of the matrix: a substrate under one pacing arm.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Substrate row label.
    pub substrate: &'static str,
    /// Wire protocol of the substrate.
    pub transport: Protocol,
    /// Congestion controller of the substrate.
    pub cc: CcAlgorithm,
    /// Pacing arm (control = unpaced production ABR, sammy = paced).
    pub arm: LabArm,
    /// Mean chunk throughput after playback start (Mbps).
    pub chunk_tput_mbps: f64,
    /// Median per-packet RTT (ms).
    pub median_rtt_ms: f64,
    /// Retransmitted-byte fraction.
    pub retx_fraction: f64,
    /// Session play delay (s).
    pub play_delay_s: f64,
    /// Rebuffer count.
    pub rebuffers: u64,
    /// Peak bottleneck queue occupancy (kB), post-startup.
    pub peak_queue_kb: f64,
}

/// Run the full substrate × arm matrix on the worker pool. Results are in
/// substrate-major, arm-minor order (control before sammy), independent of
/// `threads`.
pub fn cc_matrix(base: &LabConfig, threads: usize) -> Vec<MatrixCell> {
    cc_matrix_runs(base, threads)
        .into_iter()
        .map(|(cell, _)| cell)
        .collect()
}

/// [`cc_matrix`] with each cell's single-flow run beside it: the `reno`
/// pair's traces are Fig 7.
pub fn cc_matrix_runs(base: &LabConfig, threads: usize) -> Vec<(MatrixCell, SingleFlowResult)> {
    let cells: Vec<(Substrate, LabArm)> = SUBSTRATES
        .iter()
        .flat_map(|&s| [(s, LabArm::Control), (s, LabArm::Sammy)])
        .collect();
    run_cells(&cells, threads, |&(s, arm)| {
        let cfg = LabConfig {
            cc: s.cc,
            transport: s.transport,
            ..base.clone()
        };
        let r = single_flow(arm, &cfg);
        let cell = MatrixCell {
            substrate: s.label,
            transport: s.transport,
            cc: s.cc,
            arm,
            chunk_tput_mbps: r.chunk_throughput_mbps,
            median_rtt_ms: r.median_rtt_ms,
            retx_fraction: r.retx_fraction,
            play_delay_s: r.play_delay_s,
            rebuffers: r.rebuffers,
            peak_queue_kb: r.max_queue_bytes as f64 / 1e3,
        };
        (cell, r)
    })
}

/// Header for [`matrix_csv_rows`].
pub const MATRIX_CSV_HEADER: &str =
    "substrate,transport,cc,arm,chunk_tput_mbps,median_rtt_ms,retx_fraction,play_delay_s,rebuffers,peak_queue_kb";

/// CSV rows for the matrix figure, one per cell, in cell order. This exact
/// formatting is what the CI thread-determinism gate hashes.
pub fn matrix_csv_rows(cells: &[MatrixCell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            format!(
                "{},{},{},{},{:.4},{:.3},{:.6},{:.3},{},{:.2}",
                c.substrate,
                c.transport.name(),
                c.cc.label(),
                c.arm.label(),
                c.chunk_tput_mbps,
                c.median_rtt_ms,
                c.retx_fraction,
                c.play_delay_s,
                c.rebuffers,
                c.peak_queue_kb
            )
        })
        .collect()
}

/// The matrix as the aligned text table `figures fig_cc_matrix` and
/// `sammy-sim matrix` print: a header line, then one line per cell.
pub fn render_rows(cells: &[MatrixCell]) -> String {
    let mut out = format!(
        "{:<10} {:>6} {:>8} {:>16} {:>14} {:>8} {:>14}\n",
        "substrate", "proto", "arm", "chunk tput Mbps", "median RTT ms", "retx %", "peak queue kB"
    );
    for c in cells {
        out.push_str(&format!(
            "{:<10} {:>6} {:>8} {:>16.2} {:>14.2} {:>8.3} {:>14.1}\n",
            c.substrate,
            c.transport.name(),
            c.arm.label(),
            c.chunk_tput_mbps,
            c.median_rtt_ms,
            c.retx_fraction * 100.0,
            c.peak_queue_kb
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    fn quick_cfg() -> LabConfig {
        LabConfig {
            run_for: SimDuration::from_secs(40),
            ..Default::default()
        }
    }

    /// The full matrix runs end-to-end: every substrate completes chunks
    /// under both arms, pacing always drains the queue relative to the
    /// unpaced control, and the CSV is thread-count invariant.
    #[test]
    fn matrix_runs_and_is_thread_invariant() {
        let base = quick_cfg();
        let a = cc_matrix(&base, 1);
        let b = cc_matrix(&base, 4);
        assert_eq!(matrix_csv_rows(&a), matrix_csv_rows(&b));
        assert_eq!(a.len(), 8, "4 substrates x 2 arms");
        for pair in a.chunks_exact(2) {
            let (control, sammy) = (&pair[0], &pair[1]);
            assert_eq!(control.substrate, sammy.substrate);
            assert_eq!(control.arm, LabArm::Control);
            assert_eq!(sammy.arm, LabArm::Sammy);
            // Every substrate makes progress under both arms.
            assert!(
                control.chunk_tput_mbps > 2.0 && sammy.chunk_tput_mbps > 2.0,
                "{}: control {} sammy {}",
                control.substrate,
                control.chunk_tput_mbps,
                sammy.chunk_tput_mbps
            );
            // Pacing caps throughput below the greedy control and keeps the
            // standing queue no deeper (BBR's control arm already runs
            // shallow, so compare with a little slack).
            assert!(
                sammy.chunk_tput_mbps < control.chunk_tput_mbps,
                "{}: sammy {} not below control {}",
                control.substrate,
                sammy.chunk_tput_mbps,
                control.chunk_tput_mbps
            );
            assert!(
                sammy.peak_queue_kb <= control.peak_queue_kb * 1.1 + 5.0,
                "{}: sammy queue {} vs control {}",
                control.substrate,
                sammy.peak_queue_kb,
                control.peak_queue_kb
            );
            assert_eq!(sammy.rebuffers, 0, "{}", control.substrate);
        }
    }
}
