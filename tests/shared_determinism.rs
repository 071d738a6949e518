//! Determinism battery for the shared-bottleneck fairness figure.
//!
//! The `fig_fairness` CSV must be **byte-identical** regardless of how
//! many worker threads generate its cells: the worker pool assigns cells
//! by atomic index but each cell's simulation is fully sealed (own
//! `Simulator`, own RNG streams) and results merge in cell order. This
//! file proves that for the N = 8 point — the one shipped in the figure —
//! and pins the rows under an FNV-1a golden so any drift in the engine,
//! the sender host, or the queue disciplines shows up as a
//! fingerprint mismatch rather than a silently different figure.
//!
//! The run here is a shortened (20 s) version of the figure's
//! configuration so the battery stays inside tier-1 time budgets; the
//! full-length figure inherits determinism from the same code path.

use sammy_repro::netsim::SimDuration;
use sammy_repro::sammy_bench::shared::{fairness_csv_rows, fairness_curve, SharedLabConfig};
use sammy_repro::tdigest::wire::Fnv;

fn short_config() -> SharedLabConfig {
    SharedLabConfig {
        run_for: SimDuration::from_secs(20),
        ..Default::default()
    }
}

fn rows(threads: usize) -> Vec<String> {
    fairness_csv_rows(&fairness_curve(&[8], &short_config(), threads))
}

fn fingerprint(rows: &[String]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        h.write(row.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Frozen fingerprint of the N = 8 fairness row at 20 s. Regenerate by
/// running this test and copying the reported value **only** after
/// verifying the behavioral change is intentional. (Re-pinned from
/// `0x81a8_55d0_97b8_ac72` when TCP began scheduling a pacer wakeup for a
/// held-back recovery retransmit, as QUIC does: the Sammy arm's mean
/// 10.6111 → 10.6107 Mbps, Jain 0.999670 → 0.999669, peak 10.50 →
/// 12.00 kB.)
const GOLDEN_N8_FINGERPRINT: u64 = 0xbdd9_629a_8906_be8a;

#[test]
fn fairness_rows_identical_across_thread_counts() {
    let serial = rows(1);
    let pooled = rows(8);
    assert_eq!(serial, pooled, "worker-pool scheduling leaked into results");
}

#[test]
fn fairness_rows_match_golden_fingerprint() {
    let serial = rows(1);
    assert_eq!(serial.len(), 1);
    let fp = fingerprint(&serial);
    assert_eq!(
        fp, GOLDEN_N8_FINGERPRINT,
        "N=8 fairness row drifted: {:?} (fingerprint {fp:#018x})",
        serial
    );
}

/// The figure's claim, pinned behaviorally as well as bitwise: with
/// eight sessions on one ISP core, Sammy keeps Jain's index high and the
/// greedy arm does not beat it.
#[test]
fn n8_sammy_is_fair() {
    let point = &fairness_curve(&[8], &short_config(), 0)[0];
    assert!(
        point.sammy.jain >= 0.90,
        "sammy jain {} too low at n=8",
        point.sammy.jain
    );
    assert!(
        point.sammy.jain >= point.greedy.jain - 0.05,
        "sammy ({}) should not be meaningfully less fair than greedy ({})",
        point.sammy.jain,
        point.greedy.jain
    );
}
