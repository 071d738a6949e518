//! Pacing-threshold analysis: explore the Fig 2 / Eq. 1 machinery — how
//! much can a pacing-aware ABR's throughput be reduced without changing
//! its bitrate decisions, and why the black-box naive rule spirals down.
//!
//! ```text
//! cargo run --example pacing_analysis --release
//! ```

use sammy_repro::abr::{hyb_max_bitrate_bps, hyb_min_throughput_bps};
use sammy_repro::sammy_bench::figures;
use sammy_repro::sammy_core::analysis::buffer_after;
use sammy_repro::sammy_core::PaceSelector;

fn main() {
    let beta = 0.5;
    let horizon_s = 20.0;

    println!("Eq. 1: minimum throughput (as a multiple of the bitrate) an HYB-style");
    println!("ABR needs to keep selecting a bitrate, by buffer level (beta = {beta}):\n");
    println!(
        "{:>10} {:>24} {:>24}",
        "buffer_s", "min tput (x bitrate)", "max bitrate (x tput)"
    );
    for buffer in [0.0, 4.0, 8.0, 16.0, 32.0, 64.0, 120.0, 240.0] {
        let min_x = hyb_min_throughput_bps(beta, 1.0, buffer, horizon_s);
        let max_r = hyb_max_bitrate_bps(beta, 1.0, buffer, horizon_s);
        println!("{buffer:>10.0} {min_x:>24.3} {max_r:>24.3}");
    }

    println!("\nSammy's pace multipliers vs that threshold (c0=3.2, c1=2.8, 240 s buffer):");
    let pace = PaceSelector::default();
    let headroom = pace.validate_against_threshold(beta, horizon_s, 240.0);
    println!("  worst-case headroom pace/threshold = {headroom:.2}x (>= 1 is safe)\n");

    println!("Theorem A.1 sanity checks:");
    let b = buffer_after(0.0, 1200.0, 7.5e6, 10e6);
    println!("  20-min session, bitrate = 0.75x throughput -> buffer built: {b:.0} s");

    println!("\nThe downward spiral (Sec 2.3.1): naive rule paced at 1.5x its own");
    println!("bitrate vs Sammy-style pacing at 3.2x the ladder top:\n");
    let (blackbox, sammy) = figures::spiral();
    println!(
        "{:>6} {:>16} {:>16}",
        "chunk", "blackbox Mbps", "sammy Mbps"
    );
    for (i, (b, s)) in blackbox.iter().zip(&sammy).enumerate().take(12) {
        println!("{i:>6} {b:>16.2} {s:>16.2}");
    }
    println!(
        "\nblackbox ends at {:.2} Mbps (bottom rung); sammy holds {:.2} Mbps",
        blackbox.last().unwrap(),
        sammy.last().unwrap()
    );
}
