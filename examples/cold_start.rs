//! Historical-data cold start (paper Fig 6): what happens to initial video
//! quality when a device's historical throughput estimates are wiped, and
//! how long does recovery take?
//!
//! An A/B run on the one runner: the control is production with the
//! history its warm-up sessions built, the treatment is
//! [`Arm::HistoryReset`] — production from an empty store — and the report
//! folds `DAY_METRICS`, mean initial VMAF by day, two sessions a day.
//!
//! ```text
//! cargo run --example cold_start --release
//! cargo run --example cold_start --release -- 100   # users
//! ```

use sammy_repro::abtest::DAY_METRICS;
use sammy_repro::prelude::*;

fn main() {
    let users: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    println!("Cold-start experiment: {users} users, 2 sessions/day, history wiped at day 0\n");
    let report = Experiment::builder()
        .treatment(Arm::HistoryReset)
        .config(ExperimentConfig {
            users_per_arm: users,
            pre_sessions: 6,
            sessions_per_user: 2 * DAY_METRICS.len(),
            seed: 5,
            bootstrap_reps: 0,
            threads: 0,
        })
        .rows(&DAY_METRICS)
        .run_table()
        .expect("valid experiment setup")
        .report();

    println!(
        "{:>5} {:>12}   bar (each # = 0.5% below control)",
        "day", "% diff"
    );
    for (day, row) in report.rows.iter().enumerate() {
        let d = row.pct_change;
        let bars = ((-d / 0.5).round().max(0.0) as usize).min(60);
        println!("{day:>5} {d:>12.2}   {}", "#".repeat(bars));
    }
    println!("\nPaper: the treatment group starts far below control and takes about");
    println!("a week to reach its closest point (Fig 6). The mechanism here is the");
    println!("cross-session confidence ramp on the historical-throughput store.");
}
