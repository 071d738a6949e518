//! Historical-data cold start (paper Fig 6): what happens to initial video
//! quality when a device's historical throughput estimates are wiped, and
//! how long does recovery take?
//!
//! ```text
//! cargo run --example cold_start --release
//! cargo run --example cold_start --release -- 100   # users
//! ```

use sammy_repro::abtest::{run_cold_start, ColdStartConfig};
use sammy_repro::prelude::*;

fn main() {
    let users: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let cfg = ColdStartConfig {
        days: 14,
        sessions_per_day: 2,
        warmup_sessions: 6,
        seed: 5,
        threads: 0,
    };
    println!(
        "Cold-start experiment: {users} users, {} sessions/day, history wiped at day 0\n",
        cfg.sessions_per_day
    );
    let result = run_cold_start(&PopulationConfig::default(), users, &cfg);

    println!(
        "{:>5} {:>12}   bar (each # = 0.5% below control)",
        "day", "% diff"
    );
    for (day, d) in result.pct_diff_by_day().iter().enumerate() {
        let bars = ((-d / 0.5).round().max(0.0) as usize).min(60);
        println!("{day:>5} {d:>12.2}   {}", "#".repeat(bars));
    }
    println!("\nPaper: the treatment group starts far below control and takes about");
    println!("a week to reach its closest point (Fig 6). The mechanism here is the");
    println!("cross-session confidence ramp on the historical-throughput store.");
}
