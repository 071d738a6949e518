//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p sammy-bench --bin figures --release -- all
//! cargo run -p sammy-bench --bin figures --release -- table2 fig_cc_matrix
//! cargo run -p sammy-bench --bin figures --release -- --scale 2.0 all
//! cargo run -p sammy-bench --bin figures --release -- --threads 8 table2
//! ```
//!
//! `--threads N` sets the experiment worker-pool size (0 = all cores, the
//! default). Results are bit-identical for every thread count.
//!
//! Text output goes to stdout; CSV files go to `results/`.

use abtest::StreamReport;
use netsim::SimDuration;
use sammy_bench::figures;
use sammy_bench::lab::{self, LabArm, LabConfig, SingleFlowResult};
use sammy_bench::matrix;
use sammy_bench::shared::{self, SharedLabConfig};
use std::fs;
use std::path::Path;
use transport::CcAlgorithm;

const SEED: u64 = 2023;

/// What the experiment-backed targets read from the command line.
struct Opts {
    /// Population-size multiplier (`--scale`).
    scale: f64,
    /// Worker-pool size (`--threads`, 0 = all cores).
    threads: usize,
}

/// Regenerates one table or figure.
type Target = fn(&Opts);

/// Every target, in the order `all` runs them.
const TARGETS: &[(&str, Target)] = &[
    ("fig2", |_| fig2()),
    ("table2", |o| {
        report_table(
            "Table 2: Sammy (c0=3.2, c1=2.8) vs production A/B",
            "table2.csv",
            figures::table2,
            o,
        )
    }),
    ("fig3", |o| fig3(o.scale, o.threads)),
    ("fig4", |_| fig4()),
    ("fig5", |o| fig5(o.scale, o.threads)),
    ("table3", |o| {
        report_table(
            "Table 3: initial-phase changes only (no pacing) vs production A/B",
            "table3.csv",
            figures::table3,
            o,
        )
    }),
    ("baseline", |o| {
        report_table(
            "Sec 5.5 baseline: constant 4x pacing on all chunks vs production A/B",
            "baseline_4x.csv",
            figures::baseline_4x,
            o,
        )
    }),
    ("fig6", |o| fig6(o.scale, o.threads)),
    ("fig8a", |_| fig8a()),
    ("fig8b", |_| fig8b()),
    ("fig8c", |_| fig8c()),
    ("fig8d", |_| fig8d()),
    ("spiral", |_| spiral()),
    ("ablation", |_| ablation_scavenger()),
    ("fig_fairness", |o| fig_fairness(o.threads)),
    ("fig_cc_matrix", |o| fig_cc_matrix(o.threads)),
];

/// The options and the targets to run, in command-line order (`all`, or no
/// target, expands to the whole table). An unknown target or flag, a flag
/// whose value is missing or does not parse, or a `--scale` that is not
/// finite and positive, is an error naming it: a typo in a hand-typed
/// target list must not pass as a run that did less.
fn parse_args(args: &[String]) -> Result<(Opts, Vec<Target>), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.map_or("", String::as_str);
        v.parse()
            .map_err(|_| format!("invalid value for {flag}: '{v}'"))
    }
    let mut opts = Opts {
        scale: 1.0,
        threads: 0,
    };
    let all = || TARGETS.iter().map(|&(_, run)| run);
    let mut runs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next();
                opts.scale = value(a, v)?;
                // A population multiplier: NaN, zero or a negative would
                // run floor-sized populations over the committed CSVs, and
                // infinity sizes a population at `usize::MAX` users.
                if !(opts.scale.is_finite() && opts.scale > 0.0) {
                    return Err(format!(
                        "invalid value for {a}: '{}' (must be finite and positive)",
                        v.map_or("", String::as_str)
                    ));
                }
            }
            "--threads" => opts.threads = value(a, it.next())?,
            "all" => runs.extend(all()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => match TARGETS.iter().find(|(n, _)| *n == name) {
                Some(&(_, run)) => runs.push(run),
                None => return Err(format!("unknown target '{name}'")),
            },
        }
    }
    if runs.is_empty() {
        runs.extend(all());
    }
    Ok((opts, runs))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, runs) = parse_args(&args).unwrap_or_else(|e| {
        let names: Vec<&str> = TARGETS.iter().map(|&(n, _)| n).collect();
        eprintln!("{e}");
        eprintln!(
            "usage: figures [--scale X] [--threads N] [all|{}]...",
            names.join("|")
        );
        std::process::exit(2);
    });
    fs::create_dir_all("results").expect("create results dir");
    for run in runs {
        run(&opts);
    }
}

fn save_csv(name: &str, header: &str, rows: &[String]) {
    let mut s = String::from(header);
    s.push('\n');
    for r in rows {
        s.push_str(r);
        s.push('\n');
    }
    let path = Path::new("results").join(name);
    fs::write(&path, s).expect("write csv");
    println!("  -> {}", path.display());
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn fig2() {
    banner("Fig 2: HYB selection cap (a) and minimum-throughput threshold (b), beta=0.5");
    let data = figures::fig2(0.5, 20.0);
    println!(
        "{:>10} {:>22} {:>22}",
        "buffer_s", "max bitrate (x tput)", "min tput (x bitrate)"
    );
    for &(b, maxr, minx) in data.iter().step_by(4) {
        println!("{b:>10.0} {maxr:>22.3} {minx:>22.3}");
    }
    let rows: Vec<String> = data
        .iter()
        .map(|&(b, maxr, minx)| format!("{b},{maxr:.6},{minx:.6}"))
        .collect();
    save_csv(
        "fig2_curves.csv",
        "buffer_s,max_bitrate_mult,min_tput_mult",
        &rows,
    );
}

/// Run one production A/B, print its Table 2-style report and write it as
/// `csv`: the median change and the paired mean with its interval.
fn report_table(title: &str, csv: &str, run: fn(f64, u64, usize) -> StreamReport, o: &Opts) {
    banner(title);
    let report = run(o.scale, SEED, o.threads);
    print!("{}", report.render());
    let rows: Vec<String> = report
        .rows
        .iter()
        .map(|r| {
            format!(
                "{},{:.6},{:.6},{:.3},{:.4},{:.4},{:.4}",
                r.name,
                r.control,
                r.treatment,
                r.pct_change,
                r.paired.mean_delta_pct,
                r.paired.ci_low,
                r.paired.ci_high
            )
        })
        .collect();
    save_csv(
        csv,
        "metric,control,treatment,pct_change,paired_mean,paired_lo,paired_hi",
        &rows,
    );
}

fn fig3(scale: f64, threads: usize) {
    banner("Fig 3: chunk-throughput reduction by pre-experiment throughput bucket");
    let data = figures::fig3(scale, SEED, threads);
    println!(
        "{:>12} {:>12} {:>30}",
        "bucket", "% change", "paired mean [95% CI]"
    );
    let mut rows = Vec::new();
    for r in &data {
        let (pct, p) = (r.pct_change, r.paired);
        let (mean, lo, hi) = (p.mean_delta_pct, p.ci_low, p.ci_high);
        println!(
            "{:>12} {pct:>12.1} {:>30}",
            r.name,
            format!("{mean:+.3} [{lo:+.3}, {hi:+.3}]")
        );
        rows.push(format!("{},{pct:.3},{mean:.4},{lo:.4},{hi:.4}", r.name));
    }
    save_csv(
        "fig3_buckets.csv",
        "bucket,pct_change,paired_mean,paired_lo,paired_hi",
        &rows,
    );
}

fn fig4() {
    banner("Fig 4: retransmission change vs pacing burst size (pace = 2x max bitrate)");
    let cfg = LabConfig {
        run_for: SimDuration::from_secs(90),
        ..Default::default()
    };
    let unpaced = lab::burst_sweep(None, &cfg);
    println!("unpaced retransmit fraction: {:.4}%", unpaced * 100.0);
    println!("{:>8} {:>12} {:>16}", "burst", "retx %", "% chg vs unpaced");
    let mut rows = Vec::new();
    for burst in [4u32, 8, 16, 24, 32, 40] {
        let r = lab::burst_sweep(Some(burst), &cfg);
        let chg = (r - unpaced) / unpaced * 100.0;
        println!("{burst:>8} {:>12.4} {chg:>16.1}", r * 100.0);
        rows.push(format!("{burst},{r:.6},{chg:.2}"));
    }
    save_csv(
        "fig4_burst.csv",
        "burst_packets,retx_fraction,pct_change_vs_unpaced",
        &rows,
    );
}

fn fig5(scale: f64, threads: usize) {
    banner("Fig 5: VMAF vs chunk-throughput tradeoff over (c0, c1) arms");
    let pts = figures::fig5(scale, SEED, threads);
    println!(
        "{:>6} {:>6} {:>12} {:>10} {:>12}",
        "c0", "c1", "tput %chg", "vmaf %chg", "delay %chg"
    );
    let mut rows = Vec::new();
    for p in &pts {
        println!(
            "{:>6.1} {:>6.1} {:>12.1} {:>10.3} {:>12.2}",
            p.c0, p.c1, p.tput_pct, p.vmaf_pct, p.play_delay_pct
        );
        rows.push(format!(
            "{},{},{:.3},{:.4},{:.3},{:.3}",
            p.c0, p.c1, p.tput_pct, p.vmaf_pct, p.play_delay_pct, p.rebuffer_pct
        ));
    }
    save_csv(
        "fig5_tradeoff.csv",
        "c0,c1,tput_pct,vmaf_pct,play_delay_pct,rebuffer_pct",
        &rows,
    );
}

fn fig6(scale: f64, threads: usize) {
    banner("Fig 6: initial-quality difference after a history reset, by day");
    let diffs = figures::fig6(scale, SEED, threads);
    println!("{:>6} {:>12}", "day", "% diff");
    let mut rows = Vec::new();
    for (day, d) in diffs.iter().enumerate() {
        println!("{day:>6} {d:>12.2}");
        rows.push(format!("{day},{d:.4}"));
    }
    save_csv("fig6_coldstart.csv", "day,initial_quality_pct_diff", &rows);
}

/// Fig 7 (and Fig 1) from the matrix's `reno` pair: the per-100 ms
/// goodput and smoothed-RTT traces of one flow alone on the lab dumbbell.
fn fig7(control: &SingleFlowResult, sammy: &SingleFlowResult) {
    banner("Fig 7: single-flow throughput and RTT, control vs Sammy (the reno row)");
    let chg_tput = (sammy.chunk_throughput_mbps - control.chunk_throughput_mbps)
        / control.chunk_throughput_mbps;
    let chg_rtt = (sammy.median_rtt_ms - control.median_rtt_ms) / control.median_rtt_ms;
    println!(
        "change: throughput {:.0}%, RTT {:.0}%  (paper: -53%, -47%)",
        chg_tput * 100.0,
        chg_rtt * 100.0
    );
    save_csv(
        "fig7_throughput.csv",
        "t_s,control_mbps,sammy_mbps",
        &side_by_side(&control.throughput_series, &sammy.throughput_series),
    );
    save_csv(
        "fig7_rtt.csv",
        "t_s,control_srtt_ms,sammy_srtt_ms",
        &side_by_side(&control.rtt_series, &sammy.rtt_series),
    );
}

/// Two arms' `(s, value)` traces as `t,a,b` rows, one per sample; the
/// shorter trace pads with NaN.
fn side_by_side(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<String> {
    let blank = (f64::NAN, f64::NAN);
    (0..a.len().max(b.len()))
        .map(|i| {
            let (t, x) = *a.get(i).unwrap_or(&blank);
            let (_, y) = *b.get(i).unwrap_or(&blank);
            format!("{t:.1},{x:.3},{y:.3}")
        })
        .collect()
}

fn neighbor_pair(name: &str, unit: &str, paper: &str, f: impl Fn(LabArm) -> f64) {
    let control = f(LabArm::Control);
    let sammy = f(LabArm::Sammy);
    let chg = (sammy - control) / control * 100.0;
    println!(
        "control {control:.2} {unit}, sammy {sammy:.2} {unit}, change {chg:+.0}% (paper: {paper})"
    );
    save_csv(
        &format!("{name}.csv"),
        &format!("arm,value_{unit}"),
        &[format!("control,{control:.4}"), format!("sammy,{sammy:.4}")],
    );
}

fn fig8a() {
    banner("Fig 8a: neighboring UDP one-way delay");
    let cfg = LabConfig::neighbors();
    neighbor_pair("fig8a_udp_owd", "ms", "-51%", |arm| {
        lab::neighbor_udp(arm, &cfg)
    });
}

fn fig8b() {
    banner("Fig 8b: neighboring TCP throughput");
    let cfg = LabConfig::neighbors();
    neighbor_pair("fig8b_tcp_tput", "mbps", "+28%", |arm| {
        lab::neighbor_tcp(arm, &cfg)
    });
}

fn fig8c() {
    banner("Fig 8c: neighboring HTTP response time (3 MB requests)");
    let cfg = LabConfig::neighbors();
    neighbor_pair("fig8c_http_ms", "ms", "-18%", |arm| {
        lab::neighbor_http(arm, &cfg)
    });
}

fn fig8d() {
    banner("Fig 8d: neighboring video play delay (4 trials)");
    let cfg = LabConfig {
        run_for: SimDuration::from_secs(45),
        ..LabConfig::neighbors()
    };
    neighbor_pair("fig8d_video_delay", "ms", "-4% (~50 ms)", |arm| {
        lab::neighbor_video(arm, &cfg, 4)
    });
}

/// §2.2's LEDBAT scavenger, alone and beside Fig 8b's bulk TCP neighbor.
/// Sammy's row of the contrast is `fig_cc_matrix`'s `reno.sammy` cell and
/// `fig8b`'s Sammy arm.
fn ablation_scavenger() {
    banner("Ablation: LEDBAT scavenger (Sec 2.2 contrast; Sammy: fig_cc_matrix reno, fig8b)");
    let solo = lab::single_flow(
        LabArm::Control,
        &LabConfig {
            cc: CcAlgorithm::Ledbat,
            run_for: SimDuration::from_secs(60),
            ..Default::default()
        },
    );
    let neighbor = lab::neighbor_tcp(
        LabArm::Control,
        &LabConfig {
            cc: CcAlgorithm::Ledbat,
            ..LabConfig::neighbors()
        },
    );
    let (tput, rtt) = (solo.chunk_throughput_mbps, solo.median_rtt_ms);
    println!(
        "{:>12} {:>16} {:>14} {:>18}",
        "strategy", "solo tput Mbps", "solo RTT ms", "neighbor TCP Mbps"
    );
    println!(
        "{:>12} {tput:>16.1} {rtt:>14.2} {neighbor:>18.1}",
        "scavenger"
    );
    println!("The scavenger fully utilizes the link when alone; Sammy stays near 3x the bitrate.");
    save_csv(
        "ablation_scavenger.csv",
        "strategy,solo_tput_mbps,solo_rtt_ms,neighbor_tcp_mbps",
        &[format!("scavenger,{tput:.3},{rtt:.3},{neighbor:.3}")],
    );
}

fn fig_fairness(threads: usize) {
    banner("Shared bottleneck: Jain's fairness and core queue, N Sammy vs N greedy sessions");
    let base = SharedLabConfig::default();
    let points = shared::fairness_curve(&[2, 4, 8], &base, threads);
    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>14}",
        "N", "greedy jain", "sammy jain", "greedy Mbps", "sammy Mbps"
    );
    for p in &points {
        println!(
            "{:>4} {:>12.4} {:>12.4} {:>14.2} {:>14.2}",
            p.n,
            p.greedy.jain,
            p.sammy.jain,
            p.greedy.mean_mbps(),
            p.sammy.mean_mbps()
        );
    }
    save_csv(
        "fig_fairness.csv",
        shared::FAIRNESS_CSV_HEADER,
        &shared::fairness_csv_rows(&points),
    );

    // The occupancy trace is the default session count's pair of runs.
    let p = points
        .iter()
        .find(|p| p.n == base.sessions)
        .expect("the default N is on the curve");
    let (greedy, sammy) = (&p.greedy, &p.sammy);
    println!(
        "greedy: peak {:.1} kB, {} drops; sammy: peak {:.1} kB, {} drops (N={})",
        greedy.core_peak_queue_bytes as f64 / 1e3,
        greedy.core_drops,
        sammy.core_peak_queue_bytes as f64 / 1e3,
        sammy.core_drops,
        p.n
    );
    save_csv(
        "fig_shared_occupancy.csv",
        "t_s,greedy_kb,sammy_kb",
        &side_by_side(&greedy.core_occupancy_kb, &sammy.core_occupancy_kb),
    );
}

fn fig_cc_matrix(threads: usize) {
    banner("CC x pacing matrix: {Reno, CUBIC, BBR, QUIC} x {control, sammy}");
    let base = LabConfig {
        run_for: SimDuration::from_secs(60),
        ..Default::default()
    };
    let runs = matrix::cc_matrix_runs(&base, threads);
    let cells: Vec<_> = runs.iter().map(|(cell, _)| cell.clone()).collect();
    print!("{}", matrix::render_rows(&cells));
    save_csv(
        "fig_cc_matrix.csv",
        matrix::MATRIX_CSV_HEADER,
        &matrix::matrix_csv_rows(&cells),
    );
    let reno = |arm| {
        let cell = runs
            .iter()
            .find(|(c, _)| c.substrate == "reno" && c.arm == arm);
        &cell.expect("the reno row").1
    };
    fig7(reno(LabArm::Control), reno(LabArm::Sammy));
}

fn spiral() {
    banner("Sec 2.3.1: downward spiral under black-box pacing");
    let (blackbox, sammy) = figures::spiral();
    println!(
        "{:>6} {:>18} {:>18}",
        "chunk", "blackbox (Mbps)", "sammy-style (Mbps)"
    );
    let mut rows = Vec::new();
    for (i, (b, s)) in blackbox.iter().zip(&sammy).enumerate() {
        if i % 2 == 0 {
            println!("{i:>6} {b:>18.2} {s:>18.2}");
        }
        rows.push(format!("{i},{b:.3},{s:.3}"));
    }
    save_csv("spiral.csv", "chunk,blackbox_mbps,sammy_mbps", &rows);
}
