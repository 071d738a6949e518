//! `figures` argument handling, driven through the built binary.
//!
//! CI types its target lists by hand. A misspelt target, an unknown flag
//! or a flag value that does not parse must stop the run with status 2,
//! naming the offender, before `results/` exists or anything is simulated:
//! a run that silently did less would pass the CSV diff that follows it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test (`figures` writes
/// `results/` under its working directory).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("figures_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn figures(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("figures runs")
}

#[test]
fn bad_arguments_exit_2_naming_them_with_nothing_written() {
    let dir = scratch("bad");
    for (args, named) in [
        (&["tabel2"][..], "'tabel2'"),
        // A good target first: it must not run before the bad one is seen.
        (&["fig2", "tabel2"][..], "'tabel2'"),
        (&["--bogus"][..], "'--bogus'"),
        (&["--scale", "abc", "fig2"][..], "--scale: 'abc'"),
        // A scale that parses but sizes no sane population.
        (&["--scale", "-1", "fig2"][..], "--scale: '-1'"),
        (&["--scale", "0", "fig2"][..], "--scale: '0'"),
        (&["--scale", "NaN", "fig2"][..], "--scale: 'NaN'"),
        (&["--scale", "inf", "fig2"][..], "--scale: 'inf'"),
        (&["fig2", "--threads"][..], "--threads: ''"),
    ] {
        let out = figures(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was simulated");
        assert!(!dir.join("results").exists(), "{args:?}: results/ created");
    }
}

#[test]
fn a_well_formed_target_list_still_runs() {
    let dir = scratch("ok");
    let out = figures(&dir, &["--threads", "1", "fig2", "spiral"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(dir.join("results/fig2_curves.csv").exists());
    assert!(dir.join("results/spiral.csv").exists());
}
