//! `sammy-sim` flag handling, driven through the built binary.
//!
//! A flag that is present but does not parse, or whose name the
//! subcommand does not read, must stop the run: falling back to the
//! default would report a 150-user experiment to someone who asked (with
//! a typo) for a different one.

use std::process::Command;

fn sammy_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sammy-sim"))
        .args(args)
        .output()
        .expect("sammy-sim runs")
}

#[test]
fn unparseable_flag_value_exits_2_naming_the_flag() {
    // `1O0` with a capital O, and a valued flag with its value missing.
    for args in [
        &["abtest", "--users", "1O0"][..],
        &["abtest", "--users"][..],
    ] {
        let out = sammy_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("invalid value for --users"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing was simulated");
    }
}

#[test]
fn well_formed_and_absent_flags_still_run() {
    let out = sammy_sim(&["abtest", "--users", "4", "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(", 4 users"), "{stdout}");
}

#[test]
fn unread_flag_name_exits_2_naming_the_flag() {
    // A typo'd name, the two flags `tune` lost when the coordinate search
    // was deleted, a flag of another subcommand, and a stray word.
    for (args, named) in [
        (&["abtest", "--user", "4"][..], "--user"),
        (&["tune", "--rounds", "2"][..], "--rounds"),
        (&["tune", "--halving"][..], "--halving"),
        (&["neighbors", "--users", "4"][..], "--users"),
        (&["abtest", "users", "4"][..], "users"),
    ] {
        let out = sammy_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("'{named}'")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was simulated");
    }
    let out = sammy_sim(&["abtset"]);
    assert_eq!(out.status.code(), Some(2));
    // A multiplier `POST /runs` would refuse: this used to print a table
    // of NaNs over `users: 0   failures: 4` and exit 0.
    let out = sammy_sim(&["stream", "--users", "4", "--light", "--c0", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("c0"));
    assert!(out.stdout.is_empty());
}

/// The flags resolve into one spec, and the *whole* spec meets its own
/// parser — not only the arm. Each of these used to exit 0: a zero or
/// negative link rate printing `NaN` for play delay, and a seed past 2^53
/// that `POST /runs` refuses and the spec's own `to_json()` cannot carry.
#[test]
fn a_spec_the_api_would_refuse_exits_2_naming_the_field() {
    for (args, field) in [
        (&["single-flow", "--rate-mbps", "0"][..], "rate_mbps"),
        (&["single-flow", "--rate-mbps", "-5"][..], "rate_mbps"),
        (&["single-flow", "--rate-mbps", "inf"][..], "rate_mbps"),
        (&["matrix", "--rtt-ms", "-1"][..], "rtt_ms"),
        (&["matrix", "--rtt-ms", "1e20"][..], "rtt_ms"),
        // 18446744074 s is past `u64` nanoseconds: it used to wrap to 0.29 s.
        (&["single-flow", "--secs", "18446744074"][..], "run_secs"),
        (&["neighbors", "--secs", "18446744074"][..], "run_secs"),
        (&["abtest", "--seed", "18446744073709551615"][..], "seed"),
        (&["tune", "--reps", "100001"][..], "bootstrap_reps"),
        (&["tune", "--reps", "0"][..], "bootstrap_reps"),
        (&["abtest", "--users", "0"][..], "users_per_arm"),
        (&["stream", "--sessions", "0"][..], "sessions_per_user"),
    ] {
        let out = sammy_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(field), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was simulated");
    }
}

/// `neighbors` averages Fig 8a's delay from the video's startup transient
/// (15 s) on. A run that ends by then used to print NaN rows and exit 0.
#[test]
fn neighbors_run_inside_the_startup_transient_exits_2_naming_secs() {
    for secs in ["10", "15"] {
        let out = sammy_sim(&["neighbors", "--secs", secs]);
        assert_eq!(out.status.code(), Some(2), "--secs {secs}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--secs"), "--secs {secs}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "--secs {secs}: nothing was simulated"
        );
    }
}

/// Every `sammy-sim` invocation a file documents, as argument lists:
/// backslash continuations joined, `$ARGS` expanded from the file's own
/// `ARGS="…"`, everything up to the subcommand and from a redirection on
/// dropped.
fn documented_invocations(text: &str) -> Vec<Vec<String>> {
    // The subcommand names, from the binary's own usage line:
    // `usage: sammy-sim <single-flow|matrix|…> [flags]`.
    let usage = String::from_utf8(sammy_sim(&[]).stderr).unwrap();
    let names = usage.split(['<', '>']).nth(1).expect("usage line");
    let subcommands: Vec<&str> = names.split('|').collect();
    let joined = text.replace("\\\n", " ");
    let args_var = joined
        .split("ARGS=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("");
    joined
        .lines()
        .filter(|line| line.contains("--bin sammy-sim") || line.contains("/sammy-sim "))
        .map(|line| {
            line.replace("$ARGS", args_var)
                .split_whitespace()
                .skip_while(|w| !subcommands.contains(w))
                .take_while(|w| !matches!(*w, ">" | "&"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .filter(|words| !words.is_empty())
        .collect()
}

/// The same command line at a size a debug build finishes in a second or
/// two: documented sizes dropped and tiny ones appended, output paths
/// moved under `scratch`.
fn tiny(args: &[String], scratch: &std::path::Path) -> Vec<String> {
    let under_scratch = |name: &str| scratch.join(name).display().to_string();
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--users" | "--secs" | "--reps" | "--shard-size" => {
                it.next();
            }
            "--checkpoint-dir" => {
                it.next();
                out.extend([a.clone(), under_scratch("ckpt")]);
            }
            "--metrics" => match it.next() {
                Some(dash) if dash == "-" => out.extend([a.clone(), dash.clone()]),
                _ => out.extend([a.clone(), under_scratch("out.jsonl")]),
            },
            _ => out.push(a.clone()),
        }
    }
    let subcommand = args[0].as_str();
    if ["single-flow", "matrix", "quickstart"].contains(&subcommand) {
        out.extend(["--secs", "2"].map(String::from));
    }
    if ["abtest", "stream", "tune", "quickstart"].contains(&subcommand) {
        out.extend(["--users", "4", "--reps", "20"].map(String::from));
    }
    out
}

#[test]
fn every_documented_command_line_still_runs() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = Vec::new();
    for (tag, file) in [("readme", "README.md"), ("ci", ".github/workflows/ci.yml")] {
        // One scratch directory a file: its `--resume` lines resume its
        // own checkpoints.
        let scratch =
            std::env::temp_dir().join(format!("sammy-cli-flags-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        for args in documented_invocations(&text) {
            let small = tiny(&args, &scratch);
            let argv: Vec<&str> = small.iter().map(String::as_str).collect();
            let out = sammy_sim(&argv);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{file}: `sammy-sim {}` (run as {argv:?}): {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            );
            seen.push(args.join(" "));
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    // The extraction is not vacuous, and reaches the lines CI depends on.
    assert!(seen.len() >= 12, "{seen:#?}");
    for needle in [
        "quickstart --users 6 --secs 10 --metrics out.jsonl",
        "--checkpoint-dir ckpt --resume",
        "tune --users 256",
    ] {
        assert!(
            seen.iter().any(|s| s.contains(needle)),
            "{needle}: {seen:#?}"
        );
    }
}
