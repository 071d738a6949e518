//! `sammy-sim` flag handling, driven through the built binary.
//!
//! A flag that is present but does not parse must stop the run: falling
//! back to the default would report a 150-user experiment to someone who
//! asked (with a typo) for a different one.

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
