//! Pins everything `serve_traffic` prints: its stdout in smoke and in
//! full mode must equal the recorded runs byte for byte — every study's
//! tables, the scenario and slot sweeps, and the `BENCH_JSON` line. All
//! of it is seeded and step-denominated, so nothing is masked.
//!
//! The two recorded runs are release-only, like the other bench pins:
//! together they take ~7 s at optimizer settings and minutes without
//! them, so they self-skip on debug builds.

use std::process::{Command, Output};

fn serve_traffic(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve_traffic"))
        .args(args)
        .output()
        .expect("serve_traffic runs")
}

/// Runs `serve_traffic` with `args` and compares its stdout with `want`,
/// naming the first line that moved.
fn assert_stdout(args: &[&str], want: &str) {
    if cfg!(debug_assertions) {
        eprintln!("skipping serve_traffic golden: debug build");
        return;
    }
    let output = serve_traffic(args);
    assert!(output.status.success(), "serve_traffic failed: {output:?}");
    let got = String::from_utf8(output.stdout).expect("utf-8 output");
    for (i, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(got, want);
}

#[test]
fn smoke_run_prints_the_recorded_stdout() {
    assert_stdout(&["--smoke"], include_str!("golden/serve_traffic_smoke.txt"));
}

#[test]
fn full_run_prints_the_recorded_stdout() {
    assert_stdout(&[], include_str!("golden/serve_traffic_full.txt"));
}

#[test]
fn any_other_argument_is_a_usage_error_naming_the_three() {
    for (args, error) in [
        (
            &["--smoke", "--policy", "edf"][..],
            "unknown argument \"--policy\"",
        ),
        (&["--smoke", "--trace-out"][..], "--trace-out needs a PATH"),
    ] {
        let output = serve_traffic(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} ran a study");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 output");
        assert_eq!(
            stderr,
            format!("{error}\nusage: serve_traffic [--smoke] [--metrics-dump PATH] [--trace-out PATH]\n")
        );
    }
}
