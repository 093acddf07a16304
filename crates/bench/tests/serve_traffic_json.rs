//! Pins `serve_traffic`'s machine-readable output: the `BENCH_JSON`
//! line of a smoke run with every opt-in study switched on must equal
//! the recorded one key for key and digit for digit. Everything in it
//! is seeded and step-denominated except the observability study's
//! three wall-clock fields, which are masked on both sides.
//!
//! Release-only, like the other bench pins: the run takes ~2 s at
//! optimizer settings and most of a minute without them, so the test
//! self-skips on debug builds.

use std::process::Command;

const FLAGS: &str =
    "--smoke --preempt --sessions --cancel-rate 0.25 --chaos --seed 7 --prefix-cache --token-budget";
const WALL_CLOCK_KEYS: [&str; 3] = [
    "bare_steps_per_s",
    "instrumented_steps_per_s",
    "overhead_pct",
];

/// Replaces the value of each wall-clock key with `_`.
fn mask_wall_clock(json: &str) -> String {
    let mut out = json.trim().to_string();
    for key in WALL_CLOCK_KEYS {
        let tag = format!("\"{key}\":");
        let start = out
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {out}"))
            + tag.len();
        let end = start + out[start..].find([',', '}']).expect("value ends");
        out.replace_range(start..end, "_");
    }
    out
}

#[test]
fn all_studies_smoke_json_matches_the_recorded_line() {
    if cfg!(debug_assertions) {
        eprintln!("skipping serve_traffic golden: debug build");
        return;
    }
    let output = Command::new(env!("CARGO_BIN_EXE_serve_traffic"))
        .args(FLAGS.split(' '))
        .output()
        .expect("serve_traffic runs");
    assert!(output.status.success(), "serve_traffic failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("BENCH_JSON "))
        .expect("a BENCH_JSON line");
    lightmamba_obs::json::parse(line).expect("BENCH_JSON is well-formed JSON");

    let got = mask_wall_clock(line);
    let want = mask_wall_clock(include_str!("golden/serve_traffic_smoke_all.json"));
    // Fragment by fragment first, so a failure names the key that moved.
    for (got, want) in got.split(',').zip(want.split(',')) {
        assert_eq!(got, want);
    }
    assert_eq!(got, want);
}
