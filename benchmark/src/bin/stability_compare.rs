//! Compares two sets of result files of one build, given alternately
//! (`A1 B1 A2 B2 A3 B3`, of one workload after another or of all at
//! once): per metric and workload the two medians, their relative gap
//! and the bound. Exits non-zero when a bounded wall-lane metric's gap
//! exceeds its bound or an exact-lane metric differs at all between any
//! two files. A metric with no value on a workload is skipped.
//! `stability.sh` drives it.

use std::process::ExitCode;

use lightmamba_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use lightmamba_benchmark::stats::median_of;
use lightmamba_obs::json::{parse, JsonValue};

/// `files[i]`'s value of `metric` in `list` of `workload`.
fn value(file: &JsonValue, workload: &str, list: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(workload))?
        .get(list)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() || paths.len() % 2 == 1 {
        eprintln!("usage: stability_compare A1.json B1.json [A2.json B2.json ...]");
        return ExitCode::from(2);
    }
    let mut files = Vec::new();
    for p in &paths {
        match std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| parse(&s))
        {
            Ok(v) => files.push(v),
            Err(e) => {
                eprintln!("{p}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut violations = 0usize;
    println!(
        "{:<15} {:<42} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    let lists: [(&str, &[MetricSpec]); 2] =
        [("end_to_end", &END_TO_END), ("per_layer", &PER_LAYER)];
    for w in &WORKLOADS {
        for (list, specs) in lists {
            for m in specs {
                let all: Vec<f64> = files
                    .iter()
                    .filter_map(|f| value(f, w.name, list, m.name))
                    .collect();
                if all.is_empty() {
                    continue;
                }
                // The files holding this workload alternate A B.
                let set = |parity: usize| -> Vec<f64> {
                    all.iter().skip(parity).step_by(2).copied().collect()
                };
                let (a, b) = (median_of(&set(0)), median_of(&set(1)));
                let gap = if a == b {
                    0.0
                } else {
                    (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
                };
                let (bound, bad) = if m.exact {
                    (
                        "exact".to_string(),
                        all.iter().any(|v| v.to_bits() != all[0].to_bits()),
                    )
                } else {
                    match m.bound {
                        Some(b) => (format!("{:.0}%", b * 100.0), gap > b),
                        None => ("-".to_string(), false),
                    }
                };
                violations += usize::from(bad);
                println!(
                    "{:<15} {:<42} {:>14.6} {:>14.6} {:>7.2}% {:>7}{}",
                    w.name,
                    m.name,
                    a,
                    b,
                    gap * 100.0,
                    bound,
                    if bad { "  <-- VIOLATION" } else { "" }
                );
            }
        }
    }
    if violations > 0 {
        eprintln!("{violations} metric(s) outside their bound");
        return ExitCode::FAILURE;
    }
    println!("every wall-lane median within its bound; every exact-lane value identical");
    ExitCode::SUCCESS
}
