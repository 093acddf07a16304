//! Determinism and schema of the benchmark, at smoke sizes.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use lightmamba_benchmark::measure::{run, Options, RunResult};
use lightmamba_benchmark::report::{contract_line, result_json};
use lightmamba_benchmark::spec::{
    moves, valid_name, valid_unit, MetricSpec, END_TO_END, MOVES, PER_LAYER, WORKLOADS,
};
use lightmamba_benchmark::workload::{Size, Workload};
use lightmamba_obs::json::{parse, JsonValue};

fn smoke(seed: u64, trace: bool, out_dir: Option<PathBuf>) -> RunResult {
    run(&Options {
        seed,
        workloads: Workload::ALL.to_vec(),
        seconds: 1.0,
        size: Size::Smoke,
        trace,
        out_dir,
    })
    .expect("smoke run")
}

fn exact_values(r: &RunResult) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for w in &r.workloads {
        out.push((format!("{}/digest", w.workload.name()), w.digest));
        out.push((format!("{}/failed", w.workload.name()), w.failed));
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let v = w.per_layer[m.name]
                .value
                .expect("exact values are always defined");
            out.push((format!("{}/{}", w.workload.name(), m.name), v.to_bits()));
        }
    }
    out
}

/// One traced smoke run checked every way, a second for determinism, a
/// third under another seed.
#[test]
fn smoke_run_is_correct_deterministic_and_well_formed() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-out");
    let a = smoke(7, true, Some(out.clone()));
    let b = smoke(7, true, None);
    let c = smoke(8, false, None);

    // Outputs are correct and every request was checked.
    for w in &a.workloads {
        assert!(w.correct(), "{}: {:?}", w.workload.name(), w.notes);
        assert!(w.attempted > 0);
    }

    // Same seed: every exact-lane value and per-layer count identical.
    assert_eq!(exact_values(&a), exact_values(&b));

    // Another seed: other requests (`paper_anchors` sends none).
    for (x, y) in a.workloads.iter().zip(&c.workloads) {
        assert_eq!(
            x.digest != y.digest,
            x.workload.is_serving(),
            "{}",
            x.workload.name()
        );
    }

    // Every metric of both lists is reported on every workload, as a
    // number wherever requests are served; the driver's lines parse and
    // carry exactly the contract's keys.
    for w in &a.workloads {
        for traced in [false, true] {
            let line = parse(&contract_line(w, traced)).expect("contract line is JSON");
            let JsonValue::Obj(members) = &line else {
                panic!("contract line is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let specs: &[MetricSpec] = if traced { &PER_LAYER } else { &END_TO_END };
            let JsonValue::Obj(metrics) = line.get("metrics").unwrap() else {
                panic!("metrics is an object")
            };
            assert_eq!(metrics.len(), specs.len());
            for (spec, (name, v)) in specs.iter().zip(metrics) {
                assert_eq!(spec.name, name);
                let timed_request = !traced && !matches!(spec.name, "setup_s" | "peak_rss_mb");
                assert_eq!(
                    v.get("value").and_then(JsonValue::as_f64).is_some(),
                    w.workload.is_serving() || !timed_request,
                    "{}: {name}",
                    w.workload.name()
                );
                assert_eq!(v.get("unit").and_then(JsonValue::as_str), Some(spec.unit));
            }
            assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        }
        // The layers a workload bypasses read zero; the ones it
        // exercises do not.
        let hits = w.per_layer["serve.prefix.hits"].value.unwrap();
        assert_eq!(hits > 0.0, w.workload == Workload::SharedPrefix);
        let hop = w.per_layer["serve.frontend.submit_us_p50"].value;
        assert_eq!(
            hop.is_some_and(|v| v > 0.0),
            w.workload == Workload::SingleStream
        );
        assert_eq!(w.per_layer["obs.spans_dropped"].value, Some(0.0));
    }
    let preemptions = |r: &RunResult| r.workloads[3].per_layer["serve.scheduler.preemptions"].value;
    assert!(preemptions(&a).unwrap() > 0.0, "mixed_traffic preempts");

    // The anchors' exact values ride on every traced run.
    for w in &a.workloads {
        assert_eq!(
            w.per_layer["w4a4_mean_kl"],
            a.workloads[4].per_layer["w4a4_mean_kl"],
            "{}",
            w.workload.name()
        );
    }

    // The result file and the four Chrome traces parse; the file says of
    // every per-layer metric which lane it is in and what it should move.
    let result = parse(&result_json(&a, false)).expect("result JSON parses");
    assert_eq!(result.get("schema").and_then(JsonValue::as_f64), Some(2.0));
    assert_eq!(
        result.get("workloads").unwrap().as_array().unwrap().len(),
        5
    );
    let listed = result.get("spec").and_then(|s| s.get("per_layer")).unwrap();
    let listed = listed.as_array().unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (spec, v) in PER_LAYER.iter().zip(listed) {
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some(spec.name));
        assert_eq!(v.get("exact"), Some(&JsonValue::Bool(spec.exact)));
        assert_eq!(
            v.get("moves").and_then(JsonValue::as_str),
            Some(moves(spec.name))
        );
    }
    for w in Workload::ALL.iter().filter(|w| w.is_serving()) {
        let trace = read_json(&out.join(format!("trace-{}.json", w.name())));
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let names: HashSet<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        for expected in ["request", "queue", "prefill", "decode", "engine.phase.step"] {
            assert!(names.contains(expected), "{}: no {expected} span", w.name());
        }
        let harness = match w {
            Workload::SingleStream => ["frontend.submit", "stream.recv"],
            _ => ["engine.step", "engine.take_events"],
        };
        assert!(harness.iter().all(|n| names.contains(n)), "{}", w.name());
    }
}

fn read_json(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Names, units and list sizes hold the contract's limits, and
/// `BENCHMARK.json` says what the source says.
#[test]
fn benchmark_json_mirrors_the_source_and_meets_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = HashSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
    {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
    }
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    // Every layer of the map has metrics, and names what they move.
    for (prefix, what) in &MOVES {
        assert!(
            PER_LAYER.iter().any(|m| m.name.starts_with(prefix)),
            "{prefix}"
        );
        assert!(!what.is_empty(), "{prefix}");
    }
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better.as_str() == "lower"));

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let file = parse(&text).expect("BENCHMARK.json parses");
    let JsonValue::Obj(members) = &file else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<&str> {
        file.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(
        strings("command"),
        [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--"
        ]
    );
    assert_eq!(
        file.get("run_seconds").and_then(JsonValue::as_f64),
        Some(lightmamba_benchmark::measure::RUN_SECONDS)
    );
    let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_string();
    // The listed workloads serve: every end-to-end metric is a number
    // there.
    let listed = file.get("workloads").and_then(JsonValue::as_array).unwrap();
    let gated = WORKLOADS.iter().filter(|w| w.listed);
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), gated.clone().count());
    for (spec, v) in gated.zip(listed) {
        assert!(Workload::from_name(spec.name).is_some_and(Workload::is_serving));
        assert_eq!(
            (field(v, "name"), field(v, "why")),
            (spec.name.into(), spec.why.into())
        );
    }
    for (key, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = file.get(key).and_then(JsonValue::as_array).unwrap();
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (spec, v) in specs.iter().zip(listed) {
            assert_eq!(field(v, "name"), spec.name);
            assert_eq!(field(v, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(field(v, "better"), spec.better.as_str(), "{}", spec.name);
            assert_eq!(
                v.get("bound").and_then(JsonValue::as_f64),
                spec.bound,
                "{}",
                spec.name
            );
        }
    }
}
