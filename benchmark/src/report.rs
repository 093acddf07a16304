//! Rendering a [`RunResult`]: the table printed to standard output, the
//! result JSON written to `out/`, and the one-line JSON object the
//! benchmark driver reads.

use std::fmt::Write as _;
use std::process::Command;

use lightmamba_obs::json::escape;

use crate::measure::{Metrics, RunResult, Value, WorkloadResult};
use crate::spec::{moves, MetricSpec, END_TO_END, PER_LAYER};
use crate::workload::{Size, Workload};

/// Version of the result file's layout.
pub const SCHEMA_VERSION: u32 = 2;

/// A finite number as JSON, with every digit; `null` otherwise.
fn num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

fn metric_json(spec: &MetricSpec, v: &Value) -> String {
    let (q1, q3) = v
        .quartiles
        .map_or((None, None), |(a, b)| (Some(a), Some(b)));
    format!(
        "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"q1\":{},\"q3\":{}}}",
        spec.name,
        num(v.value),
        spec.unit,
        v.n,
        num(q1),
        num(q3)
    )
}

fn metrics_json(specs: &[MetricSpec], values: &Metrics) -> String {
    let members: Vec<String> = specs
        .iter()
        .filter_map(|s| values.get(s.name).map(|v| metric_json(s, v)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The metric tables as the result file carries them: what
/// `BENCHMARK.json` says of each metric, and what its entries have no key
/// for — the lane (`exact`: must repeat bit for bit, bound 0) and, per
/// layer metric, the end-to-end metric and workload it should move.
fn spec_json() -> String {
    let entry = |m: &MetricSpec| {
        let tail = match m.bound {
            Some(b) => format!("\"bound\":{b}"),
            None => format!("\"moves\":\"{}\"", escape(moves(m.name))),
        };
        format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"exact\":{},{tail}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.exact
        )
    };
    let list = |specs: &[MetricSpec]| specs.iter().map(entry).collect::<Vec<_>>().join(",");
    format!(
        "{{\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

/// First line of a command's standard output, `unknown` when it cannot
/// be run. The child has exited by the time this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The result file: the metric tables, every metric of every workload
/// with its unit, sample count and quartiles, the anchor table, and the
/// host. `identify` records the commit and compiler, which a ledger
/// entry needs; it starts two child processes (ended by the time this
/// returns), so the driver's runs go without.
pub fn result_json(run: &RunResult, identify: bool) -> String {
    let o = &run.options;
    let workloads: Vec<String> = run
        .workloads
        .iter()
        .map(|w| {
            let notes: Vec<String> = w
                .notes
                .iter()
                .map(|n| format!("\"{}\"", escape(n)))
                .collect();
            let anchors: Vec<String> = w
                .anchors
                .iter()
                .flat_map(|a| &a.cycle.table)
                .map(|a| {
                    format!(
                        "{{\"name\":\"{}\",\"paper\":{},\"model\":{},\"err_pct\":{}}}",
                        escape(a.name),
                        a.paper,
                        num(Some(a.model)),
                        num(Some(a.err_pct()))
                    )
                })
                .collect();
            format!(
                "{{\"name\":\"{}\",\"digest\":\"{:016x}\",\"requests_per_round\":{},\
                 \"ttft_supported_percentile\":{},\"rounds\":{},\"attempted\":{},\
                 \"failed\":{},\"correct\":{},\"notes\":[{}],\"end_to_end\":{},\
                 \"per_layer\":{},\"anchors\":[{}]}}",
                w.workload.name(),
                w.digest,
                w.requests,
                num(w.ttft_supported),
                w.round_log.len(),
                w.attempted,
                w.failed,
                w.correct(),
                notes.join(","),
                metrics_json(&END_TO_END, &w.end_to_end),
                metrics_json(&PER_LAYER, &w.per_layer),
                anchors.join(",")
            )
        })
        .collect();
    let (commit, rustc) = if identify {
        (
            first_line("git", &["rev-parse", "HEAD"]),
            first_line("rustc", &["-V"]),
        )
    } else {
        ("unrecorded".into(), "unrecorded".into())
    };
    format!(
        "{{\"schema\":{SCHEMA_VERSION},\"seed\":{},\"size\":\"{}\",\"seconds\":{},\"traced\":{},\
         \"commit\":\"{}\",\"rustc\":\"{}\",\"host\":{{\"nproc\":{},\"cpu_model\":\"{}\",\
         \"isa\":\"{}\",\"engine_threads\":1}},\"total_s\":{},\"spec\":{},\"workloads\":[{}]}}\n",
        o.seed,
        match o.size {
            Size::Full => "full",
            Size::Smoke => "smoke",
        },
        o.seconds,
        o.trace,
        escape(&commit),
        escape(&rustc),
        run.host.nproc,
        escape(&run.host.cpu_model),
        run.host.isa,
        num(Some(run.total_s)),
        spec_json(),
        workloads.join(",")
    )
}

/// The driver's line: `correct`, `attempted`, `failed`, and every
/// metric of one list as `{"value", "unit"}`. A value that does not
/// exist is written as `null`; on the end-to-end list of a serving
/// workload, where every value must exist, it also makes the result
/// incorrect.
pub fn contract_line(w: &WorkloadResult, traced: bool) -> String {
    let (specs, values): (&[MetricSpec], &Metrics) = if traced {
        (&PER_LAYER, &w.per_layer)
    } else {
        (&END_TO_END, &w.end_to_end)
    };
    let mut complete = true;
    let members: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = values
                .get(s.name)
                .and_then(|v| v.value)
                .filter(|v| v.is_finite());
            complete &= traced || v.is_some() || !w.workload.is_serving();
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                s.name,
                num(v),
                s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        w.correct() && complete,
        w.attempted.max(1),
        w.failed,
        members.join(",")
    )
}

fn row(out: &mut String, spec: &MetricSpec, v: &Value) {
    let value = v.value.map_or("n/a".to_string(), |x| format!("{x:.6}"));
    let spread = v
        .quartiles
        .map_or(String::new(), |(a, b)| format!("  q1 {a:.4}  q3 {b:.4}"));
    let bound = spec
        .bound
        .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
    let _ = writeln!(
        out,
        "  {:<44} {:>16} {:<10} n={:<6}{spread}{bound}",
        spec.name, value, spec.unit, v.n
    );
}

/// Everything, by name, for people.
pub fn render(run: &RunResult) -> String {
    let mut out = String::new();
    let o = &run.options;
    let _ = writeln!(
        out,
        "lightmamba benchmark: seed {}, {} rounds for {} s per workload, host {} ({} cpus, {} kernels), 1 engine thread",
        o.seed,
        if o.size == Size::Full { "full" } else { "quarter-size" },
        o.seconds,
        run.host.cpu_model,
        run.host.nproc,
        run.host.isa,
    );
    for w in &run.workloads {
        let _ = writeln!(
            out,
            "\n== {} == {} timed rounds, requests digest {:016x}, {} attempted, {} failed",
            w.workload.name(),
            w.round_log.len(),
            w.digest,
            w.attempted,
            w.failed
        );
        for note in &w.notes {
            let _ = writeln!(out, "  ! {note}");
        }
        if w.workload.is_serving() {
            let log: Vec<String> = w.round_log.iter().map(|t| format!("{t:.0}")).collect();
            let _ = writeln!(out, " rounds, tok/s: {}", log.join(" "));
            let _ = writeln!(
                out,
                " percentiles: nearest rank within a round over its {} distinct requests (its token gaps, its steps), then the median over rounds; n = rounds. Highest percentile with ten of a round's requests beyond it: {}",
                w.requests,
                w.ttft_supported
                    .map_or("none".to_string(), |q| format!("p{}", q * 100.0))
            );
        }
        let _ = writeln!(out, " end to end (wall lane, as measured):");
        for s in &END_TO_END {
            if let Some(v) = w.end_to_end.get(s.name) {
                row(&mut out, s, v);
            }
        }
        if !w.per_layer.is_empty() {
            let _ = writeln!(
                out,
                " per layer (0 = layer not exercised by this workload):"
            );
            for s in &PER_LAYER {
                if let Some(v) = w.per_layer.get(s.name) {
                    row(&mut out, s, v);
                }
            }
        }
        if let Some(a) = &w.anchors {
            let _ = writeln!(
                out,
                " paper anchors (cycle and roofline models vs Table IV):"
            );
            for x in &a.cycle.table {
                let _ = writeln!(
                    out,
                    "  {:<20} paper {:>8.3}  model {:>8.3}  err {:>6.2}%",
                    x.name,
                    x.paper,
                    x.model,
                    x.err_pct()
                );
            }
            let _ = writeln!(
                out,
                "  W4A4 vs FP: LightMamba mean KL {:.5} (RTN {:.5}), top-1 agreement {:.4}",
                a.w4a4_mean_kl, a.rtn_mean_kl, a.w4a4_top1_agree
            );
        }
    }
    let tok_s = |w: Workload| {
        run.workloads
            .iter()
            .find(|r| r.workload == w)
            .and_then(|r| r.end_to_end.get("decode_tok_s"))
            .and_then(|v| v.value)
    };
    if let (Some(b), Some(s)) = (tok_s(Workload::BatchDecode), tok_s(Workload::SingleStream)) {
        let _ = writeln!(
            out,
            "\nbatch scaling: batch_decode.decode_tok_s / single_stream.decode_tok_s = {:.1} / {:.1} = {:.3}",
            b,
            s,
            b / s
        );
    }
    let _ = writeln!(out, "total {:.1} s", run.total_s);
    out
}
