//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml --
//! --seed 7` runs every workload with the traced pass and prints every
//! metric. The benchmark driver appends `--workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` and reads the last line of standard
//! output.

use std::path::PathBuf;
use std::process::ExitCode;

use lightmamba_benchmark::measure::{self, Options, OVERVIEW_SECONDS, RUN_SECONDS};
use lightmamba_benchmark::report;
use lightmamba_benchmark::workload::{Size, Workload};

const USAGE: &str = "usage: --seed N [--workload NAME] [--smoke] [--seconds S] [--trace 0|1]
  --seed N         derives every token and the dealing of lengths (required)
  --workload NAME  single_stream | batch_decode | shared_prefix | mixed_traffic | paper_anchors
  --smoke          one quarter-size round per workload
  --seconds S      measured seconds per workload (default: BENCHMARK.json's run_seconds
                   with --workload, 12 when every workload runs in one process)
  --trace 0|1      0: timed rounds only; 1: add the traced pass and layer replay (default 1)";

struct Args {
    options: Options,
    /// `--trace` was given: print the driver's JSON line last.
    driver: Option<bool>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut seed = None;
    let mut workloads = Workload::ALL.to_vec();
    let mut size = Size::Full;
    let mut seconds = None;
    let mut driver = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--workload" => {
                let name = value()?;
                workloads =
                    vec![Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                driver = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // One workload per process is how the driver gates; every workload
    // in one process is the overview.
    let seconds = seconds.unwrap_or(match workloads.len() {
        1 => RUN_SECONDS,
        _ => OVERVIEW_SECONDS,
    });
    Ok(Args {
        options: Options {
            seed: seed.ok_or("--seed is required")?,
            workloads,
            seconds,
            size,
            trace: driver.unwrap_or(true),
            out_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
        },
        driver,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match measure::run(&args.options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::render(&run));
    if let Some(dir) = &args.options.out_dir {
        let name = match run.workloads.as_slice() {
            [one] => format!("result-{}.json", one.workload.name()),
            _ => "result.json".to_string(),
        };
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let json = report::result_json(&run, args.driver.is_none());
            std::fs::write(dir.join(&name), json)
        });
        match written {
            Ok(()) => println!("wrote {}", dir.join(name).display()),
            Err(e) => {
                eprintln!("cannot write the result file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(traced), [one]) = (args.driver, run.workloads.as_slice()) {
        println!("{}", report::contract_line(one, traced));
    }
    if run.workloads.iter().all(|w| w.correct()) {
        ExitCode::SUCCESS
    } else {
        eprintln!("outputs are not correct: see the notes above");
        ExitCode::FAILURE
    }
}
