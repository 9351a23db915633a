//! `perfbench`: MiniCost's layered benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs them through
//! MiniCost's public entry points for about `--seconds`, checks the outputs,
//! and prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. A host-stamped copy of the result goes to
//! `.perfbench/results/`, and a traced run's spans to `.perfbench/spans/`.
//! Exits non-zero when an output check fails or the run cannot complete.

mod host;
mod layers;
mod metrics;
mod spans;
mod workloads;
mod wrap;

use host::Host;
use metrics::{readings, valid_name, valid_unit, Metric, Reading, END_TO_END, PER_LAYER};
use serde::Serialize;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Check, RunCtx, Workload};

const USAGE: &str =
    "usage: perfbench --workload <simulate-rl|serve-store|serve-bounded|train-a3c> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where results, spans and scratch files go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The metric set a run must print, in declaration order.
fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Checks the printed metrics are exactly the declared ones, well-named and
/// finite.
fn validate_metrics(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let names: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if names != declared(trace) {
        return Err(format!("run printed {names:?}, not the declared metrics"));
    }
    for m in metrics {
        if !valid_name(&m.name) || !valid_unit(m.unit) || !m.value.is_finite() {
            return Err(format!("metric {} = {} {} is malformed", m.name, m.value, m.unit));
        }
    }
    Ok(())
}

/// The JSON object a run prints as the last line of standard output.
#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reading>,
}

/// The results file: the summary with the run's parameters, the host
/// stamp, the wall and CPU time of every timed call, every check and the
/// extra figures.
#[derive(Serialize)]
struct Results {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: Host,
    correct: bool,
    attempted: u64,
    failed: u64,
    walls_s: Vec<f64>,
    cpus_s: Vec<f64>,
    checks: Vec<Check>,
    notes: BTreeMap<String, Reading>,
    metrics: BTreeMap<String, Reading>,
}

fn write_file(path: &Path, body: &str) {
    if let Err(e) = path.parent().map_or(Ok(()), std::fs::create_dir_all) {
        eprintln!("perfbench: {}: {e}", path.display());
    } else if let Err(e) = std::fs::write(path, body) {
        eprintln!("perfbench: {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        scratch: PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id())),
        tracer: Tracer::new(),
    };
    let result = std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("{}: {e}", ctx.scratch.display()))
        .and_then(|()| workloads::run(args.workload, &ctx, args.trace));
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_metrics(&out.metrics, args.trace) {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    let correct = out.correct();
    if !correct {
        // A run whose outputs are wrong counts every operation as failed.
        out.failed = out.attempted;
    }
    let out_dir = Path::new(OUT_DIR);
    if args.trace {
        // One spans file per workload (the last traced run's), since a
        // traced A3C run records about 200k spans.
        let path = out_dir.join("spans").join(format!("{}.jsonl", args.workload.name()));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
    }
    let attempted = out.attempted.max(1);
    let summary =
        Summary { correct, attempted, failed: out.failed, metrics: readings(&out.metrics) };
    let results = Results {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host: host.clone(),
        correct,
        attempted,
        failed: out.failed,
        walls_s: out.walls_s.clone(),
        cpus_s: out.cpus_s.clone(),
        checks: out.checks.clone(),
        notes: readings(&out.notes),
        metrics: readings(&out.metrics),
    };
    let (summary, results) =
        match (serde_json::to_string(&summary), serde_json::to_string(&results)) {
            (Ok(summary), Ok(results)) => (summary, results),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench: {}: {e}", args.workload.name());
                return ExitCode::FAILURE;
            }
        };
    write_file(
        &out_dir.join("results").join(format!("{stem}-trace{}.json", u8::from(args.trace))),
        &format!("{results}\n"),
    );

    println!(
        "perfbench {} seed {} ({}): nproc={} cpu={:?} rustc={:?} profile={} git={}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.profile,
        host.git_sha,
    );
    for c in &out.checks {
        println!("check {:<44} {}", c.check, if c.ok { "ok" } else { "FAILED" });
    }
    for m in out.metrics.iter().chain(&out.notes) {
        println!("{:<30} {:>20} {}", m.name, m.value, m.unit);
    }
    let failed_frac = out.failed as f64 / attempted as f64;
    println!(
        "{:<30} {:>20} ratio ({} of {} operations)",
        "failed_frac", failed_frac, out.failed, out.attempted
    );
    println!("{summary}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            args(&["--workload", "serve-store", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .expect("valid");
        assert_eq!(a.workload, Workload::ServeStore);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "train-a3c", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "train-a3c", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "train-a3c",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn metric_set_must_match_the_declaration() {
        let good: Vec<Metric> = END_TO_END.iter().map(|(n, u)| Metric::new(*n, u, 1.5)).collect();
        assert!(validate_metrics(&good, false).is_ok());
        assert!(validate_metrics(&good, true).is_err());
        let mut nan = good.clone();
        nan[0].value = f64::NAN;
        assert!(validate_metrics(&nan, false).is_err());
        assert!(validate_metrics(&good[1..], false).is_err());
    }

    #[test]
    fn summary_prints_the_contract_keys() {
        let summary = Summary {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: readings(&[Metric::new("setup_s", "s", 0.25)]),
        };
        assert_eq!(
            serde_json::to_string(&summary).expect("serializes"),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
