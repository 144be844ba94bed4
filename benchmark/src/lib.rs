//! The repo's benchmark. See README.md in this directory and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! wcc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! wcc-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--runs <k>] [--quick] [--out <file>]
//! wcc-benchmark compare <a.json> <b.json>
//! wcc-benchmark selfcheck [--seed <n>] [--seconds <s>] [--runs <k>] [--quick]
//! ```
//!
//! The first form measures one workload in this process and prints one JSON
//! result line last on stdout; everything for people goes to stderr. `run`
//! starts that form once per workload and trace mode in a child process of
//! its own, so peak memory and the program's process-global counters are per
//! workload.

mod affinity;
mod compare;
mod harness;
pub mod json;
mod loadgen;
pub mod metrics;
mod oneshot;
mod serve;
mod stats;
mod stream;
mod trace;
mod truth;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Config, Outcome};
use json::Json;

/// The workloads, in `BENCHMARK.json`'s order (which also gives the reason
/// each exists).
pub const WORKLOADS: &[&str] = &[
    "oneshot_expander",
    "oneshot_ring",
    "stream_insert",
    "stream_churn",
    "serve_live",
];

/// How long one run measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub(crate) const DEFAULT_SECONDS: f64 = 12.0;

/// Where the traced run of `workload` writes its spans.
pub(crate) fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

/// Runs the command line; `main` only forwards here.
pub fn cli_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => compare::run_all(&args[1..]),
        Some("compare") => compare::compare_files(&args[1..]),
        Some("selfcheck") => compare::selfcheck(&args[1..]),
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("wcc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `args`, if present.
pub(crate) fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parsed value of `--flag`, or `default` when the flag is absent.
pub(crate) fn flag_value<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse::<T>()
            .map_err(|_| format!("{name} cannot take the value {v}"))
    })
}

fn parse_config(args: &[String]) -> Result<Config, String> {
    let workload = flag(args, "--workload")
        .ok_or("--workload <name> is required (or a subcommand: run, compare, selfcheck)")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = flag_value(args, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must lie in (0, 60], got {seconds}"));
    }
    Ok(Config {
        workload: workload.to_string(),
        seed: flag_value(args, "--seed", 7u64)?,
        seconds,
        trace: flag_value(args, "--trace", 0u8)? != 0,
        quick: args.iter().any(|a| a == "--quick"),
        corrupt_truth: args.iter().any(|a| a == "--corrupt-truth"),
    })
}

/// Measures one workload in this process and prints its result line.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let cfg = parse_config(args)?;
    // `Params::walk_kernel.resolve()` and the executor read these; a run
    // under either would measure a different program.
    for var in [wcc_mpc::THREADS_ENV_VAR, wcc_core::WalkKernel::ENV_VAR] {
        if std::env::var_os(var).is_some() {
            return Err(format!("refusing to run with {var} set"));
        }
    }
    let outcome: Outcome = match cfg.workload.as_str() {
        "oneshot_expander" => oneshot::run(&cfg, oneshot::Family::Expander),
        "oneshot_ring" => oneshot::run(&cfg, oneshot::Family::Ring),
        "stream_insert" => stream::run(&cfg, stream::Kind::Insert),
        "stream_churn" => stream::run(&cfg, stream::Kind::Churn),
        "serve_live" => serve::run(&cfg),
        other => unreachable!("workload {other} passed validation"),
    }?;
    eprintln!(
        "{} seed {} trace {}: {} outputs checked, {} wrong",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        outcome.checks.attempted,
        outcome.checks.failed
    );
    outcome.metrics.print();
    let correct = outcome.checks.failed == 0;
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        (
            "attempted".to_string(),
            Json::Num(outcome.checks.attempted as f64),
        ),
        (
            "failed".to_string(),
            Json::Num(outcome.checks.failed as f64),
        ),
        ("metrics".to_string(), outcome.metrics.to_json()?),
    ]);
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
