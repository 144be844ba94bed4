//! `run`, `compare` and `selfcheck`: the whole benchmark in child processes,
//! and the regression rule applied to two result files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::harness::nproc;
use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::{flag, flag_value, DEFAULT_SECONDS, WORKLOADS};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json` at the repo root: the one place bounds and directions
/// are written down.
fn load_contract() -> Result<Json, String> {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

struct RunOptions {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    runs: u64,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    let quick = args.iter().any(|a| a == "--quick");
    Ok(RunOptions {
        workloads: match flag(args, "--workload") {
            Some(w) if WORKLOADS.contains(&w) => vec![w.to_string()],
            Some(w) => return Err(format!("unknown workload {w}")),
            None => WORKLOADS.iter().map(|w| w.to_string()).collect(),
        },
        seed: flag_value(args, "--seed", 7)?,
        seconds: flag_value(args, "--seconds", if quick { 1.0 } else { DEFAULT_SECONDS })?,
        runs: flag_value(args, "--runs", 1u64)?.max(1),
        quick,
        out: flag(args, "--out").map(PathBuf::from),
    })
}

/// Runs one workload in a child process and returns its parsed result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) exited with {}",
            output.status
        ));
    }
    Json::parse(line).map_err(|e| format!("{workload} printed no result line: {e}"))
}

fn host_block() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::Obj(vec![
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        ("cpu".to_string(), Json::Str(cpu)),
        ("unix_time_s".to_string(), Json::Num(unix_s as f64)),
    ])
}

/// Runs every selected workload `runs` times untraced (seeds `seed`,
/// `seed + 1`, …) and once traced, prints every metric, and returns the
/// result document.
fn run_to_document(opts: &RunOptions) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for workload in &opts.workloads {
        let mut end_to_end: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in 0..opts.runs {
            let result = run_child(workload, opts.seed + r, opts.seconds, false, opts.quick)?;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a value")?;
                let unit = metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                match end_to_end.iter_mut().find(|(n, _, _)| n == name) {
                    Some(row) => row.2.push(value),
                    None => end_to_end.push((name.clone(), unit, vec![value])),
                }
            }
        }
        let traced = run_child(workload, opts.seed, opts.seconds, true, opts.quick)?;
        attempted += traced
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += traced.get("failed").and_then(Json::as_f64).unwrap_or(0.0);

        println!("{workload}: {attempted} outputs checked, {failed} wrong");
        for (name, unit, values) in &end_to_end {
            println!(
                "  {name:<44} {:>16.6} {unit}  (median of {})",
                median(values),
                values.len()
            );
        }
        let per_layer = traced
            .get("metrics")
            .cloned()
            .unwrap_or(Json::Obj(Vec::new()));
        for (name, metric) in per_layer.as_obj().unwrap_or(&[]) {
            let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<44} {value:>16.6} {unit}");
        }
        workloads.push((
            workload.clone(),
            Json::Obj(vec![
                ("attempted".to_string(), Json::Num(attempted)),
                ("failed".to_string(), Json::Num(failed)),
                (
                    "end_to_end".to_string(),
                    Json::Obj(
                        end_to_end
                            .into_iter()
                            .map(|(name, unit, values)| {
                                (
                                    name,
                                    Json::Obj(vec![
                                        ("unit".to_string(), Json::Str(unit)),
                                        (
                                            "values".to_string(),
                                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                                        ),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("per_layer".to_string(), per_layer),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("host".to_string(), host_block()),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("runs".to_string(), Json::Num(opts.runs as f64)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]))
}

fn write_document(doc: &Json, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_run_options(args)?;
    let doc = run_to_document(&opts)?;
    if let Some(path) = &opts.out {
        write_document(&doc, path)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// How one (metric, workload) row compares.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// tell a regression from noise: more runs (or a steadier host) needed.
    Unresolved,
}

/// Applies one metric's bound to two sets of runs. `worse` is the share of
/// `a`'s median by which `b`'s median is worse, in the metric's direction.
fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse = if higher_is_better {
        (qa[1] - qb[1]) / qa[1]
    } else {
        (qb[1] - qa[1]) / qa[1]
    };
    let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]).abs();
    let all_better = if higher_is_better {
        b.iter().cloned().fold(f64::INFINITY, f64::min)
            > a.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// Compares result document `b` against `a` row by row. Returns the number
/// of regressed rows (a rise in wrong outputs counts as one).
fn compare_documents(a: &Json, b: &Json) -> Result<usize, String> {
    let contract = load_contract()?;
    let metrics = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file lacks workloads")?;
    let mut regressions = 0;
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse", "spread", "bound"
    );
    for (workload, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            println!(
                "{workload:<18} wrong outputs rose from {} to {}  regressed",
                failed(wa),
                failed(wb)
            );
            regressions += 1;
        }
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let values = |w: &Json| -> Option<Vec<f64>> {
                let arr = w.get("end_to_end")?.get(name)?.get("values")?.as_arr()?;
                Some(arr.iter().filter_map(Json::as_f64).collect())
            };
            let (Some(va), Some(vb)) = (values(wa), values(wb)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse, spread) = judge(&va, &vb, higher, bound);
            regressions += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<18} {name:<24} {:>12.5} {:>12.5} {:>7.1}% {:>7.1}% {:>6.0}%  {}",
                median(&va),
                median(&vb),
                100.0 * worse,
                100.0 * spread,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressions)
}

fn load_document(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

pub fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let regressions = compare_documents(&load_document(a)?, &load_document(b)?)?;
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the whole benchmark twice on the same code and compares the two.
pub fn selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = parse_run_options(args)?;
    if flag(args, "--runs").is_none() {
        opts.runs = 5;
    }
    let out = manifest_dir().join("out");
    let first = run_to_document(&opts)?;
    write_document(&first, &out.join("selfcheck-a.json"))?;
    let second = run_to_document(&opts)?;
    write_document(&second, &out.join("selfcheck-b.json"))?;
    let regressions = compare_documents(&first, &second)?;
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_regression_noise_and_parity() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&steady, &steady, false, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&steady, &slower, false, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&steady, &noisy, false, 0.1).0, Verdict::Unresolved);
        // For a rate, the slower side is the lower one.
        assert_eq!(judge(&slower, &steady, true, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&steady, &slower, true, 0.1).0, Verdict::Ok);
        // Noisy, but every run better than every run of the parent: resolved.
        let fast_noisy = [4.0, 6.0, 5.0, 7.0, 3.0];
        assert_eq!(judge(&steady, &fast_noisy, false, 0.1).0, Verdict::Ok);
    }
}
