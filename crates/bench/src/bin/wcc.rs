//! `wcc` — command-line front end for the connectivity algorithms.
//!
//! ```text
//! USAGE:
//!   wcc <edge-list-file> [--algorithm wcc|adaptive|sublinear|hash-to-min|union-find]
//!                        [--lambda <gap>] [--memory <words>] [--seed <u64>]
//!                        [--threads <n>] [--sizes] [--json]
//!   wcc stream <chunk-file> [--seed <u64>] [--threads <n>] [--sizes] [--json]
//!   wcc pack <edge-or-op-list-file> <chunk-file> [--batch-size <ops>]
//!   wcc serve <chunk-file> [--addr <host:port>] [--repeat <n>]
//!                          [--ingest-delay-ms <ms>] [--exit-after <secs>]
//!                          [--seed <u64>] [--threads <n>] [--json]
//!
//! The edge-list format is one `u v` pair per line; `#`/`%` lines are comments.
//! A flag the chosen mode or algorithm never reads is an error, not a no-op:
//! in one-shot mode `--lambda` belongs to `--algorithm wcc` and `--memory` to
//! `--algorithm sublinear`.
//! Prints the number of components, the simulated MPC rounds, and (with
//! --sizes) the component size histogram. With --json, prints a single
//! machine-readable result record on stdout instead (scripts consume
//! this rather than scraping the human output); threaded runs include a
//! `pool` object with the persistent worker pool's telemetry
//! (dispatches, spawned threads, stolen chunks,
//! park/unpark counts), and runs that simulate random walks include a
//! `walk` object with the walk-kernel telemetry (steps, real moves vs
//! compressed stays, keystream words, refills, spec lane-group
//! fallbacks). `--threads 0` means one worker per available CPU;
//! without the flag, `WCC_THREADS` decides (same 0-means-auto convention).
//!
//! `wcc stream` replays a batch schedule in the binary chunk format (magic
//! `WCCS`, see `wcc_graph::io`) through the incremental engine: chunks are
//! decoded in parallel through the executor, each chunk is one batch, and
//! the per-batch path (union-find fast path, repair, or escalation),
//! rounds, words and wall time are reported — in a
//! `batches` array inside the same `--json` record the one-shot modes
//! emit. Every record carries an op tag, so a schedule may mix insertions
//! and turnstile deletions, with per-batch
//! `insertions`/`deletions`/`splits`/`sketch_recertifies`/`forest_cuts`
//! counts in the record (archived version-1 streams, which have no tag byte, replay
//! through the same reader as all-insert schedules). `wcc pack` converts a
//! text edge or op list into that format: lines may carry a `+`/`-` op
//! prefix, bare `u v` lines are insertions, and the output file appears
//! only if the whole input packed.
//!
//! `wcc serve` runs the same replay as a *live* service: it binds a TCP
//! listener (DESIGN.md §11 documents the wire protocol;
//! `crates/bench/tests/cli.rs` drives it as a client), prints
//! `LISTENING <addr>` as its first stdout
//! line (even under `--json` — harnesses read the address there, and the
//! JSON record is the *last* line), then ingests the schedule `--repeat`
//! times (0 = loop until a client sends SHUTDOWN) while concurrent
//! connections query the epoch-snapshot of the decomposition. After the
//! last batch it keeps serving until a SHUTDOWN request or `--exit-after`
//! seconds elapse. The `--json` record gains a `serve` object: ingest
//! aggregates plus server telemetry with a log-bucketed latency histogram.
//! ```
//!
//! Example:
//! ```text
//! cargo run --release -p wcc-bench --bin wcc -- my_graph.txt --algorithm adaptive --sizes
//! cargo run --release -p wcc-bench --bin wcc -- pack my_graph.txt batches.wccs --batch-size 1000
//! cargo run --release -p wcc-bench --bin wcc -- stream batches.wccs --json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use wcc_baselines::run_baseline;
use wcc_core::prelude::*;
use wcc_core::sublinear::{sublinear_components, SublinearParams};
use wcc_graph::prelude::*;
use wcc_mpc::{
    Executor, MpcConfig, MpcContext, PhaseStats, PoolTelemetry, RoundStats, WalkTelemetry,
};

#[derive(PartialEq)]
enum Mode {
    /// One-shot: load an edge list, run one algorithm.
    Run,
    /// Replay a binary batch schedule through the incremental engine.
    Stream,
    /// Convert a text edge or op list into the binary chunk format.
    Pack,
    /// Replay a batch schedule while serving component queries over TCP.
    Serve,
}

struct Options {
    mode: Mode,
    path: String,
    /// `pack` only: the output chunk file.
    out_path: String,
    /// `pack` only: ops per chunk.
    batch_size: usize,
    algorithm: String,
    lambda: f64,
    memory: usize,
    seed: u64,
    /// Execution-backend worker threads. An absent `--threads` flag leaves
    /// this 0 = resolve from WCC_THREADS; an explicit `--threads 0` is
    /// rewritten to one worker per available CPU at parse time.
    threads: usize,
    show_sizes: bool,
    json: bool,
    /// `serve` only: listen address (`host:port`, port 0 = ephemeral).
    addr: String,
    /// `serve` only: ingest the schedule this many times (0 = loop until a
    /// client requests shutdown).
    repeat: usize,
    /// `serve` only: sleep between batches, in milliseconds (throttles
    /// ingestion so a schedule lasts long enough to query against).
    ingest_delay_ms: f64,
    /// `serve` only: exit this many seconds after ingestion finishes even
    /// without a shutdown request (0 = wait for the request forever).
    exit_after_s: f64,
}

/// The machine-readable record emitted by `--json`: everything the
/// experiment harness needs, in one line of JSON on stdout.
#[derive(Serialize)]
struct JsonReport {
    algorithm: String,
    input: String,
    vertices: usize,
    edges: usize,
    seed: u64,
    components: usize,
    /// Simulated MPC rounds; absent for the sequential reference.
    total_rounds: Option<u64>,
    /// Words of cross-machine communication; absent for the sequential
    /// reference.
    communication_words: Option<u64>,
    /// Largest simulated per-machine load, in words.
    max_machine_load_words: Option<usize>,
    /// Memory-budget violations recorded in permissive mode.
    memory_violations: Option<u64>,
    /// Wall-clock time of the algorithm run, in milliseconds.
    wall_time_ms: f64,
    /// Per-phase breakdown in execution order — each entry carries `name`,
    /// `rounds`, `communication_words` and `wall_time_ms` (the phase's
    /// wall-clock share of the run, a simulator observable rather than a
    /// model quantity). Absent for the sequential reference.
    phases: Option<Vec<PhaseStats>>,
    /// Per-batch breakdown of a `wcc stream` replay; `null` for the one-shot
    /// modes, and capped for long `wcc serve` runs (see [`JsonServe`]).
    batches: Option<Vec<JsonBatch>>,
    /// `wcc serve` only: ingest aggregates and server telemetry.
    serve: Option<JsonServe>,
    /// Component size histogram (descending); `null` unless `--sizes`.
    component_sizes: Option<Vec<usize>>,
    /// Worker-pool telemetry for the whole process (cumulative dispatch,
    /// spawn, steal and park counters — see `wcc_mpc::PoolTelemetry`);
    /// `null` when the run never engaged the threaded backend.
    pool: Option<PoolTelemetry>,
    /// Walk-kernel telemetry for the whole process (cumulative steps, real
    /// moves vs compressed stays, keystream words, batch refills and spec
    /// lane-group fallbacks — see `wcc_mpc::WalkTelemetry`); `null` when the
    /// run never simulated a walk. Like `wall_time_ms` and `pool`, this is a
    /// simulator observable, not a model quantity: it is outside the stats
    /// the determinism contract pins.
    walk: Option<WalkTelemetry>,
}

/// The process-wide pool counters, or `None` if no threaded dispatch ever
/// happened (sequential runs report no pool at all rather than a row of
/// zeros).
fn pool_report() -> Option<PoolTelemetry> {
    let t = Executor::process_pool_telemetry();
    (t.dispatches > 0 || t.spawned_threads > 0).then_some(t)
}

/// The process-wide walk-kernel counters, or `None` if the run never
/// simulated a walk step (mirrors [`pool_report`]).
fn walk_report() -> Option<WalkTelemetry> {
    let t = wcc_mpc::walk_telemetry_snapshot();
    (t.steps > 0).then_some(t)
}

/// One `wcc stream` batch in the `--json` record: the same quantities the
/// run-level record reports (rounds/words/wall time), per batch, plus the
/// path the incremental engine took.
#[derive(Serialize)]
struct JsonBatch {
    index: usize,
    /// Ops in the batch (`insertions + deletions`).
    edges: usize,
    /// Insert ops in the batch.
    insertions: u32,
    /// Delete ops in the batch.
    deletions: u32,
    new_vertices: u32,
    standing_merges: u32,
    /// Components this batch's deletions split off via the repair path.
    splits: u32,
    /// Components re-certified as still connected after a structural
    /// deletion: by the spanning forest for free, or — where `forest_cuts`
    /// says a forest edge went — by a scoped search of the live edges
    /// re-linking the pieces (the name is the sketch's, which did that
    /// search before).
    sketch_recertifies: u32,
    /// Spanning-forest edges this batch's deletions removed; only their
    /// components are searched.
    forest_cuts: u32,
    /// `"fast-path"`, `"sketch-repair"` (the repair path) or
    /// `"recompute:<reason>"`.
    path: String,
    components_after: usize,
    rounds: u64,
    communication_words: u64,
    wall_time_ms: f64,
}

/// The `serve` object of a `wcc serve --json` record. When a repeated
/// schedule produces more than [`MAX_JSON_BATCHES`] batch entries, the
/// per-batch array is dropped from the record (`batches: null`) and only
/// these aggregates remain.
#[derive(Serialize)]
struct JsonServe {
    /// The actually bound address (real port even when 0 was requested).
    addr: String,
    /// Epochs published (= batches ingested).
    epochs: u64,
    /// Whether ingestion stopped because a client requested shutdown.
    shutdown_requested: bool,
    /// Ingest-side aggregates over every applied batch.
    ingest: JsonIngest,
    /// Server-side counters and the per-query service-time histogram.
    server: wcc_core::serve::ServerTelemetry,
}

/// Ingest aggregates of a `wcc serve` run.
#[derive(Serialize)]
struct JsonIngest {
    batches: usize,
    fast_path: usize,
    recomputes: usize,
    /// Mean per-batch ingest wall time, milliseconds — the number the
    /// ingest-slowdown-under-load experiment compares against a no-client
    /// baseline.
    mean_batch_ms: f64,
    max_batch_ms: f64,
}

/// Cap on the per-batch array in a `wcc serve --json` record.
const MAX_JSON_BATCHES: usize = 1000;

/// Applies one batch, timing it: its report and its wall time in
/// milliseconds.
fn apply_timed(
    engine: &mut IncrementalComponents,
    batch: &[EdgeOp],
) -> Result<(BatchReport, f64), CoreError> {
    let started = Instant::now();
    let report = engine.apply_ops_batch(batch)?;
    Ok((report, started.elapsed().as_secs_f64() * 1e3))
}

/// The `--json` records of what [`apply_timed`] returned, indexed by
/// position.
fn json_batches(reports: &[(BatchReport, f64)]) -> Vec<JsonBatch> {
    reports
        .iter()
        .enumerate()
        .map(|(index, (r, wall_time_ms))| JsonBatch {
            index,
            edges: r.edges_in_batch,
            insertions: r.insertions,
            deletions: r.deletions,
            new_vertices: r.new_vertices,
            standing_merges: r.standing_merges,
            splits: r.splits,
            sketch_recertifies: r.sketch_recertifies,
            forest_cuts: r.forest_cuts,
            path: r.path.label().to_string(),
            components_after: r.components_after,
            rounds: r.rounds,
            communication_words: r.communication_words,
            wall_time_ms: *wall_time_ms,
        })
        .collect()
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        mode: Mode::Run,
        path: String::new(),
        out_path: String::new(),
        batch_size: 4096,
        algorithm: "wcc".to_string(),
        lambda: 0.25,
        memory: 0,
        seed: 7,
        threads: 0,
        show_sizes: false,
        json: false,
        addr: "127.0.0.1:0".to_string(),
        repeat: 1,
        ingest_delay_ms: 0.0,
        exit_after_s: 0.0,
    };
    let mut positionals_seen = 0usize;
    let mut flags_seen: Vec<&'static str> = Vec::new();
    while let Some(arg) = args.next() {
        if let Some(flag) = [
            "--algorithm",
            "--batch-size",
            "--lambda",
            "--memory",
            "--seed",
            "--threads",
            "--sizes",
            "--json",
            "--addr",
            "--repeat",
            "--ingest-delay-ms",
            "--exit-after",
        ]
        .into_iter()
        .find(|f| *f == arg.as_str())
        {
            flags_seen.push(flag);
        }
        match arg.as_str() {
            "stream" if positionals_seen == 0 => {
                opts.mode = Mode::Stream;
                positionals_seen += 1;
            }
            "pack" if positionals_seen == 0 => {
                opts.mode = Mode::Pack;
                positionals_seen += 1;
            }
            "serve" if positionals_seen == 0 => {
                opts.mode = Mode::Serve;
                positionals_seen += 1;
            }
            "--addr" => {
                opts.addr = args.next().ok_or("--addr needs a value")?;
            }
            "--repeat" => {
                opts.repeat = args
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?;
            }
            "--ingest-delay-ms" => {
                opts.ingest_delay_ms = args
                    .next()
                    .ok_or("--ingest-delay-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --ingest-delay-ms: {e}"))?;
                if !opts.ingest_delay_ms.is_finite() || opts.ingest_delay_ms < 0.0 {
                    return Err("--ingest-delay-ms must be a finite non-negative number".into());
                }
            }
            "--exit-after" => {
                opts.exit_after_s = args
                    .next()
                    .ok_or("--exit-after needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --exit-after: {e}"))?;
                if !opts.exit_after_s.is_finite() || opts.exit_after_s < 0.0 {
                    return Err("--exit-after must be a finite non-negative number".into());
                }
            }
            "--algorithm" => {
                opts.algorithm = args.next().ok_or("--algorithm needs a value")?;
            }
            "--batch-size" => {
                opts.batch_size = args
                    .next()
                    .ok_or("--batch-size needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --batch-size: {e}"))?;
                if opts.batch_size == 0 {
                    return Err("--batch-size must be at least 1".to_string());
                }
            }
            "--lambda" => {
                opts.lambda = args
                    .next()
                    .ok_or("--lambda needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --lambda: {e}"))?;
            }
            "--memory" => {
                opts.memory = args
                    .next()
                    .ok_or("--memory needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --memory: {e}"))?;
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                let t: usize = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                // An explicit 0 means "one worker per available CPU" (same
                // convention as WCC_THREADS=0); only an *absent* flag defers
                // to the environment variable.
                opts.threads = if t == 0 { Executor::auto_threads() } else { t };
            }
            "--sizes" => opts.show_sizes = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err("help".to_string()),
            other if opts.path.is_empty() && !other.starts_with('-') => {
                opts.path = other.to_string();
                positionals_seen += 1;
            }
            other
                if opts.mode == Mode::Pack
                    && opts.out_path.is_empty()
                    && !other.starts_with('-') =>
            {
                opts.out_path = other.to_string();
                positionals_seen += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.path.is_empty() {
        return Err(match opts.mode {
            Mode::Run => "missing <edge-list-file>".to_string(),
            Mode::Stream | Mode::Serve => "missing <chunk-file>".to_string(),
            Mode::Pack => "missing <edge-list-file> and <chunk-file>".to_string(),
        });
    }
    if opts.mode == Mode::Pack && opts.out_path.is_empty() {
        return Err("pack: missing output <chunk-file>".to_string());
    }
    // Reject flags the selected mode never reads — silently ignoring
    // `--memory` on `wcc stream` (say) would let the user believe the budget
    // was applied when it was not.
    let (mode_name, applicable): (&str, &[&str]) = match opts.mode {
        Mode::Run => (
            "wcc <edge-list-file>",
            &[
                "--algorithm",
                "--lambda",
                "--memory",
                "--seed",
                "--threads",
                "--sizes",
                "--json",
            ],
        ),
        Mode::Stream => ("wcc stream", &["--seed", "--threads", "--sizes", "--json"]),
        Mode::Pack => ("wcc pack", &["--batch-size"]),
        Mode::Serve => (
            "wcc serve",
            &[
                "--addr",
                "--repeat",
                "--ingest-delay-ms",
                "--exit-after",
                "--seed",
                "--threads",
                "--json",
            ],
        ),
    };
    if let Some(flag) = flags_seen.iter().find(|f| !applicable.contains(f)) {
        return Err(format!("{flag} is not applicable to `{mode_name}`"));
    }
    // Within one-shot mode the same holds per algorithm: only `wcc` takes a
    // gap promise and only `sublinear` a memory budget.
    if opts.mode == Mode::Run {
        for (flag, reader) in [("--lambda", "wcc"), ("--memory", "sublinear")] {
            if flags_seen.contains(&flag) && opts.algorithm != reader {
                return Err(format!(
                    "{flag} is not applicable to `--algorithm {}`",
                    opts.algorithm
                ));
            }
        }
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: wcc <edge-list-file> [--algorithm wcc|adaptive|sublinear|hash-to-min|union-find]\n\
         \x20          [--lambda <gap>] [--memory <words>] [--seed <u64>]\n\
         \x20          [--threads <n>] [--sizes] [--json]\n\
         \x20      wcc stream <chunk-file> [--seed <u64>] [--threads <n>] [--sizes] [--json]\n\
         \x20      wcc pack <edge-or-op-list-file> <chunk-file> [--batch-size <ops>]\n\
         \x20      wcc serve <chunk-file> [--addr <host:port>] [--repeat <n>]\n\
         \x20          [--ingest-delay-ms <ms>] [--exit-after <secs>]\n\
         \x20          [--seed <u64>] [--threads <n>] [--json]\n\
         \x20\n\
         \x20      --threads <n>: worker threads for the persistent-pool backend\n\
         \x20          (1 = sequential, 0 = one worker per available CPU; without\n\
         \x20          the flag, the WCC_THREADS environment variable decides,\n\
         \x20          where 0 likewise means one worker per CPU)"
    );
}

/// Component-size histogram for `--sizes`, largest component first (`None`
/// when the flag is off).
fn sorted_sizes(labels: &ComponentLabels, show_sizes: bool) -> Option<Vec<usize>> {
    show_sizes.then(|| {
        let mut sizes = labels.component_sizes();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    })
}

/// Prints the one-line machine-readable record for `--json`.
fn emit_json(report: &JsonReport) -> ExitCode {
    match serde_json::to_string(report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot serialize result: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the truncated `--sizes` histogram of the human-readable output.
fn print_largest_sizes(sizes: &[usize]) {
    println!(
        "largest component sizes: {:?}",
        &sizes[..sizes.len().min(20)]
    );
}

/// `wcc pack`: text edge or op list → binary chunk stream (original ids are
/// preserved verbatim, one chunk per `--batch-size` ops). Fully streaming:
/// lines are parsed through one reusable buffer and at most one batch of ops
/// is resident at a time, so packing a 10⁸-edge input has flat RSS.
///
/// The chunks go to `<chunk-file>.tmp`, renamed over `<chunk-file>` only once
/// the whole input has packed: a parse error halfway through must not leave
/// a shorter — but perfectly replayable — stream behind under the real name.
fn run_pack(opts: &Options) -> ExitCode {
    let input = match std::fs::File::open(&opts.path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let tmp_path = format!("{}.tmp", opts.out_path);
    let output = match std::fs::File::create(&tmp_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot write {tmp_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let packed =
        pack_op_list(std::io::BufReader::new(input), output, opts.batch_size).and_then(|summary| {
            std::fs::rename(&tmp_path, &opts.out_path)?;
            Ok(summary)
        });
    match packed {
        Ok(summary) => {
            println!(
                "packed {} ops into {} chunks of <= {} per chunk: {}",
                summary.edges, summary.chunks, opts.batch_size, opts.out_path
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            eprintln!("error: cannot pack {}: {e}", opts.path);
            ExitCode::FAILURE
        }
    }
}

/// `wcc stream`: replay a binary batch schedule through the incremental
/// engine, reporting per-batch paths and costs.
fn run_stream(opts: &Options) -> ExitCode {
    let exec = Executor::resolve(opts.threads);
    let batches = match wcc_mpc::stream::read_op_chunks_file_parallel(
        std::path::Path::new(&opts.path),
        &exec,
    ) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    if !opts.json {
        println!(
            "loaded {}: {} batches, {} ops",
            opts.path,
            batches.len(),
            batches.iter().map(Vec::len).sum::<usize>()
        );
    }

    let params = StreamParams::laptop_scale().with_threads(opts.threads);
    let mut engine = IncrementalComponents::new(params, opts.seed);
    let started = Instant::now();
    let mut reports = Vec::with_capacity(batches.len());
    for batch in &batches {
        match apply_timed(&mut engine, batch) {
            Ok(applied) => reports.push(applied),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
    let labels = engine.labels();
    let stats = engine.stats();
    let sizes = sorted_sizes(&labels, opts.show_sizes);

    if opts.json {
        return emit_json(&JsonReport {
            algorithm: "stream".to_string(),
            input: opts.path.clone(),
            vertices: engine.num_vertices(),
            edges: engine.num_edges(),
            seed: opts.seed,
            components: labels.num_components(),
            total_rounds: Some(stats.total_rounds()),
            communication_words: Some(stats.total_communication_words()),
            max_machine_load_words: Some(stats.max_machine_load_words()),
            memory_violations: Some(stats.memory_violations()),
            wall_time_ms,
            phases: Some(stats.phases().to_vec()),
            batches: Some(json_batches(&reports)),
            serve: None,
            component_sizes: sizes,
            pool: pool_report(),
            walk: walk_report(),
        });
    }

    for (index, (r, wall_time_ms)) in reports.iter().enumerate() {
        println!(
            "batch {:>4}: {:>7} ops ({:>7} ins, {:>6} del), {:>6} new vertices, \
             {:>3} standing merges, {:>3} forest cuts, {:>3} splits -> {:<32} \
             ({} rounds, {} words, {:.1} ms)",
            index,
            r.edges_in_batch,
            r.insertions,
            r.deletions,
            r.new_vertices,
            r.standing_merges,
            r.forest_cuts,
            r.splits,
            r.path.label(),
            r.rounds,
            r.communication_words,
            wall_time_ms
        );
    }
    let fast = reports.iter().filter(|(r, _)| r.path.is_fast()).count();
    println!(
        "replayed {} batches ({} fast-path, {} forest cuts, {} repair splits, \
         {} recertifies, {} recomputes): {} vertices, {} edges",
        reports.len(),
        fast,
        reports
            .iter()
            .map(|(r, _)| u64::from(r.forest_cuts))
            .sum::<u64>(),
        engine.splits(),
        engine.sketch_recertifies(),
        engine.recomputes(),
        engine.num_vertices(),
        engine.num_edges()
    );
    println!("components: {}", labels.num_components());
    println!("simulated MPC rounds: {}", stats.total_rounds());
    if let Some(sizes) = sizes {
        print_largest_sizes(&sizes);
    }
    ExitCode::SUCCESS
}

/// `wcc serve`: ingest a batch schedule (possibly repeatedly) while a TCP
/// server answers component queries from epoch snapshots. See the module
/// docs for the stdout contract (`LISTENING <addr>` first, JSON record
/// last).
fn run_serve(opts: &Options) -> ExitCode {
    let exec = Executor::resolve(opts.threads);
    let batches = match wcc_mpc::stream::read_op_chunks_file_parallel(
        std::path::Path::new(&opts.path),
        &exec,
    ) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let server = match wcc_core::serve::Server::bind(opts.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    // First stdout line, always: harnesses parse the real bound address
    // from here (the requested port may have been 0).
    println!("LISTENING {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let params = StreamParams::laptop_scale().with_threads(opts.threads);
    let mut engine = IncrementalComponents::new(params, opts.seed);
    let started = Instant::now();
    let mut reports: Vec<(BatchReport, f64)> = Vec::new();
    let mut epoch = 0u64;
    let mut passes = 0usize;
    'ingest: loop {
        if batches.is_empty() {
            break; // nothing to ingest; an unbounded --repeat must not spin
        }
        for batch in &batches {
            if server.shutdown_requested() {
                break 'ingest;
            }
            let applied = match apply_timed(&mut engine, batch) {
                Ok(applied) => applied,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            epoch += 1;
            server.publish(engine.snapshot(epoch));
            reports.push(applied);
            if opts.ingest_delay_ms > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(
                    opts.ingest_delay_ms / 1e3,
                ));
            }
        }
        passes += 1;
        if opts.repeat != 0 && passes >= opts.repeat {
            break;
        }
    }
    let ingest_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if !opts.json {
        let fast = reports.iter().filter(|(r, _)| r.path.is_fast()).count();
        println!(
            "INGESTED {} batches ({} fast-path, {} recomputes) in {:.1} ms: \
             {} vertices, {} edges, {} components",
            reports.len(),
            fast,
            engine.recomputes(),
            ingest_wall_ms,
            engine.num_vertices(),
            engine.num_edges(),
            engine.num_components()
        );
        let _ = std::io::stdout().flush();
    }

    // Keep serving until a client asks us to stop (or the deadline hits).
    let deadline = (opts.exit_after_s > 0.0)
        .then(|| Instant::now() + std::time::Duration::from_secs_f64(opts.exit_after_s));
    while !server.shutdown_requested() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
    let telemetry = server.telemetry();
    let shutdown_requested = server.shutdown_requested();
    let addr = server.local_addr().to_string();
    if let Err(e) = server.shutdown() {
        eprintln!("error: shutdown: {e}");
        return ExitCode::FAILURE;
    }

    let stats = engine.stats();
    let fast = reports.iter().filter(|(r, _)| r.path.is_fast()).count();
    let mean_batch_ms = if reports.is_empty() {
        0.0
    } else {
        reports.iter().map(|&(_, ms)| ms).sum::<f64>() / reports.len() as f64
    };
    let max_batch_ms = reports.iter().map(|&(_, ms)| ms).fold(0.0, f64::max);

    if opts.json {
        return emit_json(&JsonReport {
            algorithm: "serve".to_string(),
            input: opts.path.clone(),
            vertices: engine.num_vertices(),
            edges: engine.num_edges(),
            seed: opts.seed,
            components: engine.num_components(),
            total_rounds: Some(stats.total_rounds()),
            communication_words: Some(stats.total_communication_words()),
            max_machine_load_words: Some(stats.max_machine_load_words()),
            memory_violations: Some(stats.memory_violations()),
            wall_time_ms,
            phases: Some(stats.phases().to_vec()),
            batches: (reports.len() <= MAX_JSON_BATCHES).then(|| json_batches(&reports)),
            serve: Some(JsonServe {
                addr,
                epochs: epoch,
                shutdown_requested,
                ingest: JsonIngest {
                    batches: reports.len(),
                    fast_path: fast,
                    recomputes: engine.recomputes(),
                    mean_batch_ms,
                    max_batch_ms,
                },
                server: telemetry,
            }),
            component_sizes: None,
            pool: pool_report(),
            walk: walk_report(),
        });
    }

    println!(
        "served {} queries ({} not-found) over {} connections: \
         p50 {:.1} us, p99 {:.1} us, p999 {:.1} us",
        telemetry.queries,
        telemetry.not_found,
        telemetry.connections,
        telemetry.latency_ns.p50 as f64 / 1e3,
        telemetry.latency_ns.p99 as f64 / 1e3,
        telemetry.latency_ns.p999 as f64 / 1e3
    );
    println!(
        "mean batch ingest {:.3} ms (max {:.3} ms), {} epochs published, shutdown {}",
        mean_batch_ms,
        max_batch_ms,
        epoch,
        if shutdown_requested {
            "requested by client"
        } else {
            "by deadline"
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    match opts.mode {
        Mode::Run => {}
        Mode::Stream => return run_stream(&opts),
        Mode::Pack => return run_pack(&opts),
        Mode::Serve => return run_serve(&opts),
    }
    let loaded = match read_edge_list_file(std::path::Path::new(&opts.path)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let g = loaded.graph;
    if !opts.json {
        println!(
            "loaded {}: {} vertices, {} edges",
            opts.path,
            g.num_vertices(),
            g.num_edges()
        );
    }

    let started = Instant::now();
    let (labels, stats): (ComponentLabels, Option<RoundStats>) = match opts.algorithm.as_str() {
        "wcc" => match well_connected_components(
            &g,
            opts.lambda,
            &Params::laptop_scale().with_threads(opts.threads),
            opts.seed,
        ) {
            Ok(r) => (r.components, Some(r.stats)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        "adaptive" => match adaptive_components(
            &g,
            &Params::laptop_scale().with_threads(opts.threads),
            opts.seed,
        ) {
            Ok(r) => (r.components, Some(r.stats)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        "sublinear" => {
            let memory = if opts.memory > 0 {
                opts.memory
            } else {
                (g.num_vertices() as f64).sqrt().ceil() as usize * 8
            };
            match sublinear_components(
                &g,
                memory,
                &SublinearParams::laptop_scale().with_threads(opts.threads),
                opts.seed,
            ) {
                Ok(r) => (r.components, Some(r.stats)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "hash-to-min" => {
            let mut ctx = MpcContext::new(
                MpcConfig::for_input_size(2 * g.num_edges() + g.num_vertices(), 0.5)
                    .permissive()
                    .with_threads(opts.threads),
            );
            let r = run_baseline("hash-to-min", &g, &mut ctx, opts.seed);
            (r.labels, Some(ctx.into_stats()))
        }
        "union-find" => (wcc_baselines::sequential_components(&g), None),
        other => {
            eprintln!("error: unknown algorithm {other:?}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
    let sizes = sorted_sizes(&labels, opts.show_sizes);

    if opts.json {
        return emit_json(&JsonReport {
            algorithm: opts.algorithm.clone(),
            input: opts.path.clone(),
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            seed: opts.seed,
            components: labels.num_components(),
            total_rounds: stats.as_ref().map(RoundStats::total_rounds),
            communication_words: stats.as_ref().map(RoundStats::total_communication_words),
            max_machine_load_words: stats.as_ref().map(RoundStats::max_machine_load_words),
            memory_violations: stats.as_ref().map(RoundStats::memory_violations),
            wall_time_ms,
            phases: stats.as_ref().map(|s| s.phases().to_vec()),
            batches: None,
            serve: None,
            component_sizes: sizes,
            pool: pool_report(),
            walk: walk_report(),
        });
    }

    println!("components: {}", labels.num_components());
    match stats.as_ref().map(RoundStats::total_rounds) {
        Some(r) => println!("simulated MPC rounds: {r}"),
        None => println!("simulated MPC rounds: n/a (sequential reference)"),
    }
    if let Some(sizes) = sizes {
        print_largest_sizes(&sizes);
    }
    ExitCode::SUCCESS
}
