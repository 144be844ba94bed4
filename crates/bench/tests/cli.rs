//! End-to-end checks of the `wcc` binary's packing contract — what `wcc pack`
//! leaves on disk when it fails, which flags it accepts, and that what it
//! writes today replays exactly like the checked-in sample streams — of
//! `wcc serve` answering the checked-in query file over the wire, and of
//! the `wcc_exp` experiment runner's command line.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use wcc_core::serve::{read_frame, Request, Response};

fn wcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcc"))
        .args(args)
        .output()
        .expect("failed to spawn wcc")
}

/// `wcc_exp` run inside `cwd`, where it writes `results/<id>.json`.
fn wcc_exp(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcc_exp"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("failed to spawn wcc_exp")
}

/// A checked-in sample file under the workspace's `data/` directory.
fn data(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../data")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// A fresh scratch directory for one test (tests run in parallel and must not
/// share files).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcc_cli_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Replaces the value of every `"key":<value>` field of a one-line JSON
/// record by `0` (the record's values contain no `,` or `}` of their own for
/// the two keys this is used on).
fn blank_field(record: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = record;
    while let Some(at) = rest.find(&needle) {
        let value = at + needle.len();
        out.push_str(&rest[..value]);
        out.push('0');
        let end = rest[value..]
            .find([',', '}'])
            .expect("a field value ends at `,` or `}`");
        rest = &rest[value + end..];
    }
    out.push_str(rest);
    out
}

/// `wcc stream <file> --json` with the fields that legitimately differ
/// between two replays of one schedule (timings, the input path) blanked.
fn replay_record(chunk_file: &str) -> String {
    // One thread: the threaded backend adds pool telemetry (steal and park
    // counts) that differs run to run.
    let out = wcc(&["stream", chunk_file, "--json", "--threads", "1"]);
    assert!(out.status.success(), "wcc stream {chunk_file} failed");
    let record = String::from_utf8(out.stdout).expect("utf-8 record");
    assert!(record.contains("\"batches\":["), "not a stream record");
    blank_field(&blank_field(&record, "wall_time_ms"), "input")
}

#[test]
fn failed_pack_exits_nonzero_and_leaves_no_output() {
    let dir = scratch("failed_pack");
    let input = dir.join("bad.txt");
    // Two whole chunks' worth of good lines before the malformed one: at
    // `--batch-size 2` they used to reach the output file before the error.
    std::fs::write(&input, "1 2\n2 3\n3 4\n4 5\nbroken\n5 6\n").unwrap();
    let output = dir.join("out.wccs");
    let args = [
        "pack",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--batch-size",
        "2",
    ];

    let out = wcc(&args);
    assert!(!out.status.success(), "a malformed line must fail the pack");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 5"), "stderr: {stderr}");
    assert!(!output.exists(), "a failed pack left a replayable stream");
    assert!(!dir.join("out.wccs.tmp").exists(), "temp file left behind");

    // An output from an earlier, successful pack survives a failed re-pack.
    std::fs::write(&output, b"earlier").unwrap();
    assert!(!wcc(&args).status.success());
    assert_eq!(std::fs::read(&output).unwrap(), b"earlier");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_ops_flag_is_a_usage_error_naming_the_flag() {
    let dir = scratch("ops_flag");
    let output = dir.join("out.wccs");
    // The retired flag, spelled in two halves so that grepping the tree for
    // it stays a zero-hit check for stale documentation.
    let flag = concat!("--", "ops");
    let out = wcc(&[
        "pack",
        &data("sample_ops.txt"),
        output.to_str().unwrap(),
        flag,
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("{flag:?}")), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(!output.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_reproduces_the_checked_in_op_stream_byte_for_byte() {
    let dir = scratch("repack_v2");
    let output = dir.join("repacked_v2.wccs");
    let out = wcc(&[
        "pack",
        &data("sample_ops.txt"),
        output.to_str().unwrap(),
        "--batch-size",
        "7",
    ]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&output).unwrap(),
        std::fs::read(data("sample_batches_v2.wccs")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repacked_edge_list_replays_like_the_archived_v1_stream() {
    let dir = scratch("repack_v1");
    let output = dir.join("repacked.wccs");
    let out = wcc(&[
        "pack",
        &data("sample_graph.txt"),
        output.to_str().unwrap(),
        "--batch-size",
        "6",
    ]);
    assert!(out.status.success());
    // `data/sample_batches.wccs` is the same schedule (16 edges in 3 chunks,
    // 288 bytes) in the version-1 format no writer emits any more: the repack
    // is one tag byte per op longer, and must replay to the same record.
    assert_eq!(std::fs::metadata(&output).unwrap().len(), 288 + 16);
    assert_eq!(
        replay_record(output.to_str().unwrap()),
        replay_record(&data("sample_batches.wccs"))
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_shot_flags_the_chosen_algorithm_never_reads_are_rejected() {
    let dir = scratch("algorithm_flags");
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n3 4\n").unwrap();
    let input = input.to_str().unwrap();
    for (algorithm, flag, value) in [
        ("adaptive", "--lambda", "0.01"),
        ("adaptive", "--memory", "64"),
        ("sublinear", "--lambda", "0.01"),
        ("wcc", "--memory", "64"),
        ("hash-to-min", "--lambda", "0.01"),
        ("union-find", "--memory", "64"),
    ] {
        let out = wcc(&[input, "--algorithm", algorithm, flag, value]);
        assert!(!out.status.success(), "{algorithm} accepted {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{flag} is not applicable to `--algorithm {algorithm}`"
            )),
            "stderr: {stderr}"
        );
    }
    // The one algorithm that reads each flag still takes it.
    for (algorithm, flag, value) in [("wcc", "--lambda", "0.2"), ("sublinear", "--memory", "64")] {
        let out = wcc(&[input, "--algorithm", algorithm, flag, value]);
        assert!(out.status.success(), "{algorithm} rejected {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("components: 2"), "stdout: {stdout}");
    }
    // The streaming modes run no pipeline: no gap promise. `--no-fast-path`
    // is no flag at all: no mode ever read it.
    let chunks = data("sample_batches_v2.wccs");
    for mode in ["stream", "serve"] {
        let out = wcc(&[mode, chunks.as_str(), "--lambda", "0.2"]);
        assert!(!out.status.success(), "wcc {mode} accepted --lambda");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--lambda is not applicable to `wcc {mode}`")),
            "stderr: {stderr}"
        );
        let out = wcc(&[mode, chunks.as_str(), "--no-fast-path"]);
        assert!(!out.status.success(), "wcc {mode} accepted --no-fast-path");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument \"--no-fast-path\""),
            "stderr: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A child process that a failing test does not leave running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_answers_the_sample_queries_and_shuts_down_on_request() {
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_wcc"))
            .args(["serve", &data("sample_batches.wccs")])
            .args(["--exit-after", "60", "--json"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("failed to spawn wcc serve"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    let addr = first
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("first line: {first:?}"));

    let mut writer = TcpStream::connect(addr).expect("connect to wcc serve");
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let (mut out, mut frame) = (Vec::new(), Vec::new());
    let mut call = |request: Request| {
        out.clear();
        request.encode(&mut out);
        writer.write_all(&out).unwrap();
        read_frame(&mut reader, &mut frame)
            .unwrap()
            .expect("server closed the connection");
        Response::decode(&frame).unwrap()
    };
    // The expected answers are those of the final epoch: all three batches.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !matches!(call(Request::Ping), Response::Pong { epoch } if epoch >= 3) {
        assert!(Instant::now() < deadline, "epoch 3 not reached in 60 s");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Lines are `same u v [expect]`, `of v [expect]` or `size c [expect]`;
    // `expect` is 1/0 for `same`, a number for `of`/`size`, `nf` for
    // not-found, and `?` (or nothing) for any answer but BAD_REQUEST.
    let queries = std::fs::read_to_string(data("sample_queries.txt")).unwrap();
    let mut checked = 0;
    for line in queries.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let id = |i: usize| toks[i].parse::<u64>().expect("a vertex id");
        let (request, expect) = match toks[0] {
            "same" => (Request::SameComponent { u: id(1), v: id(2) }, toks.get(3)),
            "of" => (Request::ComponentOf { v: id(1) }, toks.get(2)),
            "size" => (Request::ComponentSize { c: id(1) }, toks.get(2)),
            other => panic!("unknown query {other:?}"),
        };
        let response = call(request);
        let answered = match (expect.copied(), &response) {
            (None | Some("?"), response) => *response != Response::BadRequest,
            (Some("nf"), Response::NotFound { .. }) => true,
            (Some(want), Response::Same { same, .. }) => want == if *same { "1" } else { "0" },
            (Some(want), Response::Component { component, .. }) => want == component.to_string(),
            (Some(want), Response::Size { size, .. }) => want == size.to_string(),
            _ => false,
        };
        assert!(answered, "{line:?} answered {response:?}");
        checked += 1;
    }
    assert_eq!(checked, 17, "queries in the sample file");

    assert_eq!(call(Request::Shutdown), Response::ShuttingDown);
    assert!(
        server.0.wait().unwrap().success(),
        "wcc serve exited non-zero"
    );
    let record = stdout.lines().last().expect("a JSON record").unwrap();
    assert!(
        record.starts_with('{') && record.contains("\"algorithm\":\"serve\""),
        "last line: {record}"
    );
}

#[test]
fn sublinear_on_a_single_self_loop_reports_one_component() {
    let dir = scratch("one_vertex");
    let input = dir.join("one.txt");
    std::fs::write(&input, "0 0\n").unwrap();
    let out = wcc(&[input.to_str().unwrap(), "--algorithm", "sublinear"]);
    assert!(out.status.success(), "a one-vertex graph aborted the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("components: 1"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `(id, name)` pairs of the experiment table in EXPERIMENTS.md: its rows
/// are the ones that read ``| E<n> | `<name>` | ...``.
fn documented_experiments() -> Vec<(String, String)> {
    let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc).expect("read EXPERIMENTS.md");
    let rows: Vec<(String, String)> = doc
        .lines()
        .filter_map(|line| {
            let (id, rest) = line.strip_prefix("| ")?.split_once(" | `")?;
            let (name, _) = rest.split_once("` |")?;
            id.starts_with('E')
                .then(|| (id.to_string(), name.to_string()))
        })
        .collect();
    assert_eq!(rows.len(), 12, "EXPERIMENTS.md documents E1..E12: {rows:?}");
    rows
}

#[test]
fn wcc_exp_list_prints_exactly_the_documented_ids() {
    let dir = scratch("exp_list");
    let out = wcc_exp(&dir, &["--list"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 list")
        .lines()
        .map(str::to_string)
        .collect();
    let documented: Vec<String> = documented_experiments()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(listed, documented);
    assert!(!dir.join("results").exists(), "--list ran an experiment");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wcc_exp_rejects_an_unknown_name_before_running_anything() {
    let dir = scratch("exp_unknown");
    // The valid table comes first: a typo anywhere must stop the whole run.
    let out = wcc_exp(&dir, &["E8", "lower_bound_gane"]);
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "a table ran before the typo was caught"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"lower_bound_gane\""), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    for (id, name) in documented_experiments() {
        let row = format!("  {id:<4} {name}\n");
        assert!(stderr.contains(&row), "{row:?} not in: {stderr}");
    }
    assert!(
        !wcc_exp(&dir, &[]).status.success(),
        "no arguments is a usage error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wcc_exp_prints_the_table_and_writes_its_json() {
    let dir = scratch("exp_run");
    // By id and by name: the same cheap table twice, in the order given.
    let out = wcc_exp(&dir, &["E8", "lower_bound_game"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 markdown");
    assert_eq!(stdout.matches("### E8 — ").count(), 2, "stdout: {stdout}");
    assert!(stdout.contains("| n | candidates k |"), "stdout: {stdout}");
    let json = std::fs::read_to_string(dir.join("results/E8.json")).expect("results/E8.json");
    assert!(json.contains("\"id\": \"E8\""), "json: {json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wcc_exp_reports_a_failed_results_write_and_exits_nonzero() {
    let dir = scratch("exp_write_fails");
    // `results` is a file, so the directory cannot be created.
    std::fs::write(dir.join("results"), b"in the way").unwrap();
    let out = wcc_exp(&dir, &["E8"]);
    assert!(
        !out.status.success(),
        "a dropped results file must fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[E8] could not write results"),
        "stderr: {stderr}"
    );
    // The table is still printed: the run itself succeeded.
    assert!(String::from_utf8_lossy(&out.stdout).contains("### E8 — "));
    std::fs::remove_dir_all(&dir).ok();
}
