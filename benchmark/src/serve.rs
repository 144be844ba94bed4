//! `serve_live`: reads beside writes. An in-process [`Server`] answers one
//! client's open-loop queries while an ingest thread applies batches on its
//! own open-loop schedule — through one recompute (a bridge joins the two
//! communities) and one sketch split (the bridge is deleted) — and then a
//! closed-loop phase with ingest idle reads the saturation rate.
//!
//! Thread placement is fixed, because on a two-CPU virtual machine it decides
//! the numbers more than the code does: the ingest thread has CPU 0, and the
//! server's threads and the client share the last CPU. A query then costs two
//! context switches on one CPU instead of two wake-ups of an idle one, which
//! on the reference host read 3× apart between identical runs. Readers and
//! the writer still meet where the program makes them meet — the snapshot
//! cell — and the load uses every CPU the host has from one process.

use std::time::{Duration, Instant};

use wcc_core::serve::{Request, Response};
use wcc_core::{
    BatchPath, IncrementalComponents, RecomputeReason, Server, SnapshotCell, SnapshotReader,
};
use wcc_graph::io::EdgeOp;

use crate::affinity::pin_current_thread;
use crate::harness::{nproc, peak_rss_mb, timed_setup, Checks, Config, Outcome};
use crate::loadgen::{wait_until, Client, ClientReport, IdPool, QueryGen, BURST};
use crate::metrics::Metrics;
use crate::oneshot::set_model_stats;
use crate::stats::{fastest, median, ns_to, quantile};
use crate::stream::{apply_span_name, bootstrap, snapshot_probes, Bootstrapped, TrafficGen};
use crate::trace::Tracer;
use crate::truth::TruthTable;

/// Open-loop query rate, queries per second.
const QUERY_RATE: u64 = 50_000;
/// Ops per ingest batch.
const OPS_PER_BATCH: usize = 50;
/// More than this share of bursts sent over 1 ms late makes the open-loop
/// latencies meaningless.
const MAX_LATE_FRACTION: f64 = 0.02;

/// The ingest thread's CPU; the server's threads and the client share the
/// host's last CPU (the same one on a one-CPU host).
const INGEST_CPU: usize = 0;

struct Plan {
    /// Time between ingest batches.
    period: Duration,
    open: Duration,
    closed: Duration,
    closed_window: Duration,
    batches: usize,
    bridge_in: usize,
    bridge_out: usize,
}

fn plan(cfg: &Config, seconds: f64) -> Plan {
    let period = Duration::from_millis(if cfg.quick { 20 } else { 100 });
    let closed = Duration::from_secs_f64((0.25 * seconds).min(4.0));
    let open = Duration::from_secs_f64(seconds) - closed;
    // Three periods of slack let the backlog behind the recompute drain
    // before the closed loop starts.
    let batches = ((open.as_secs_f64() / period.as_secs_f64()) as usize)
        .saturating_sub(3)
        .max(4);
    Plan {
        period,
        open,
        closed,
        closed_window: closed / 10,
        batches,
        bridge_in: batches / 2,
        bridge_out: (batches * 73 / 100).max(batches / 2 + 1),
    }
}

struct Input {
    boot: Bootstrapped,
    schedule: Vec<Vec<EdgeOp>>,
    /// `tables[0]` is the truth after bootstrap (epoch 1); `tables[i + 1]`
    /// after batch `i`.
    tables: Vec<TruthTable>,
    pool: IdPool,
}

fn make_input(cfg: &Config, plan: &Plan) -> Result<Input, String> {
    let boot = bootstrap(cfg, cfg.scaled(1000))?;
    let mut gen = TrafficGen::new(cfg.seed_for(2), &boot);
    let bridge = (0u64, boot.half as u64);
    let mut arrivals = 0u64;
    let schedule: Vec<Vec<EdgeOp>> = (0..plan.batches)
        .map(|b| {
            let mut ops = Vec::with_capacity(OPS_PER_BATCH + 1);
            if b % 3 == 0 {
                gen.arrival(&mut ops);
                arrivals += 1;
            }
            while ops.len() < OPS_PER_BATCH {
                let (u, v) = gen.intra_edge();
                ops.push(EdgeOp::insert(u, v));
            }
            if b == plan.bridge_in {
                ops.push(EdgeOp::insert(bridge.0, bridge.1));
            }
            if b == plan.bridge_out {
                ops.push(EdgeOp::delete(bridge.0, bridge.1));
            }
            ops
        })
        .collect();
    let mut replay = boot.replay.clone();
    let mut tables = vec![replay.table()];
    for batch in &schedule {
        replay.apply(batch);
        tables.push(replay.table());
    }
    if cfg.corrupt_truth {
        tables.iter_mut().for_each(TruthTable::corrupt);
    }
    Ok(Input {
        pool: IdPool {
            bootstrap: 2 * boot.half as u64,
            arrival_base: crate::stream::ARRIVAL_BASE,
            arrivals,
        },
        boot,
        schedule,
        tables,
    })
}

/// What the ingest thread did to one batch.
struct IngestedBatch {
    /// Apply start and publish end, ns since the episode origin.
    started_ns: u64,
    published_ns: u64,
    apply_ns: u64,
    publish_ns: u64,
    path: BatchPath,
}

struct Episode {
    client: ClientReport,
    batches: Vec<IngestedBatch>,
    engine: IncrementalComponents,
    tracer: Tracer,
    queries: u64,
    not_found: u64,
    connections: u64,
}

/// Applies the schedule on its open-loop timetable: batch `i` is due
/// `(i + 1)` periods after `origin`, and a late batch is applied at once.
fn ingest(
    mut engine: IncrementalComponents,
    server: &Server,
    schedule: &[Vec<EdgeOp>],
    origin: Instant,
    period: Duration,
    traced: bool,
) -> Result<(Vec<IngestedBatch>, IncrementalComponents, Tracer), String> {
    pin_current_thread(INGEST_CPU);
    let since = |t: Instant| u64::try_from((t - origin).as_nanos()).unwrap_or(u64::MAX);
    let mut t = Tracer::new(traced);
    let mut log = Vec::with_capacity(schedule.len());
    let root = t.begin("rep");
    for (i, ops) in schedule.iter().enumerate() {
        let id = t.begin("ingest.wait");
        wait_until(origin + period * (i as u32 + 1));
        t.end(id);
        let started = Instant::now();
        let id = t.begin("core.stream.apply");
        let report = engine
            .apply_ops_batch(ops)
            .map_err(|e| format!("apply_ops_batch failed: {e}"))?;
        t.end_as(id, apply_span_name(&report.path));
        let applied = Instant::now();
        let id = t.begin("core.stream.snapshot");
        let snapshot = engine.snapshot(engine.batches_applied() as u64);
        t.end(id);
        let publishing = Instant::now();
        let id = t.begin("core.serve.snapshot.publish");
        server.publish(snapshot);
        t.end(id);
        let published = Instant::now();
        log.push(IngestedBatch {
            started_ns: since(started),
            published_ns: since(published),
            apply_ns: since(applied) - since(started),
            publish_ns: since(published) - since(publishing),
            path: report.path,
        });
    }
    t.end(root);
    Ok((log, engine, t))
}

/// One episode: `plan.open` of open-loop queries beside live ingest, then
/// `plan.closed` of closed-loop queries with ingest idle.
fn episode(
    cfg: &Config,
    input: &Input,
    plan: &Plan,
    server: Server,
    traced: bool,
) -> Result<Episode, String> {
    let mut engine = input.boot.engine.clone();
    let first_epoch = engine.batches_applied() as u64;
    server.publish(engine.snapshot(first_epoch));
    let gen = QueryGen::new(cfg.seed_for(3), input.pool);
    let mut client = Client::connect(server.local_addr(), gen, &input.tables, first_epoch)
        .map_err(|e| format!("client connect: {e}"))?;
    let burst_period = Duration::from_nanos(BURST as u64 * 1_000_000_000 / QUERY_RATE);

    let origin = Instant::now() + Duration::from_millis(5);
    let (ingested, client) = std::thread::scope(|scope| {
        let ingest_thread = scope.spawn(|| {
            ingest(
                engine,
                &server,
                &input.schedule,
                origin,
                plan.period,
                traced,
            )
        });
        let client_result = client
            .open_loop(origin, burst_period, origin + plan.open)
            .and_then(|()| {
                // The closed loop measures reads alone: wait for ingest to end.
                let ingested = ingest_thread.join().map_err(|_| "ingest thread panicked")?;
                client.closed_loop(plan.closed_window, Instant::now() + plan.closed)?;
                ingested
            });
        client_result.map(|ingested| (ingested, client))
    })?;
    let (batches, engine, tracer) = ingested;
    let telemetry = server.telemetry();
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    Ok(Episode {
        client: client.finish(),
        batches,
        engine,
        tracer,
        queries: telemetry.queries,
        not_found: telemetry.not_found,
        connections: telemetry.connections,
    })
}

/// The shape the workload must have had, or the run measured something else.
fn verify_shape(input: &Input, ep: &Episode, plan: &Plan) -> Result<(), String> {
    let merges = ep
        .batches
        .iter()
        .filter(|b| b.path == BatchPath::Recompute(RecomputeReason::StandingMerge))
        .count();
    let recomputes = ep
        .batches
        .iter()
        .filter(|b| matches!(b.path, BatchPath::Recompute(_)))
        .count();
    if merges != 1 || recomputes != 1 || ep.engine.splits() != 1 {
        return Err(format!(
            "serve_live must see exactly one recompute and one split: {merges} standing merges, \
             {recomputes} recomputes, {} splits",
            ep.engine.splits()
        ));
    }
    if ep.batches[plan.bridge_out].path != BatchPath::SketchRepair {
        return Err(format!(
            "the bridge deletion took {:?}",
            ep.batches[plan.bridge_out].path
        ));
    }
    if let Some(missing) = ep.client.visible_at_ns.iter().position(Option::is_none) {
        return Err(format!(
            "the client never saw epoch {} or later ({} epochs published)",
            missing + 1,
            input.tables.len()
        ));
    }
    // A late generator is the host's doing, not a wrong answer: flag the run
    // so a reader discounts its latencies, but let it finish.
    let late = ep.client.late_bursts as f64 / ep.client.bursts.max(1) as f64;
    if late > MAX_LATE_FRACTION {
        eprintln!(
            "INVALID LATENCIES: {:.1} % of bursts were sent over 1 ms late (limit {:.0} %): the \
             load generator, not the server, set them",
            100.0 * late,
            100.0 * MAX_LATE_FRACTION
        );
    }
    Ok(())
}

/// Batch `i`'s due time → first response stamped with its epoch or later, ms.
fn visible_ms(ep: &Episode, plan: &Plan) -> Vec<f64> {
    (0..ep.batches.len())
        .map(|i| {
            let due_ns = plan.period.as_nanos() as u64 * (i as u64 + 1);
            let seen_ns = ep.client.visible_at_ns[i + 1].expect("verify_shape checked every epoch");
            seen_ns.saturating_sub(due_ns) as f64 / 1e6
        })
        .collect()
}

/// Median over quarter-second windows (by due time) of each window's p99,
/// µs. The all-sample p99 sits on the edge of the recompute interval and is
/// far noisier between identical runs; the median of many short windows is
/// what the tail looks like when nothing exceptional is going on.
fn windowed_p99_us(ep: &Episode) -> f64 {
    let per_window = (QUERY_RATE as usize / 4).max(BURST);
    let p99s: Vec<f64> = ep
        .client
        .latency_ns
        .chunks(per_window)
        .filter(|w| w.len() >= per_window / 2)
        .map(|w| quantile(&ns_to(w, 1e3), 0.99))
        .collect();
    if p99s.is_empty() {
        quantile(&ns_to(&ep.client.latency_ns, 1e3), 0.99)
    } else {
        median(&p99s)
    }
}

fn busy_seconds(ep: &Episode) -> f64 {
    ep.batches
        .iter()
        .map(|b| (b.published_ns - b.started_ns) as f64 / 1e9)
        .sum()
}

/// Closed-loop rate of the least disturbed tenth-of-phase window, kq/s (the
/// counterpart of taking the fastest repetition elsewhere).
fn saturation_kqps(ep: &Episode, plan: &Plan) -> f64 {
    // The last window is cut short by the deadline; leave it out.
    let full = &ep.client.closed_counts[..ep.client.closed_counts.len().saturating_sub(1).max(1)];
    let best = full.iter().copied().max().unwrap_or(0);
    best as f64 / plan.closed_window.as_secs_f64() / 1e3
}

/// Median query latency of the least disturbed one-second window (by due
/// time) of the open-loop phase, µs.
fn query_p50_us(ep: &Episode) -> f64 {
    let per_window = (QUERY_RATE as usize).max(BURST);
    let medians: Vec<f64> = ep
        .client
        .latency_ns
        .chunks(per_window)
        .filter(|w| w.len() >= per_window / 2)
        .map(|w| median(&ns_to(w, 1e3)))
        .collect();
    if medians.is_empty() {
        median(&ns_to(&ep.client.latency_ns, 1e3))
    } else {
        fastest(&medians)
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Everything started from here on — the server's acceptor and handler
    // included — inherits this CPU; the ingest thread moves itself away.
    let serve_cpu = nproc() - 1;
    let pinned = pin_current_thread(serve_cpu);
    eprintln!(
        "{}: server and client on CPU {serve_cpu} (pinned: {pinned}), ingest on CPU {INGEST_CPU}",
        cfg.workload
    );
    // The traced run splits its time over three episodes: cold, untraced,
    // traced.
    let episode_seconds = if cfg.trace {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    let plan = plan(cfg, episode_seconds);
    let bind = || Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let (made, setup_s) =
        timed_setup(|| make_input(cfg, &plan).and_then(|input| Ok((input, bind()?))));
    let (input, server) = made?;
    eprintln!(
        "{}: {} batches every {:?} (bridge in at {}, out at {}), {} q/s open loop for {:?}, closed loop for {:?}",
        cfg.workload, plan.batches, plan.period, plan.bridge_in, plan.bridge_out, QUERY_RATE, plan.open, plan.closed
    );
    let mut checks = Checks::default();
    let mut finish = |ep: &Episode| -> Result<(), String> {
        checks.attempted += ep.client.checks.attempted;
        checks.failed += ep.client.checks.failed;
        verify_shape(&input, ep, &plan)
    };
    let boot_stats = input.boot.engine.stats();

    if !cfg.trace {
        let ep = episode(cfg, &input, &plan, server, false)?;
        finish(&ep)?;
        let stats = ep.engine.stats();
        let latency_us = ns_to(&ep.client.latency_ns, 1e3);
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup_s);
        // The unit of work is a million queries at saturation, so that on
        // every workload throughput = units / `wall_s`. (What the ingest side
        // cost is the per-layer row `core.stream.ingest_busy_s`: one
        // recompute and one lazy sketch build, a single reading that moves
        // 19 % between seeds.)
        let kqps = saturation_kqps(&ep, &plan);
        m.set("wall_s", 1e3 / kqps);
        m.set("throughput_kops_per_s", kqps);
        m.set("latency_ms_p50", query_p50_us(&ep) / 1e3);
        m.set("visible_ms_p50", median(&visible_ms(&ep, &plan)));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set(
            "mpc_rounds",
            (stats.total_rounds() - boot_stats.total_rounds()) as f64,
        );
        m.set(
            "mpc_words",
            (stats.total_communication_words() - boot_stats.total_communication_words()) as f64,
        );
        eprintln!(
            "  {} open-loop samples, {} bursts ({} late, max lag {:.3} ms), {} of {} epochs seen exactly",
            latency_us.len(),
            ep.client.bursts,
            ep.client.late_bursts,
            ep.client.max_lag_ns as f64 / 1e6,
            ep.client.epochs_seen_exactly,
            input.tables.len()
        );
        eprintln!(
            "  open-loop latency, us: p50 {:.1}  p75 {:.1}  p90 {:.1}  p95 {:.1}  p99 {:.1}  p99.9 {:.1}",
            quantile(&latency_us, 0.5),
            quantile(&latency_us, 0.75),
            quantile(&latency_us, 0.9),
            quantile(&latency_us, 0.95),
            quantile(&latency_us, 0.99),
            quantile(&latency_us, 0.999)
        );
        return Ok(Outcome { checks, metrics: m });
    }

    let cold = episode(cfg, &input, &plan, server, false)?;
    finish(&cold)?;
    let untraced = episode(cfg, &input, &plan, bind()?, false)?;
    finish(&untraced)?;
    let ep = episode(cfg, &input, &plan, bind()?, true)?;
    finish(&ep)?;

    ep.tracer.report(&cfg.workload)?;
    let mut m = Metrics::per_layer();
    m.set(
        "trace.overhead_frac",
        busy_seconds(&ep) / busy_seconds(&untraced) - 1.0,
    );
    m.set("trace.cold_rep_s", busy_seconds(&cold));
    m.set("core.stream.ingest_busy_s", busy_seconds(&ep));

    let latency_us = ns_to(&ep.client.latency_ns, 1e3);
    let p50_us = query_p50_us(&ep);
    let visible = visible_ms(&ep, &plan);
    let recompute = ep
        .batches
        .iter()
        .find(|b| matches!(b.path, BatchPath::Recompute(_)))
        .expect("verify_shape found the recompute");
    let burst_ns = BURST as u64 * 1_000_000_000 / QUERY_RATE;
    let during_recompute: Vec<f64> = latency_us
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let due_ns = (*i / BURST) as u64 * burst_ns;
            (recompute.started_ns..recompute.published_ns).contains(&due_ns)
        })
        .map(|(_, &us)| us)
        .collect();
    m.set("core.serve.server.queries", ep.queries as f64);
    m.set("core.serve.server.not_found", ep.not_found as f64);
    m.set("core.serve.server.connections", ep.connections as f64);
    m.set("core.serve.server.query_p99_us", windowed_p99_us(&ep));
    m.set(
        "core.serve.server.query_p99_all_us",
        quantile(&latency_us, 0.99),
    );
    if !during_recompute.is_empty() {
        m.set(
            "core.serve.server.query_recompute_p99_us",
            quantile(&during_recompute, 0.99),
        );
    }
    m.set(
        "core.serve.server.ingest_visible_ms_p90",
        quantile(&visible, 0.9),
    );
    m.set(
        "core.serve.server.ingest_visible_ms_max",
        quantile(&visible, 1.0),
    );
    m.set(
        "core.serve.server.recompute_stall_ms",
        (recompute.published_ns - recompute.started_ns) as f64 / 1e6,
    );
    m.set("loadgen.sent", latency_us.len() as f64);
    m.set(
        "loadgen.late_fraction",
        ep.client.late_bursts as f64 / ep.client.bursts.max(1) as f64,
    );
    m.set("loadgen.max_lag_ms", ep.client.max_lag_ns as f64 / 1e6);

    let apply_ms_of = |pred: fn(&BatchPath) -> bool| -> Vec<f64> {
        ep.batches
            .iter()
            .filter(|b| pred(&b.path))
            .map(|b| b.apply_ns as f64 / 1e6)
            .collect()
    };
    let fast_ms = apply_ms_of(BatchPath::is_fast);
    let repair_ms = apply_ms_of(|p| *p == BatchPath::SketchRepair);
    m.set("core.stream.batches_fast", fast_ms.len() as f64);
    m.set("core.stream.batches_repair", repair_ms.len() as f64);
    m.set("core.stream.batches_recompute", 1.0);
    m.set("core.stream.splits", ep.engine.splits() as f64);
    m.set(
        "core.stream.recertifies",
        ep.engine.sketch_recertifies() as f64,
    );
    m.set("core.stream.apply_fast_ms_p50", median(&fast_ms));
    m.set(
        "core.stream.fast_ns_per_op",
        fast_ms.iter().sum::<f64>() * 1e6 / (fast_ms.len() * OPS_PER_BATCH) as f64,
    );
    m.set("core.stream.repair_ms_p50", median(&repair_ms));
    m.set(
        "core.stream.recompute_ms_p50",
        recompute.apply_ns as f64 / 1e6,
    );
    m.set(
        "core.serve.snapshot.publish_ns",
        median(
            &ep.batches
                .iter()
                .map(|b| b.publish_ns as f64)
                .collect::<Vec<_>>(),
        ),
    );
    set_model_stats(&mut m, &ep.engine.stats(), boot_stats.phases().len());

    // What one query costs without the socket: the snapshot lookup, and the
    // wire encode + decode of one request and one response.
    let query_ns = snapshot_query_ns(&input, &ep.engine);
    let roundtrip_ns = protocol_roundtrip_ns();
    m.set("core.serve.snapshot.query_ns", query_ns);
    m.set("core.serve.protocol.roundtrip_ns", roundtrip_ns);
    m.set(
        "core.serve.server.socket_us",
        p50_us - (query_ns + roundtrip_ns) / 1e3,
    );

    snapshot_probes(&mut m, ep.engine, input.boot.half)?;
    Ok(Outcome { checks, metrics: m })
}

/// Mean cost of one in-process `SameComponent` lookup through a
/// [`SnapshotReader`] on the final snapshot.
fn snapshot_query_ns(input: &Input, engine: &IncrementalComponents) -> f64 {
    const LOOKUPS: u64 = 200_000;
    let mut engine = engine.clone();
    let cell = SnapshotCell::new();
    cell.publish(engine.snapshot(engine.batches_applied() as u64));
    let mut reader = SnapshotReader::new(&cell);
    let n = input.pool.bootstrap;
    let started = Instant::now();
    let mut same = 0u64;
    for i in 0..LOOKUPS {
        let (u, v) = (i.wrapping_mul(2654435761) % n, i.wrapping_mul(40503) % n);
        same += u64::from(reader.current(&cell).same_component(u, v) == Some(true));
    }
    std::hint::black_box(same);
    started.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64
}

/// Mean cost of encoding and decoding one request and one response frame.
fn protocol_roundtrip_ns() -> f64 {
    const ROUNDS: u64 = 200_000;
    let mut buf = Vec::with_capacity(64);
    let started = Instant::now();
    for i in 0..ROUNDS {
        buf.clear();
        Request::SameComponent { u: i, v: i + 1 }.encode(&mut buf);
        let request = Request::decode(std::hint::black_box(&buf[4..])).expect("own frame decodes");
        buf.clear();
        Response::Same {
            epoch: i,
            same: matches!(request, Request::SameComponent { .. }),
        }
        .encode(&mut buf);
        std::hint::black_box(
            Response::decode(std::hint::black_box(&buf[4..])).expect("own frame decodes"),
        );
    }
    started.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64
}
