//! The metric names this benchmark prints, with their units. `BENCHMARK.json`
//! at the repo root lists the same names with direction and bound; the smoke
//! test checks the two agree.

use crate::json::Json;

/// End-to-end metrics, printed with `--trace 0`. Every workload reports
/// every one of them and none is ever zero; README.md says what each means
/// on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_kops_per_s", "kops/s"),
    ("latency_ms_p50", "ms"),
    ("visible_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("mpc_rounds", "rounds"),
    ("mpc_words", "words"),
];

/// Per-layer metrics, printed with `--trace 1`, named
/// `<crate>.<module>.<metric>`. A layer that does nothing on a workload
/// reads 0 there — which is the prediction "no change" made checkable.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.parse_text_s", "s"),
    ("graph.io.decode_s", "s"),
    ("graph.io.decode_mops_per_s", "Mops/s"),
    ("mpc.stream.decode_parallel_s", "s"),
    ("graph.components.uf_s", "s"),
    ("core.stream.work_ratio_uf", "ratio"),
    ("core.regularize.s", "s"),
    ("core.regularize.vertices", "count"),
    ("core.walks.randomize_s", "s"),
    ("core.walks.steps", "count"),
    ("core.walks.ns_per_step", "ns"),
    ("core.walks.keystream_words_per_step", "ratio"),
    ("core.walks.spec_fallbacks", "count"),
    ("core.walks.walk_length", "count"),
    ("core.walks.batches", "count"),
    ("core.leader.grow_s", "s"),
    ("core.leader.grow_phases", "count"),
    ("core.leader.bfs_s", "s"),
    ("core.leader.bfs_levels", "count"),
    ("core.pipeline.adaptive_levels", "count"),
    ("core.pipeline.pullback_s", "s"),
    ("core.pipeline.unattributed_s", "s"),
    ("mpc.stats.rounds.regularize", "rounds"),
    ("mpc.stats.rounds.randomize", "rounds"),
    ("mpc.stats.rounds.grow", "rounds"),
    ("mpc.stats.rounds.bfs", "rounds"),
    ("mpc.stats.rounds.stream_ingest", "rounds"),
    ("mpc.stats.rounds.other", "rounds"),
    ("mpc.stats.words.regularize", "words"),
    ("mpc.stats.words.randomize", "words"),
    ("mpc.stats.words.grow", "words"),
    ("mpc.stats.words.bfs", "words"),
    ("mpc.stats.words.stream_ingest", "words"),
    ("mpc.stats.words.other", "words"),
    ("mpc.stats.max_machine_load_words", "words"),
    ("mpc.stats.memory_violations", "count"),
    ("mpc.cluster.reduce_by_key_mtuples_per_s", "Mtuples/s"),
    ("mpc.cluster.shuffle_mwords_per_s", "Mwords/s"),
    ("mpc.executor.t2_speedup", "ratio"),
    ("mpc.pool.dispatches", "count"),
    ("core.stream.batches_fast", "count"),
    ("core.stream.batches_repair", "count"),
    ("core.stream.batches_recompute", "count"),
    ("core.stream.splits", "count"),
    ("core.stream.recertifies", "count"),
    ("core.stream.fast_ns_per_op", "ns"),
    ("core.stream.apply_fast_ms_p50", "ms"),
    ("core.stream.repair_ms_p50", "ms"),
    ("core.stream.recompute_ms_p50", "ms"),
    ("core.stream.ingest_busy_s", "s"),
    ("core.stream.current_graph_s", "s"),
    ("core.stream.snapshot_quiet_ns", "ns"),
    ("core.stream.snapshot_changed_us", "us"),
    ("sketch.dynamic.update_us_per_op", "us"),
    ("sketch.dynamic.subset_components_ms", "ms"),
    ("sketch.dynamic.words_per_vertex", "words"),
    ("core.serve.snapshot.publish_ns", "ns"),
    ("core.serve.snapshot.query_ns", "ns"),
    ("core.serve.protocol.roundtrip_ns", "ns"),
    ("core.serve.server.socket_us", "us"),
    ("core.serve.server.queries", "count"),
    ("core.serve.server.not_found", "count"),
    ("core.serve.server.connections", "count"),
    ("core.serve.server.query_p99_us", "us"),
    ("core.serve.server.query_p99_all_us", "us"),
    ("core.serve.server.query_recompute_p99_us", "us"),
    ("core.serve.server.ingest_visible_ms_p90", "ms"),
    ("core.serve.server.ingest_visible_ms_max", "ms"),
    ("core.serve.server.recompute_stall_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.late_fraction", "ratio"),
    ("loadgen.max_lag_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.cold_rep_s", "s"),
];

/// The metric values of one run, in the order of one of the tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    /// Every metric must be set, and to a value that is not zero.
    all_required: bool,
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set of [`END_TO_END`] metrics: every one must be given a
    /// non-zero value before [`Metrics::to_json`].
    pub fn end_to_end() -> Self {
        Metrics {
            table: END_TO_END,
            all_required: true,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// An empty set of [`PER_LAYER`] metrics: one never set reads 0.
    pub fn per_layer() -> Self {
        Metrics {
            table: PER_LAYER,
            all_required: false,
            values: vec![None; PER_LAYER.len()],
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table — a typo must not silently drop
    /// a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.values[i] = Some(value);
    }

    /// The `metrics` object of the result line. Per-layer metrics never set
    /// read 0 (the layer was idle); an end-to-end metric never set, zero or
    /// not finite is an error, because every workload must define it.
    ///
    /// # Errors
    ///
    /// Names the offending end-to-end metric.
    pub fn to_json(&self) -> Result<Json, String> {
        let mut members = Vec::with_capacity(self.table.len());
        for (&(name, unit), value) in self.table.iter().zip(&self.values) {
            let value = match *value {
                Some(v) if v.is_finite() && (v != 0.0 || !self.all_required) => v,
                None if !self.all_required => 0.0,
                other => return Err(format!("metric {name} has no usable value ({other:?})")),
            };
            members.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Obj(members))
    }

    /// Prints every set metric by name with its unit to stderr.
    pub fn print(&self) {
        for (&(name, unit), value) in self.table.iter().zip(&self.values) {
            if let Some(v) = value {
                eprintln!("  {name:<44} {v:>16.6} {unit}");
            }
        }
    }
}
