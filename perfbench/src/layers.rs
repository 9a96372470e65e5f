//! The traced run: every layer timed from outside through its public
//! functions, plus one traced query per pipeline.
//!
//! Counts come from `obs::thread_snapshot()` deltas around the same
//! calls. Refine time is a serial probe minus a filter-only pass over
//! the same expanded envelopes (Kipf et al.'s filter/refine split).

use std::hint::black_box;

use bench::{Experiment, Replay};
use cluster::{simulate, ClusterSpec, Scheduler};
use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, RefinementEngine};
use geom::{Envelope, HasEnvelope};
use impalite::plan::plan_query;
use impalite::{parse_query, Catalog, TableDef};
use minihdfs::MiniDfs;
use rtree::RTree;
use sparklet::JobReport;
use spatialjoin::{
    GeomRecord, IspMc, IspMcRun, MorselConfig, PointRecord, PreparedSet, RecordReader,
};

use crate::pipelines::{Pipeline, Run, Systems, Tally};
use crate::trace::Tracer;
use crate::workload::Reference;
use crate::BenchErr;

/// One reported per-layer metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything the traced run produced.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Counter-algebra assertions and whether each held.
    pub algebra: Vec<(String, bool)>,
    /// Advertised `obs` counters that stayed zero in this run.
    pub zero_counters: Vec<String>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn assert(&mut self, what: String, held: bool) {
        if !held {
            eprintln!("perfbench: counter algebra violated: {what}");
        }
        self.algebra.push((what, held));
    }

    /// `filter_hits == refine_calls` and `refine_calls >= pairs` (a
    /// nearest-one join emits at most one pair per candidate-bearing
    /// point, so the second holds for every predicate).
    fn algebra(&mut self, label: &str, c: &obs::Counters, pairs: usize) {
        self.assert(
            format!(
                "{label}: filter_hits ({}) == refine_calls ({})",
                c.filter_hits, c.refine_calls
            ),
            c.filter_hits == c.refine_calls,
        );
        self.assert(
            format!(
                "{label}: refine_calls ({}) >= pairs ({pairs})",
                c.refine_calls
            ),
            c.refine_calls >= pairs as u64,
        );
    }

    pub fn algebra_holds(&self) -> bool {
        self.algebra.iter().all(|(_, held)| *held)
    }
}

/// Inputs the traced run shares with the rest of the benchmark.
pub struct Context<'a> {
    pub dfs: &'a MiniDfs,
    pub exp: Experiment,
    pub sys: &'a Systems,
    pub reference: &'a Reference,
    pub threads: usize,
    pub replay: &'a Replay,
    /// Untraced medians of the three pipelines, in `Pipeline::ALL` order.
    pub untraced: [f64; 3],
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the traced run and returns its per-layer metrics.
pub fn traced_run(
    cx: &Context<'_>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Layers, BenchErr> {
    let start = obs::thread_snapshot();
    let mut w = Walk {
        cx,
        tr,
        tally,
        out: Layers::default(),
    };

    w.tr.begin_trace();
    let root = w.tr.enter("layers");
    let (left, right) = w.read_layers()?;
    let filter_s = w.rtree_layers(&left, &right);
    let flat = w.engine_pass(
        &left,
        &right,
        &FlatEngine,
        ["prepare.flat", "probe.serial.flat"],
    );
    let naive = w.engine_pass(
        &left,
        &right,
        &NaiveEngine,
        ["prepare.naive", "probe.serial.naive"],
    );
    drop(naive.set);
    let prepared = w.engine_pass(
        &left,
        &right,
        &PreparedEngine,
        ["prepare.prepared", "probe.serial.prepared"],
    );
    drop(prepared.set);
    w.pool_layer(&left, &flat.set, flat.serial_s);
    drop(flat.set);
    w.sql_layer()?;
    w.tr.exit(root);
    w.traced_queries(left.len() + right.len());

    let out = &mut w.out;
    out.put("prepare.flat_s", flat.prepare_s, "s");
    out.put("prepare.naive_s", naive.prepare_s, "s");
    out.put("prepare.prepared_s", prepared.prepare_s, "s");
    out.put("refine.flat_s", flat.serial_s - filter_s, "s");
    out.put("refine.naive_s", naive.serial_s - filter_s, "s");
    out.put("refine.prepared_s", prepared.serial_s - filter_s, "s");
    let c = flat.counters;
    let probes = left.len() as u64;
    out.put(
        "refine.accept_ratio",
        ratio(c.refine_accepts, c.refine_calls),
        "ratio",
    );
    out.put(
        "refine.edges_per_call",
        ratio(c.edge_visits, c.refine_calls),
        "count",
    );
    out.put(
        "rtree.nodes_per_probe",
        ratio(c.node_visits, probes),
        "count",
    );
    out.put(
        "rtree.candidates_per_probe",
        ratio(c.filter_hits, probes),
        "count",
    );

    let seen = obs::thread_snapshot().minus(&start);
    for (name, value) in seen.fields() {
        if value == 0 {
            out.zero_counters.push(name.to_string());
        }
    }
    if prepared.counters.edge_visits == 0 {
        out.zero_counters
            .push("edge_visits under PreparedEngine".to_string());
    }
    Ok(w.out)
}

struct EnginePass<E: RefinementEngine> {
    set: PreparedSet<E>,
    prepare_s: f64,
    serial_s: f64,
    counters: obs::Counters,
}

/// The traced run's state: shared inputs, the span recorder, the
/// operation tally and the metrics gathered so far.
struct Walk<'a, 'b> {
    cx: &'a Context<'a>,
    tr: &'b mut Tracer,
    tally: &'b mut Tally,
    out: Layers,
}

impl Walk<'_, '_> {
    /// `minihdfs` reads and `core::reader` parsing of both sides.
    fn read_layers(&mut self) -> Result<(Vec<PointRecord>, Vec<GeomRecord>), BenchErr> {
        let (dfs, exp) = (self.cx.dfs, self.cx.exp);
        let (lp, rp) = (exp.left_path(), exp.right_path());
        let s = self.tr.enter("minihdfs.read_left");
        let left_lines = dfs.read_all_lines(lp)?;
        let read_left = self.tr.exit(s);
        let s = self.tr.enter("minihdfs.read_right");
        let right_lines = dfs.read_all_lines(rp)?;
        let read_right = self.tr.exit(s);
        let bytes = dfs.stat(lp)?.total_bytes + dfs.stat(rp)?.total_bytes;
        let out = &mut self.out;
        out.put("minihdfs.read_left_s", read_left, "s");
        out.put("minihdfs.read_right_s", read_right, "s");
        out.put(
            "minihdfs.read_mb_per_s",
            bytes as f64 / 1e6 / (read_left + read_right),
            "MB/s",
        );

        let reader = RecordReader::new(1);
        let before = obs::thread_snapshot();
        let s = self.tr.enter("reader.left");
        let (left, left_skipped) = reader.read_points(&left_lines);
        let left_s = self.tr.exit(s);
        let mid = obs::thread_snapshot();
        let s = self.tr.enter("reader.right");
        let (right, right_skipped) = reader.read_geoms(&right_lines);
        let right_s = self.tr.exit(s);
        let after = obs::thread_snapshot();

        let out = &mut self.out;
        out.put("reader.left_s", left_s, "s");
        out.put("reader.right_s", right_s, "s");
        out.put("reader.records", (left.len() + right.len()) as f64, "count");
        out.put(
            "reader.skipped",
            (left_skipped + right_skipped) as f64,
            "count",
        );
        for (side, delta, read) in [
            ("left", mid.minus(&before), left.len()),
            ("right", after.minus(&mid), right.len()),
        ] {
            out.assert(
                format!(
                    "reader.{side}: records_parsed ({}) == records read ({read})",
                    delta.records_parsed
                ),
                delta.records_parsed == read as u64,
            );
        }
        Ok((left, right))
    }

    /// `rtree` bulk load and a filter-only pass; returns the filter
    /// seconds.
    fn rtree_layers(&mut self, left: &[PointRecord], right: &[GeomRecord]) -> f64 {
        let radius = self.cx.exp.predicate().filter_radius();
        let entries: Vec<(Envelope, u32)> = right
            .iter()
            .enumerate()
            .map(|(i, (_, g))| (g.envelope().expanded_by(radius), i as u32))
            .collect();
        let s = self.tr.enter("rtree.build");
        let tree = RTree::bulk_load_entries(entries);
        let build_s = self.tr.exit(s);

        // The traversal `rtree::probe_with` runs (radius 0 over the
        // expanded envelopes), with refinement skipped.
        let s = self.tr.enter("rtree.filter");
        let mut candidates = 0u64;
        for &(_, p) in left {
            black_box(tree.for_each_within_distance(p, 0.0, |_| candidates += 1));
        }
        let filter_s = self.tr.exit(s);
        black_box(candidates);
        self.out.put("rtree.build_s", build_s, "s");
        self.out.put("rtree.filter_s", filter_s, "s");
        filter_s
    }

    /// Prepares the right side for one engine and probes it serially
    /// (one thread), checking the pairs and the counter algebra.
    fn engine_pass<E: RefinementEngine>(
        &mut self,
        left: &[PointRecord],
        right: &[GeomRecord],
        engine: &E,
        [prepare_span, probe_span]: [&'static str; 2],
    ) -> EnginePass<E> {
        let s = self.tr.enter(prepare_span);
        let set = PreparedSet::prepare(right, self.cx.exp.predicate(), engine);
        let prepare_s = self.tr.exit(s);

        let before = obs::thread_snapshot();
        let s = self.tr.enter(probe_span);
        let pairs = set.par_probe(left, engine, MorselConfig::serial());
        let serial_s = self.tr.exit(s);
        let counters = obs::thread_snapshot().minus(&before);
        self.out.algebra(probe_span, &counters, pairs.len());
        self.tally.check_pairs(probe_span, pairs, self.cx.reference);
        EnginePass {
            set,
            prepare_s,
            serial_s,
            counters,
        }
    }

    /// `cluster::pool` through `PreparedSet::par_probe_observed` at the
    /// system's thread count.
    fn pool_layer(&mut self, left: &[PointRecord], set: &PreparedSet<FlatEngine>, serial_s: f64) {
        let threads = self.cx.threads;
        let s = self.tr.enter("pool.probe");
        let (pairs, timings, exec) =
            set.par_probe_observed(left, &FlatEngine, MorselConfig::new(threads));
        let wall = self.tr.exit(s);
        obs::add_thread(&exec.worker_counters);
        self.tally
            .check_pairs("pool.probe", pairs, self.cx.reference);
        let busy = exec.total_busy_ns() as f64 / 1e9;
        let wait = exec.workers.iter().map(|w| w.wait_ns).sum::<u64>() as f64 / 1e9;
        let out = &mut self.out;
        out.put("pool.probe_wall_s", wall, "s");
        out.put("pool.busy_s", busy, "s");
        out.put("pool.wait_s", wait, "s");
        out.put("pool.efficiency", busy / (wall * threads as f64), "ratio");
        out.put("pool.speedup", serial_s / wall, "ratio");
        out.put("pool.morsels", timings.len() as f64, "count");
    }

    /// `impalite` SQL front end: parse plus plan of the Fig. 1
    /// statement.
    fn sql_layer(&mut self) -> Result<(), BenchErr> {
        let exp = self.cx.exp;
        let (l, r) = exp.table_names();
        let sql = IspMc::render_sql(l, r, exp.predicate());
        let mut catalog = Catalog::new();
        catalog.register(TableDef::id_geom(l, exp.left_path()));
        catalog.register(TableDef::id_geom(r, exp.right_path()));
        let s = self.tr.enter("impalite.sql");
        let plan = parse_query(&sql).and_then(|q| plan_query(&q, &catalog));
        let sql_s = self.tr.exit(s);
        black_box(plan?);
        self.out.put("impalite.sql_s", sql_s, "s");
        Ok(())
    }

    /// One traced query per pipeline: stage and fragment metrics from
    /// the systems' own reports, replay terms, and the tracing
    /// overhead. `records` is both sides' record count.
    fn traced_queries(&mut self, records: usize) {
        let mut traced_total = 0.0;
        for p in Pipeline::ALL {
            self.tr.begin_trace();
            let span = match p {
                Pipeline::SparkBroadcast => "query.spark_broadcast",
                Pipeline::IspMc => "query.ispmc",
                Pipeline::SparkPartitioned => "query.spark_partitioned",
            };
            let before = obs::thread_snapshot();
            let s = self.tr.enter(span);
            let outcome = self.cx.sys.run(p);
            let wall = self.tr.exit(s);
            traced_total += wall;
            let c = obs::thread_snapshot().minus(&before);
            let Some(run) = self.tally.check(span, outcome, self.cx.reference) else {
                continue;
            };
            self.out.algebra(span, &c, run.pairs().len());
            match run {
                Run::Spark(r) if p == Pipeline::SparkBroadcast => {
                    self.out.assert(
                        format!(
                            "{span}: records_parsed ({}) == records read ({records})",
                            c.records_parsed
                        ),
                        c.records_parsed == records as u64,
                    );
                    self.spark_broadcast_metrics(&r.report, wall);
                    self.out.put(
                        "replay.spark_single_s",
                        bench::spark_single_node_at_scale(&r, self.cx.replay),
                        "s",
                    );
                }
                Run::Spark(r) => self.out.put(
                    "sparklet.shuffle_bytes",
                    r.report.stages.iter().map(|s| s.shuffle_bytes).sum::<u64>() as f64,
                    "bytes",
                ),
                Run::IspMc(r) => self.ispmc_metrics(&r),
            }
        }
        let untraced: f64 = self.cx.untraced.iter().sum();
        self.out
            .put("trace.overhead", traced_total / untraced - 1.0, "ratio");
    }

    fn spark_broadcast_metrics(&mut self, report: &JobReport, wall: f64) {
        // What the report accounts for on this box: each stage's
        // measured tasks replayed on one node with the local thread
        // count.
        let local = ClusterSpec {
            num_nodes: 1,
            cores_per_node: self.cx.threads,
            ..ClusterSpec::single_node_highend()
        };
        let accounted: f64 = report
            .stages
            .iter()
            .map(|s| simulate(&s.tasks, &local, Scheduler::Dynamic).makespan)
            .sum();
        let out = &mut self.out;
        out.put("sparklet.build_s", stage_work(report, "driver:"), "s");
        out.put("sparklet.parse_s", stage_work(report, "map:parse-wkt"), "s");
        out.put("sparklet.probe_s", stage_work(report, "flatMap:"), "s");
        out.put(
            "sparklet.broadcast_bytes",
            report.total_broadcast_bytes() as f64,
            "bytes",
        );
        out.put("sparklet.unrecorded_s", wall - accounted, "s");
    }

    fn ispmc_metrics(&mut self, run: &IspMcRun) {
        let replay = self.cx.replay;
        let m = &run.result.metrics;
        let out = &mut self.out;
        out.put(
            "impalite.scan_s",
            m.scan_tasks.iter().map(|t| t.cost).sum(),
            "s",
        );
        out.put("impalite.build_s", m.build_secs, "s");
        out.put(
            "impalite.probe_s",
            m.probe_batches.iter().map(|b| b.total()).sum(),
            "s",
        );
        out.put("impalite.row_batches", m.num_batches() as f64, "count");
        out.put(
            "impalite.barrier_idle_s",
            m.probe_batches
                .iter()
                .map(|b| b.barrier_time() * b.chunk_costs.len() as f64 - b.total())
                .sum(),
            "s",
        );

        let single = bench::ispmc_single_node_at_scale(run, replay);
        let standalone = bench::ispmc_standalone_at_scale(run, replay);
        out.put("replay.ispmc_single_s", single, "s");
        out.put("replay.ispmc_standalone_s", standalone, "s");
        out.put(
            "replay.infra_overhead",
            (single - standalone) / single,
            "ratio",
        );

        // The two probe terms the Table 1 comparison turns on, at full
        // scale on the single 16-core node: ISP-MC's per-batch barriers
        // against standalone's static chunking of the flattened chunks.
        let scaled = bench::scale_ispmc_metrics(m, replay);
        let spec = ClusterSpec::single_node_highend();
        let concurrent = (spec.cores_per_node / scaled.chunks_per_batch.max(1)).max(1) as f64;
        let barrier: f64 = scaled
            .probe_batches
            .iter()
            .map(|b| b.barrier_time())
            .sum::<f64>()
            / concurrent;
        let chunked = simulate(&scaled.probe_tasks(), &spec, Scheduler::StaticChunked).makespan;
        out.put("replay.ispmc_probe_s", barrier, "s");
        out.put("replay.standalone_probe_s", chunked, "s");
    }
}

/// Seconds of a SpatialSpark report's stages whose name starts with
/// `prefix`.
fn stage_work(report: &JobReport, prefix: &str) -> f64 {
    report
        .stages
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.total_work())
        .sum()
}
