//! Morsel-driven parallel join executor with prepare-once geometry
//! sharing.
//!
//! The paper's systems get their speed from running the broadcast
//! R-tree probe in parallel — dynamic task scheduling on Spark, static
//! OpenMP-style chunking in Impala (§IV–V). This module is the single
//! executor behind SpatialSpark and [`crate::JoinRequest`]: the right
//! side is prepared **once** into a shared [`PreparedSet`], and the
//! left side is probed in fixed-size morsels, one [`cluster::dispatch`]
//! unit each, under any [`ScheduleMode`]. The three `par_probe*`
//! entry points (plain, observed, fault-injected) share one body; they
//! differ only in the retry policy and in what they do with the run's
//! failures and worker counters. (ISP-MC shares the same pool but,
//! like the paper's per-instance build, builds its own tree in
//! impalite's fragment 0.)
//!
//! # Leaf-order slots
//!
//! [`PreparedSet::prepare`] STR-packs the expanded envelopes first,
//! then prepares the right side in **leaf order** through
//! [`rtree::RTree::bulk_load_by`]. Ids and prepared geometries are
//! stored by *slot* — a record's leaf position — and the tree's `u32`
//! payload is the slot, so the candidates one leaf yields are adjacent
//! in memory, heap blocks included. An `input index → slot` map keeps
//! input-order addressing (partition tasks' `right_ids`) working.
//!
//! # Determinism contract
//!
//! Output is **bit-identical to the serial path at any thread count**:
//! every index build STR-packs the same envelope sequence (the right
//! side in input order; STR packing is a stable sort over envelopes),
//! so the tree shape and traversal order are those of the serial
//! [`crate::join::build_right_index`] — a slot names the same record
//! its input index did, so the layout changes where a candidate lives,
//! never which candidates are visited or in what order. Per-morsel
//! output segments are stitched back in input order by the driver.
//! Scheduling only decides *who* runs a morsel, never what it appends.
//!
//! # Prepare-once memory story
//!
//! The partitioned join replicates right geometries into every
//! partition they overlap. The paper's systems re-read and re-prepare
//! the replicated fragments per partition task; here a partition task
//! carries only `right_ids: &[u32]` into the shared set and builds a
//! subset R-tree over envelope *copies* — zero geometry clones
//! end-to-end.

use cluster::{
    dispatch, Chaos, ChaosSite, PoolOptions, PoolRun, RetryPolicy, ScheduleMode, TaskFailure,
    TaskSpec, TaskTiming,
};
use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use rtree::{probe_with, RTree};

use crate::join::partition_work;
use crate::{GeomRecord, JoinPair, PointRecord};

/// Default morsel size: small enough for dynamic scheduling to balance
/// skewed probe costs, large enough to amortise dispatch overhead.
pub const DEFAULT_MORSEL_SIZE: usize = 2048;

/// Side of the uniform grid used to derive morsel locality: each morsel
/// is tagged with its dominant cell on a `SIDE × SIDE` grid over the
/// left extent. The cell id stands in for the HDFS block / scan-range
/// id Impala pins tasks to; 16×16 = 256 cells keeps many distinct
/// "blocks" per node at the paper's 4–10 node counts.
pub const LOCALITY_GRID_SIDE: usize = 16;

/// Cell of `p` on a `side × side` grid over `extent` (row-major).
/// Degenerate extents collapse to cell 0.
fn grid_cell(p: Point, extent: &Envelope, side: usize) -> usize {
    let w = extent.width();
    let h = extent.height();
    let col = if w > 0.0 {
        (((p.x - extent.min_x) / w * side as f64) as usize).min(side - 1)
    } else {
        0
    };
    let row = if h > 0.0 {
        (((p.y - extent.min_y) / h * side as f64) as usize).min(side - 1)
    } else {
        0
    };
    row * side + col
}

/// Envelope of the left points (the grid's frame).
fn points_extent(left: &[PointRecord]) -> Envelope {
    let mut extent = Envelope::EMPTY;
    for &(_, p) in left {
        extent.expand_to(p.x, p.y);
    }
    extent
}

/// Tags each morsel of `left` (chunks of `morsel_size`) with its
/// **dominant partition**: the grid cell holding the plurality of the
/// morsel's points, ties to the lower cell id. This is the
/// preferred-worker/preferred-node hint the locality-aware schedules
/// consume — the grid partition standing in for HDFS block locality.
pub fn morsel_partitions(left: &[PointRecord], morsel_size: usize, side: usize) -> Vec<usize> {
    let side = side.max(1);
    let extent = points_extent(left);
    if extent.is_empty() {
        return Vec::new();
    }
    let mut counts = vec![0u32; side * side];
    let mut out = Vec::with_capacity(left.len().div_ceil(morsel_size.max(1)));
    for morsel in left.chunks(morsel_size.max(1)) {
        counts.iter_mut().for_each(|c| *c = 0);
        for &(_, p) in morsel {
            counts[grid_cell(p, &extent, side)] += 1;
        }
        let dominant = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(cell, _)| cell)
            .unwrap_or(0);
        out.push(dominant);
    }
    out
}

/// Splits per-morsel partition tags into bounded-size *block* ids.
///
/// HDFS blocks have a fixed byte size, so a dense grid cell spans many
/// blocks that a locality scheduler places independently — it never
/// pins an arbitrarily hot region to one node wholesale. This renames
/// each run of equal partition tags into fresh ids, starting a new id
/// whenever the run reaches `max_block_morsels`. Tags must be in file
/// (morsel) order; spatially sorted input keeps each block's morsels
/// within one grid cell, so the block is still a locality unit.
pub fn partition_blocks(partitions: &[usize], max_block_morsels: usize) -> Vec<usize> {
    let cap = max_block_morsels.max(1);
    let mut out = Vec::with_capacity(partitions.len());
    let mut block = 0usize;
    let mut run_len = 0usize;
    let mut prev: Option<usize> = None;
    for &tag in partitions {
        if prev.is_some_and(|p| p != tag) || run_len == cap {
            block += 1;
            run_len = 0;
        }
        prev = Some(tag);
        run_len += 1;
        out.push(block);
    }
    out
}

/// Sorts points by their grid cell (stable within a cell), mimicking
/// the spatially ordered HDFS files the paper's datasets ship as —
/// this is what makes hot regions *contiguous* in task order, the
/// precondition for the static-chunking imbalance of §V.
pub fn spatial_sort_points(left: &mut [PointRecord], side: usize) {
    let side = side.max(1);
    let extent = points_extent(left);
    if extent.is_empty() {
        return;
    }
    left.sort_by_key(|&(_, p)| grid_cell(p, &extent, side));
}

/// Converts measured per-morsel timings plus their dominant-partition
/// tags into simulator task specs: `cost` is the measured wall-clock,
/// `locality` the partition id (the simulator maps it onto a node with
/// `partition % num_nodes`). Timings are emitted in morsel (input)
/// order; a missing tag yields a task with no locality preference.
pub fn timings_to_taskspecs(timings: &[TaskTiming], partitions: &[usize]) -> Vec<TaskSpec> {
    let mut ordered: Vec<&TaskTiming> = timings.iter().collect();
    ordered.sort_by_key(|t| t.index);
    ordered
        .into_iter()
        .map(|t| TaskSpec {
            cost: t.secs,
            locality: partitions.get(t.index).copied(),
        })
        .collect()
}

/// Parallelism settings for the morsel executor.
#[derive(Debug, Clone, Copy)]
pub struct MorselConfig {
    /// Worker threads (1 = serial inline execution).
    pub threads: usize,
    /// How morsels are handed to workers.
    pub mode: ScheduleMode,
    /// Left points per morsel.
    pub morsel_size: usize,
}

impl MorselConfig {
    /// `threads` workers, dynamic scheduling, default morsel size.
    pub fn new(threads: usize) -> MorselConfig {
        MorselConfig {
            threads: threads.max(1),
            mode: ScheduleMode::Dynamic,
            morsel_size: DEFAULT_MORSEL_SIZE,
        }
    }

    /// Single-threaded configuration (the serial reference path).
    pub fn serial() -> MorselConfig {
        MorselConfig::new(1)
    }
}

impl Default for MorselConfig {
    fn default() -> MorselConfig {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MorselConfig::new(threads)
    }
}

/// The right side of a join, prepared exactly once and shared by
/// reference across every morsel, partition task and system layer.
///
/// Records live in **slot order**: slot `s` is the `s`-th entry of the
/// STR tree's leaves, and the tree's payload for it is `s` itself. The
/// candidates one leaf yields are adjacent slots, so their ids and
/// prepared geometries (and, because preparation runs in slot order,
/// the geometries' coordinate blocks) sit on neighbouring cache lines.
pub struct PreparedSet<E: RefinementEngine> {
    /// Right-side record ids, by slot.
    ids: Vec<i64>,
    /// Engine-prepared geometries, by slot.
    prepared: Vec<E::Prepared>,
    /// Input index → slot, for callers that address the right side in
    /// input order (partition tasks' `right_ids`).
    slot_of: Vec<u32>,
    /// Filter tree over the expanded envelopes; payload = slot.
    tree: RTree<u32>,
    predicate: SpatialPredicate,
}

impl<E: RefinementEngine> PreparedSet<E> {
    /// Prepares `right` for `predicate`: envelopes expanded by the
    /// filter radius are STR-packed first, then one `engine.prepare`
    /// call per geometry runs in leaf order (same envelope sequence as
    /// the serial [`crate::join::build_right_index`], hence the same
    /// packing and traversal order).
    pub fn prepare(
        right: &[GeomRecord],
        predicate: SpatialPredicate,
        engine: &E,
    ) -> PreparedSet<E> {
        let radius = predicate.filter_radius();
        let envelopes: Vec<Envelope> = right
            .iter()
            .map(|(_, g)| g.envelope().expanded_by(radius))
            .collect();
        let mut ids = Vec::with_capacity(right.len());
        let mut prepared = Vec::with_capacity(right.len());
        let mut slot_of = vec![0u32; right.len()];
        let tree = RTree::bulk_load_by(&envelopes, |i| {
            let slot = ids.len() as u32;
            let (id, g) = &right[i];
            ids.push(*id);
            prepared.push(engine.prepare(g));
            slot_of[i] = slot;
            slot
        });
        PreparedSet {
            ids,
            prepared,
            slot_of,
            tree,
            predicate,
        }
    }

    /// Number of prepared right-side records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the right side is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The predicate the set was prepared for.
    pub fn predicate(&self) -> SpatialPredicate {
        self.predicate
    }

    /// Probes the shared tree with one point, appending matches.
    #[inline]
    pub fn probe_into(&self, engine: &E, left_id: i64, p: Point, out: &mut Vec<JoinPair>) {
        self.probe_subset(&self.tree, engine, left_id, p, out);
    }

    /// Probes one morsel of left points — the body every worker thread
    /// runs. Geometry is reached through the shared set by slot.
    pub fn probe_slice(&self, engine: &E, morsel: &[PointRecord], out: &mut Vec<JoinPair>) {
        // tidy:alloc-free:start
        for &(id, p) in morsel {
            self.probe_into(engine, id, p, out);
        }
        // tidy:alloc-free:end
    }

    /// Builds a filter tree over a subset of the right side, given as
    /// *input* indices (positions in the `right` slice the set was
    /// prepared from). Entries keep the order of `right_ids`, so the
    /// packing is that of a tree bulk-loaded from the subset in input
    /// order. Only envelopes are copied — the prepared geometries stay
    /// shared.
    pub fn subset_tree(&self, right_ids: &[u32]) -> RTree<u32> {
        let entries: Vec<(Envelope, u32)> = right_ids
            .iter()
            .map(|&ri| {
                let slot = self.slot_of[ri as usize];
                (self.tree.entry_envelope(slot as usize), slot)
            })
            .collect();
        RTree::bulk_load_entries(entries)
    }

    /// Probes a [`PreparedSet::subset_tree`] (or the shared tree; any
    /// tree whose payloads are slots) with one point.
    #[inline]
    pub fn probe_subset(
        &self,
        subset: &RTree<u32>,
        engine: &E,
        left_id: i64,
        p: Point,
        out: &mut Vec<JoinPair>,
    ) {
        probe_with(
            subset,
            self.predicate,
            engine,
            left_id,
            p,
            |&slot| (self.ids[slot as usize], &self.prepared[slot as usize]),
            out,
        );
    }

    /// Probes `left` in parallel morsels, returning pairs in the same
    /// order the serial loop would emit them. A panic inside a morsel
    /// is re-raised on the calling thread.
    pub fn par_probe(&self, left: &[PointRecord], engine: &E, cfg: MorselConfig) -> Vec<JoinPair> {
        self.probe_morsels(left, engine, cfg, RetryPolicy::none(), |_, _| {})
            .fold_counters()
            .reraise()
            .out
    }

    /// [`PreparedSet::par_probe`] plus per-morsel wall-clock timings
    /// (indexed by morsel position, for replay through the cluster
    /// simulator) and the pool's [`obs::ExecStats`] (scoped-worker
    /// counters + per-worker busy/wait) instead of folding the counters
    /// into the calling thread — the collection hook
    /// [`crate::JoinRequest`] runs on.
    pub fn par_probe_observed(
        &self,
        left: &[PointRecord],
        engine: &E,
        cfg: MorselConfig,
    ) -> (Vec<JoinPair>, Vec<TaskTiming>, obs::ExecStats) {
        let run = self
            .probe_morsels(left, engine, cfg, RetryPolicy::none(), |_, _| {})
            .reraise();
        (run.out, run.timings, run.exec)
    }

    /// [`PreparedSet::par_probe`] under fault injection: each morsel's
    /// panic draw is consulted *after* its output is appended (so
    /// recovery exercises the partial-segment rollback), and panicking
    /// morsels are retried in place under `policy` — the worker-local
    /// bounded re-dispatch recovery mode.
    ///
    /// Returns the pairs and timings on full recovery — bit-identical
    /// to [`PreparedSet::par_probe`] at any thread count — or the
    /// failures of morsels that exhausted their attempts. A disabled
    /// injector draws nothing, so it never fails a morsel.
    pub fn par_probe_faulted(
        &self,
        left: &[PointRecord],
        engine: &E,
        cfg: MorselConfig,
        chaos: &Chaos,
        policy: RetryPolicy,
    ) -> Result<(Vec<JoinPair>, Vec<TaskTiming>), Vec<TaskFailure>> {
        let run = self
            .probe_morsels(left, engine, cfg, policy, |i, attempt| {
                chaos.inject(ChaosSite::Morsel, i as u64, attempt)
            })
            .fold_counters();
        if run.failures.is_empty() {
            Ok((run.out, run.timings))
        } else {
            Err(run.failures)
        }
    }

    /// The body behind every `par_probe*`: chunks `left` into morsels,
    /// tags them with locality hints in [`ScheduleMode::StaticLocality`]
    /// (the other modes skip the tagging pass), and dispatches one pool
    /// unit per morsel; `after(morsel, attempt)` runs once the morsel's
    /// pairs are appended.
    fn probe_morsels(
        &self,
        left: &[PointRecord],
        engine: &E,
        cfg: MorselConfig,
        retry: RetryPolicy,
        after: impl Fn(usize, u32) + Sync,
    ) -> PoolRun<JoinPair> {
        let size = cfg.morsel_size.max(1);
        let hints = if cfg.mode == ScheduleMode::StaticLocality {
            morsel_partitions(left, size, LOCALITY_GRID_SIDE)
        } else {
            Vec::new()
        };
        let morsels: Vec<&[PointRecord]> = left.chunks(size).collect();
        let opts = PoolOptions {
            threads: cfg.threads,
            mode: cfg.mode,
            hints: &hints,
            retry,
        };
        dispatch(morsels.len(), opts, |i, attempt, out| {
            self.probe_slice(engine, morsels[i], out);
            after(i, attempt);
        })
    }
}

/// The morsel-parallel broadcast join: prepare the right side once,
/// probe the left side in parallel. Bit-identical to
/// [`crate::join::broadcast_index_join`] at any thread count. Thin
/// wrapper over [`crate::JoinRequest`]; use that directly to also get
/// the run's [`obs::RunStats`].
pub fn parallel_broadcast_join<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
    cfg: MorselConfig,
) -> Vec<JoinPair> {
    crate::JoinRequest::new(left, right, engine)
        .predicate(predicate)
        .config(cfg)
        .run()
        .pairs
}

/// The morsel-parallel partitioned join: partitions carry `right_ids`
/// into the shared [`PreparedSet`]; each task builds a subset filter
/// tree over envelope copies and probes its own points. Matches the
/// serial partitioned join's sorted-deduplicated contract.
pub fn parallel_partitioned_join<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
    target_points_per_partition: usize,
    cfg: MorselConfig,
) -> Vec<JoinPair> {
    let (pairs, exec) = parallel_partitioned_join_observed(
        left,
        right,
        predicate,
        engine,
        target_points_per_partition,
        cfg,
    );
    obs::add_thread(&exec.worker_counters);
    pairs
}

/// [`parallel_partitioned_join`] returning the pool's
/// [`obs::ExecStats`] instead of folding scoped-worker counters into
/// the calling thread.
pub fn parallel_partitioned_join_observed<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
    target_points_per_partition: usize,
    cfg: MorselConfig,
) -> (Vec<JoinPair>, obs::ExecStats) {
    let set = PreparedSet::prepare(right, predicate, engine);
    let work = partition_work(left, right, predicate, target_points_per_partition);
    let tasks: Vec<&crate::join::PartitionTask> = work
        .partitions
        .iter()
        .filter(|t| !t.left.is_empty() && !t.right_ids.is_empty())
        .collect();
    let run = dispatch(
        tasks.len(),
        PoolOptions::new(cfg.threads, cfg.mode),
        |i, _, out| {
            let task = tasks[i];
            let subset = set.subset_tree(&task.right_ids);
            for &(id, p) in &task.left {
                set.probe_subset(&subset, engine, id, p, out);
            }
        },
    )
    .reraise();
    let mut out = run.out;
    out.sort_unstable();
    out.dedup();
    (out, run.exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::broadcast_index_join;
    use geom::engine::PreparedEngine;
    use geom::{Geometry, Polygon};

    fn grid_points(n: usize) -> Vec<PointRecord> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push((
                    (i * n + j) as i64,
                    Point::new(i as f64 + 0.5, j as f64 + 0.5),
                ));
            }
        }
        v
    }

    fn quadrant_polys(half: f64) -> Vec<GeomRecord> {
        let q = |id, x0: f64, y0: f64| {
            (
                id,
                Geometry::Polygon(Polygon::rectangle(Envelope::new(
                    x0,
                    y0,
                    x0 + half,
                    y0 + half,
                ))),
            )
        };
        vec![
            q(0, 0.0, 0.0),
            q(1, half, 0.0),
            q(2, 0.0, half),
            q(3, half, half),
        ]
    }

    #[test]
    fn parallel_broadcast_is_bit_identical_to_serial() {
        let left = grid_points(20);
        let right = quadrant_polys(10.0);
        let engine = PreparedEngine;
        let serial = broadcast_index_join(&left, &right, SpatialPredicate::Within, &engine);
        for threads in [1, 2, 4, 7] {
            for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
                for morsel_size in [3, 64, 100_000] {
                    let cfg = MorselConfig {
                        threads,
                        mode,
                        morsel_size,
                    };
                    let par = parallel_broadcast_join(
                        &left,
                        &right,
                        SpatialPredicate::Within,
                        &engine,
                        cfg,
                    );
                    assert_eq!(
                        par, serial,
                        "threads={threads} mode={mode:?} morsel={morsel_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_partitioned_matches_serial_partitioned() {
        let left = grid_points(12);
        let right = quadrant_polys(6.0);
        let engine = PreparedEngine;
        let serial =
            crate::join::partitioned_join(&left, &right, SpatialPredicate::Within, &engine, 10);
        for threads in [1, 4] {
            let cfg = MorselConfig::new(threads);
            let par = parallel_partitioned_join(
                &left,
                &right,
                SpatialPredicate::Within,
                &engine,
                10,
                cfg,
            );
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn prepared_set_reports_size_and_predicate() {
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&quadrant_polys(2.0), SpatialPredicate::Within, &engine);
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!(set.predicate(), SpatialPredicate::Within);
        let empty = PreparedSet::prepare(&[], SpatialPredicate::Within, &engine);
        assert!(empty.is_empty());
    }

    #[test]
    fn locality_mode_is_bit_identical_to_serial() {
        let left = grid_points(20);
        let right = quadrant_polys(10.0);
        let engine = PreparedEngine;
        let serial = broadcast_index_join(&left, &right, SpatialPredicate::Within, &engine);
        for threads in [1, 2, 7] {
            for morsel_size in [16, 500] {
                let cfg = MorselConfig {
                    threads,
                    mode: ScheduleMode::StaticLocality,
                    morsel_size,
                };
                let par =
                    parallel_broadcast_join(&left, &right, SpatialPredicate::Within, &engine, cfg);
                assert_eq!(par, serial, "threads={threads} morsel={morsel_size}");
            }
        }
    }

    #[test]
    fn morsel_partitions_tag_dominant_cell() {
        // Two clusters far apart: morsels made purely of one cluster
        // must carry different tags.
        let mut left: Vec<PointRecord> = (0..64)
            .map(|i| (i, Point::new(0.1 + (i % 8) as f64 * 0.01, 0.1)))
            .collect();
        left.extend((64..128).map(|i| (i, Point::new(99.0 + (i % 8) as f64 * 0.01, 99.0))));
        let tags = morsel_partitions(&left, 64, LOCALITY_GRID_SIDE);
        assert_eq!(tags.len(), 2);
        assert_ne!(
            tags[0], tags[1],
            "distant clusters must map to distinct cells"
        );
        // Degenerate inputs.
        assert!(morsel_partitions(&[], 64, LOCALITY_GRID_SIDE).is_empty());
        let single = vec![(0i64, Point::new(3.0, 4.0))];
        assert_eq!(morsel_partitions(&single, 8, LOCALITY_GRID_SIDE), vec![0]);
    }

    #[test]
    fn partition_blocks_bound_runs_and_respect_cell_edges() {
        // A hot cell (six tags of 7) must split into blocks of <= 2;
        // cell boundaries always start a new block.
        let tags = [7, 7, 7, 7, 7, 7, 3, 3, 9];
        let blocks = partition_blocks(&tags, 2);
        assert_eq!(blocks, vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
        // Each block stays within one original partition.
        for b in 0..=4usize {
            let cells: Vec<usize> = tags
                .iter()
                .zip(&blocks)
                .filter(|&(_, &blk)| blk == b)
                .map(|(&t, _)| t)
                .collect();
            assert!(cells.windows(2).all(|w| w[0] == w[1]));
        }
        assert!(partition_blocks(&[], 4).is_empty());
        // cap 0 behaves as cap 1 rather than looping or panicking.
        assert_eq!(partition_blocks(&[5, 5, 5], 0), vec![0, 1, 2]);
    }

    #[test]
    fn spatial_sort_groups_cells_and_keeps_ids() {
        let mut pts: Vec<PointRecord> = (0..100)
            .map(|i| {
                let x = ((i * 37) % 100) as f64;
                let y = ((i * 53) % 100) as f64;
                (i as i64, Point::new(x, y))
            })
            .collect();
        let mut ids_before: Vec<i64> = pts.iter().map(|&(id, _)| id).collect();
        spatial_sort_points(&mut pts, 4);
        let mut ids_after: Vec<i64> = pts.iter().map(|&(id, _)| id).collect();
        ids_before.sort_unstable();
        ids_after.sort_unstable();
        assert_eq!(ids_before, ids_after, "sort must be a permutation");
        // Cells must appear in non-decreasing runs.
        let extent = points_extent(&pts);
        let cells: Vec<usize> = pts.iter().map(|&(_, p)| grid_cell(p, &extent, 4)).collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn timings_bridge_orders_by_index_and_carries_locality() {
        let timings = vec![
            cluster::TaskTiming {
                index: 2,
                worker: 0,
                secs: 0.3,
            },
            cluster::TaskTiming {
                index: 0,
                worker: 1,
                secs: 0.1,
            },
            cluster::TaskTiming {
                index: 1,
                worker: 0,
                secs: 0.2,
            },
        ];
        let partitions = vec![7usize, 9];
        let specs = timings_to_taskspecs(&timings, &partitions);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].cost, 0.1);
        assert_eq!(specs[0].locality, Some(7));
        assert_eq!(specs[1].locality, Some(9));
        // No tag for morsel 2: no locality preference.
        assert_eq!(specs[2].locality, None);
        assert_eq!(specs[2].cost, 0.3);
    }

    #[test]
    fn observed_probe_matches_plain_probe() {
        let left = grid_points(12);
        let right = quadrant_polys(6.0);
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);
        for mode in [
            ScheduleMode::Dynamic,
            ScheduleMode::Static,
            ScheduleMode::StaticLocality,
        ] {
            let cfg = MorselConfig {
                threads: 4,
                mode,
                morsel_size: 10,
            };
            let plain = set.par_probe(&left, &engine, cfg);
            let (observed, timings, exec) = set.par_probe_observed(&left, &engine, cfg);
            let partitions = morsel_partitions(&left, cfg.morsel_size, LOCALITY_GRID_SIDE);
            assert_eq!(plain, observed, "{mode:?}");
            assert_eq!(timings.len(), partitions.len(), "{mode:?}");
            let items: u64 = exec.workers.iter().map(|w| w.items).sum();
            assert_eq!(items as usize, timings.len(), "{mode:?}");
        }
    }

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn faulted_probe_recovers_bit_identical_to_plain() {
        let left = grid_points(20);
        let right = quadrant_polys(10.0);
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);
        let cfg = MorselConfig {
            threads: 1,
            mode: ScheduleMode::Dynamic,
            morsel_size: 16,
        };
        let serial = set.par_probe(&left, &engine, cfg);
        let n_morsels = left.len().div_ceil(cfg.morsel_size);
        let policy = cluster::RetryPolicy::attempts(4);
        // Deterministic draws make "every morsel recovers" a pure
        // function of the seed — search for one where faults fire but
        // all clear within the retry budget.
        let seed = (0..10_000u64)
            .find(|&s| {
                let probe = cluster::Chaos::new(cluster::ChaosConfig::uniform(s, 0.3));
                let fired =
                    (0..n_morsels).any(|i| probe.panic_fires(ChaosSite::Morsel, i as u64, 0));
                let recovers = (0..n_morsels).all(|i| {
                    (0..policy.max_attempts)
                        .any(|a| !probe.panic_fires(ChaosSite::Morsel, i as u64, a))
                });
                fired && recovers
            })
            .expect("some seed recovers");
        for threads in [1, 2, 7] {
            let chaos = cluster::Chaos::new(cluster::ChaosConfig::uniform(seed, 0.3));
            let cfg = MorselConfig { threads, ..cfg };
            let (pairs, timings) = quiet_panics(|| {
                set.par_probe_faulted(&left, &engine, cfg, &chaos, policy)
                    .expect("all morsels recover")
            });
            assert_eq!(pairs, serial, "threads={threads}");
            assert_eq!(timings.len(), n_morsels);
            assert!(chaos.fault_count() > 0, "faults must actually fire");
        }
    }

    #[test]
    fn faulted_probe_disabled_matches_plain() {
        let left = grid_points(10);
        let right = quadrant_polys(5.0);
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);
        let cfg = MorselConfig::new(3);
        let chaos = cluster::Chaos::disabled();
        let (pairs, _) = set
            .par_probe_faulted(&left, &engine, cfg, &chaos, cluster::RetryPolicy::none())
            .expect("no faults possible");
        assert_eq!(pairs, set.par_probe(&left, &engine, cfg));
        assert_eq!(chaos.fault_count(), 0);
    }

    /// [`PreparedEngine`] with a bug: `within` panics on one point.
    struct BuggyEngine;

    const BUGGY_POINT: Point = Point { x: 13.5, y: 13.5 };

    impl RefinementEngine for BuggyEngine {
        type Prepared = <PreparedEngine as RefinementEngine>::Prepared;
        fn name(&self) -> &'static str {
            "buggy"
        }
        fn prepare(&self, geom: &Geometry) -> Self::Prepared {
            PreparedEngine.prepare(geom)
        }
        fn within(&self, p: Point, target: &Self::Prepared) -> bool {
            if p == BUGGY_POINT {
                std::panic::panic_any(format!("refine bug at {p:?}"));
            }
            PreparedEngine.within(p, target)
        }
        fn within_distance(&self, p: Point, target: &Self::Prepared, d: f64) -> bool {
            PreparedEngine.within_distance(p, target, d)
        }
        fn distance(&self, p: Point, target: &Self::Prepared) -> f64 {
            PreparedEngine.distance(p, target)
        }
    }

    #[test]
    fn closure_panic_surfaces_on_the_driver_with_its_message() {
        let left = grid_points(20);
        let set = PreparedSet::prepare(
            &quadrant_polys(10.0),
            SpatialPredicate::Within,
            &BuggyEngine,
        );
        for threads in [1, 2, 7] {
            for mode in [ScheduleMode::Dynamic, ScheduleMode::StaticLocality] {
                let cfg = MorselConfig {
                    threads,
                    mode,
                    morsel_size: 16,
                };
                let caught = quiet_panics(|| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        set.par_probe(&left, &BuggyEngine, cfg)
                    }))
                });
                let message = caught.err().and_then(|p| p.downcast::<String>().ok());
                assert_eq!(
                    message.as_deref().map(String::as_str),
                    Some(format!("refine bug at {BUGGY_POINT:?}").as_str()),
                    "threads={threads} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn faulted_probe_reports_exhausted_morsels() {
        let left = grid_points(12);
        let right = quadrant_polys(6.0);
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);
        let cfg = MorselConfig {
            threads: 2,
            mode: ScheduleMode::Static,
            morsel_size: 16,
        };
        let chaos = cluster::Chaos::new(cluster::ChaosConfig {
            panic_rate: 1.0,
            ..cluster::ChaosConfig::uniform(5, 0.0)
        });
        let failures = quiet_panics(|| {
            set.par_probe_faulted(
                &left,
                &engine,
                cfg,
                &chaos,
                cluster::RetryPolicy::attempts(2),
            )
        })
        .expect_err("every attempt panics");
        assert_eq!(failures.len(), left.len().div_ceil(cfg.morsel_size));
        assert!(failures.iter().all(|f| f.attempts == 2));
    }

    #[test]
    fn empty_sides_yield_empty_output() {
        let engine = PreparedEngine;
        let cfg = MorselConfig::new(4);
        assert!(
            parallel_broadcast_join(&[], &[], SpatialPredicate::Within, &engine, cfg).is_empty()
        );
        let left = grid_points(3);
        assert!(
            parallel_broadcast_join(&left, &[], SpatialPredicate::Within, &engine, cfg).is_empty()
        );
        assert!(
            parallel_partitioned_join(&[], &[], SpatialPredicate::Within, &engine, 16, cfg)
                .is_empty()
        );
    }
}
