//! SpatialSpark: the broadcast spatial join as dataset transformations.
//!
//! A faithful port of the paper's Fig. 2 skeleton onto sparklet:
//!
//! 1. `textFile` the left side (one partition per HDFS block),
//! 2. `map` each line through the WKT reader, dropping failures —
//!    steps 1 and 2 run as one stage, as Spark pipelines them,
//! 3. parse the (small) right side the same way, as a stage of its own
//!    with one task per block, and collect the records on the driver
//!    by move; build an STR-tree of *prepared* (JTS-like) geometries
//!    with envelopes expanded by the query radius, free the parsed
//!    records, and broadcast the tree,
//! 4. `flatMap` every left point through an R-tree probe plus
//!    refinement.
//!
//! The code runs step 3 first: the broadcast must exist before the
//! probe stage starts.
//!
//! Dynamic task scheduling and the JTS-like refinement engine are what
//! distinguish this system from ISP-MC in the paper's results.

use cluster::{ClusterSpec, NetworkModel, Scheduler, TaskSpec};
use geom::engine::{FlatEngine, SpatialPredicate};
use minihdfs::MiniDfs;
use sparklet::{JobReport, SparkConf, SparkContext, StageMetrics};
use std::time::Instant;

use crate::error::SpatialJoinError;
use crate::parallel::PreparedSet;
use crate::reader::RecordReader;
use crate::{GeomRecord, JoinPair};

/// Stage that parses the left side's WKT points, one task per block.
pub const LEFT_PARSE_STAGE: &str = "map:parse-wkt";

/// Stage that parses the right side's WKT geometries, one task per
/// block, for the driver to collect. Its input is the full-cardinality
/// right side, like the `driver:` build and the `broadcast:` marker.
pub const RIGHT_PARSE_STAGE: &str = "collect:parse-wkt";

/// The SpatialSpark system: a spark context plus the join driver.
pub struct SpatialSpark {
    sc: SparkContext,
}

/// One completed SpatialSpark join.
pub struct SpatialSparkRun {
    /// Matched `(left id, right id)` pairs.
    pub pairs: Vec<JoinPair>,
    /// Recorded stage metrics for replay.
    pub report: JobReport,
    cluster: ClusterSpec,
    network: NetworkModel,
}

impl SpatialSparkRun {
    /// Simulated wall-clock runtime on `num_nodes` nodes of the
    /// configured node type, under Spark's dynamic scheduling.
    pub fn simulated_runtime(&self, num_nodes: usize) -> f64 {
        let spec = ClusterSpec {
            num_nodes,
            ..self.cluster
        };
        self.report
            .simulate_runtime(&spec, &self.network, Scheduler::Dynamic)
    }

    /// Number of result pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Total measured CPU seconds across stages.
    pub fn total_work(&self) -> f64 {
        self.report.total_work()
    }

    /// The run's stage metrics rebased onto the workspace observability
    /// layer: one `RunStats` child per recorded stage.
    pub fn run_stats(&self) -> obs::RunStats {
        self.report.to_run_stats("spatialspark")
    }
}

impl SpatialSpark {
    /// Creates the system over a file system.
    pub fn new(conf: SparkConf, dfs: MiniDfs) -> SpatialSpark {
        SpatialSpark {
            sc: SparkContext::new(conf, dfs),
        }
    }

    /// The underlying context (for custom pipelines).
    pub fn context(&self) -> &SparkContext {
        &self.sc
    }

    /// Runs the broadcast indexed spatial join between two WKT text
    /// files (`id \t wkt` records).
    ///
    /// Resets the context's metrics: the returned report covers exactly
    /// this job, mirroring a fresh `spark-submit` per experiment.
    ///
    /// # Errors
    /// Fails when either path is missing, or with
    /// [`SpatialJoinError::InvalidPredicate`] for a negative or NaN
    /// distance.
    pub fn broadcast_spatial_join(
        &self,
        left_path: &str,
        right_path: &str,
        predicate: SpatialPredicate,
    ) -> Result<SpatialSparkRun, SpatialJoinError> {
        check_distance(predicate)?;
        self.sc.reset_metrics();
        let engine = FlatEngine;
        let reader = RecordReader::new(1);

        // --- executors parse right, driver collects and prepares once,
        // then broadcasts ---
        let right_stat = self.sc.dfs().stat(right_path)?;
        let right_records = self.collect_right(right_path, reader)?;
        let t0 = Instant::now();
        let set = PreparedSet::prepare(&right_records, predicate, &engine);
        // The prepared set owns its copies; the parsed records would
        // only add to the peak while the probe runs.
        drop(right_records);
        let build_secs = t0.elapsed().as_secs_f64();
        self.sc.record_stage(StageMetrics {
            name: "driver:collect+build-strtree".into(),
            tasks: vec![TaskSpec::of_cost(build_secs)],
            broadcast_bytes: 0,
            shuffle_bytes: 0,
        });
        let broadcast = self.sc.broadcast(set, right_stat.total_bytes as u64);
        self.sc
            .record_movement("broadcast:strtree", broadcast.approx_bytes(), 0);

        // --- executors: parse left, probe the shared prepared set ---
        let parsed = self
            .sc
            .text_file(left_path, LEFT_PARSE_STAGE, move |line| {
                reader.read_point(line).ok()
            })?;
        let set_ref = broadcast.clone();
        let pairs_ds = parsed.flat_map_with("flatMap:rtree-probe+refine", move |rec, out| {
            if let Some((id, p)) = rec {
                set_ref.value().probe_into(&engine, *id, *p, out);
            }
        });
        let pairs = pairs_ds.collect();

        Ok(SpatialSparkRun {
            pairs,
            report: self.sc.job_report(),
            cluster: self.sc.conf().cluster,
            network: self.sc.conf().network,
        })
    }
}

impl SpatialSpark {
    /// Parses the right side on the executors, one task per DFS block,
    /// as the [`RIGHT_PARSE_STAGE`] stage, and gathers the records on
    /// the driver by move, in file order. Malformed lines are dropped.
    fn collect_right(
        &self,
        right_path: &str,
        reader: RecordReader,
    ) -> Result<Vec<GeomRecord>, SpatialJoinError> {
        let parsed = self
            .sc
            .text_file(right_path, RIGHT_PARSE_STAGE, move |line| {
                reader.read_geom(line).ok()
            })?;
        Ok(parsed.into_vec().into_iter().flatten().collect())
    }

    /// The spatially *partitioned* join — the SpatialHadoop/HadoopGIS
    /// strategy of §II expressed in dataset operations, kept as the
    /// alternative to the broadcast join for right sides too large to
    /// replicate:
    ///
    /// 1. parse the left side and sample it on the driver,
    /// 2. build an STR partitioner (SpatialHadoop's default) from the
    ///    sample,
    /// 3. shuffle left points to their owning cell (`partition_by`) and
    ///    replicate right geometries to every cell their expanded
    ///    envelope overlaps (shuffle bytes recorded for the replay),
    /// 4. run an indexed join inside each cell
    ///    (`mapPartitionsWithIndex`), deduplicating nothing — a point
    ///    lives in exactly one cell, so no pair is emitted twice.
    ///
    /// # Errors
    /// Fails when either path is missing, or with
    /// [`SpatialJoinError::InvalidPredicate`] for a negative or NaN
    /// distance.
    pub fn partitioned_spatial_join(
        &self,
        left_path: &str,
        right_path: &str,
        predicate: SpatialPredicate,
        target_cells: usize,
    ) -> Result<SpatialSparkRun, SpatialJoinError> {
        use geom::HasEnvelope;
        use rtree::{SpatialPartitioner, StrPartitioner};

        check_distance(predicate)?;
        self.sc.reset_metrics();
        let engine = FlatEngine;
        let reader = RecordReader::new(1);
        let radius = predicate.filter_radius();

        // --- parse left side, then right side ---
        let parsed = self
            .sc
            .text_file(left_path, LEFT_PARSE_STAGE, move |line| {
                reader.read_point(line).ok()
            })?;
        let right_records = self.collect_right(right_path, reader)?;

        // --- driver: prepare, sample + build the STR partitioner ---
        let t0 = Instant::now();
        let set = PreparedSet::prepare(&right_records, predicate, &engine);
        let all_points: Vec<geom::Point> = parsed
            .collect()
            .into_iter()
            .flatten()
            .map(|(_, p)| p)
            .collect();
        let mut extent = geom::Envelope::EMPTY;
        for p in &all_points {
            extent.expand_to(p.x, p.y);
        }
        for (_, g) in &right_records {
            extent = extent.union(&g.envelope().expanded_by(radius));
        }
        let stride = (all_points.len() / 10_000).max(1);
        let sample: Vec<geom::Point> = all_points.iter().step_by(stride).copied().collect();
        let partitioner = StrPartitioner::build(extent, &sample, target_cells.max(1));
        let num_cells = partitioner.num_cells();
        self.sc.record_stage(StageMetrics {
            name: "driver:sample+build-partitioner".into(),
            tasks: vec![TaskSpec::of_cost(t0.elapsed().as_secs_f64())],
            broadcast_bytes: 0,
            shuffle_bytes: 0,
        });

        // --- shuffle left points to their owning cell ---
        let tagged = parsed.flat_map("map:tag-cell", |rec| match rec {
            Some((id, p)) => match partitioner.cell_of(*p) {
                Some(cell) => vec![(cell, (*id, *p))],
                None => vec![],
            },
            None => vec![],
        });
        let shuffled = tagged.partition_by(num_cells, |(cell, _)| *cell, |_| 24);

        // --- replicate right geometries to overlapping cells ---
        let mut per_cell_right: Vec<Vec<u32>> = vec![Vec::new(); num_cells];
        let mut replicated_bytes = 0u64;
        for (ri, (_, g)) in right_records.iter().enumerate() {
            let env = g.envelope().expanded_by(radius);
            for cell in partitioner.cells_intersecting(&env) {
                per_cell_right[cell].push(ri as u32);
                replicated_bytes += (g.num_points() * 16 + 16) as u64;
            }
        }
        drop(right_records);
        self.sc
            .record_movement("shuffle:replicate-right", 0, replicated_bytes);

        // --- per-cell indexed join over the shared prepared set:
        // partition tasks carry right-side *indices*, build a subset
        // filter tree over envelope copies, and never clone geometry ---
        let set_ref = &set;
        let per_cell_ref = &per_cell_right;
        let pairs_ds = shuffled.map_partitions_indexed(
            "mapPartitions:local-index-join",
            move |cell, records: &[(usize, (i64, geom::Point))]| {
                if records.is_empty() || per_cell_ref[cell].is_empty() {
                    return Vec::new();
                }
                let subset = set_ref.subset_tree(&per_cell_ref[cell]);
                let mut out = Vec::new();
                for &(_, (id, p)) in records {
                    set_ref.probe_subset(&subset, &engine, id, p, &mut out);
                }
                out
            },
        );
        let pairs = pairs_ds.collect();

        Ok(SpatialSparkRun {
            pairs,
            report: self.sc.job_report(),
            cluster: self.sc.conf().cluster,
            network: self.sc.conf().network,
        })
    }
}

/// Rejects a `NearestD`/`Nearest` distance that is negative or NaN, as
/// ISP-MC's SQL parser does: expanding the right side's envelopes by
/// it would invert them, and the join would silently return nothing.
fn check_distance(predicate: SpatialPredicate) -> Result<(), SpatialJoinError> {
    let d = predicate.filter_radius();
    if d.is_nan() || d < 0.0 {
        return Err(SpatialJoinError::InvalidPredicate(format!(
            "{predicate:?}: distance must be non-negative"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system_with_grid() -> SpatialSpark {
        let dfs = MiniDfs::new(4, 512).unwrap();
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(format!(
                    "{}\tPOINT ({} {})",
                    i * 10 + j,
                    i as f64 + 0.5,
                    j as f64 + 0.5
                ));
            }
        }
        dfs.write_lines("/pnt", &pts).unwrap();
        dfs.write_lines(
            "/poly",
            [
                "0\tPOLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))",
                "1\tPOLYGON ((5 0, 10 0, 10 5, 5 5, 5 0))",
                "2\tPOLYGON ((0 5, 5 5, 5 10, 0 10, 0 5))",
                "3\tPOLYGON ((5 5, 10 5, 10 10, 5 10, 5 5))",
            ],
        )
        .unwrap();
        dfs.write_lines(
            "/roads",
            ["0\tLINESTRING (0 0, 10 0)", "1\tLINESTRING (0 9, 10 9)"],
        )
        .unwrap();
        SpatialSpark::new(SparkConf::default(), dfs)
    }

    #[test]
    fn within_join_end_to_end() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
        assert_eq!(run.pair_count(), 100);
        assert!(run.pairs.contains(&(0, 0)));
        assert!(run.pairs.contains(&(55, 3)));
        // The Fig. 2 pipeline runs as distinct stages.
        let names: Vec<&str> = run.report.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("build-strtree")));
        assert!(names.iter().any(|n| n.contains("broadcast")));
        assert!(names.iter().any(|n| n.contains("parse-wkt")));
        assert!(names.iter().any(|n| n.contains("probe")));
    }

    #[test]
    fn both_sides_are_parsed_as_block_stages() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
        let blocks = |path| sys.context().dfs().blocks(path).unwrap().len();
        let stage = |name| {
            run.report
                .stages
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no stage {name}"))
        };
        assert_eq!(stage(RIGHT_PARSE_STAGE).tasks.len(), blocks("/poly"));
        assert_eq!(stage(LEFT_PARSE_STAGE).tasks.len(), blocks("/pnt"));
        // The right side is parsed before the build that needs it.
        let names: Vec<&str> = run.report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            &names[..2],
            [RIGHT_PARSE_STAGE, "driver:collect+build-strtree"]
        );
    }

    #[test]
    fn worker_parse_counts_reach_the_driver() {
        // A fresh thread, so the snapshot delta sees only these joins.
        std::thread::spawn(|| {
            let dfs = system_with_grid().context().dfs().clone();
            let sys = SpatialSpark::new(
                SparkConf {
                    threads: 3,
                    ..SparkConf::default()
                },
                dfs,
            );
            // 100 points plus 4 polygons, whichever threads parse them.
            for partitioned in [false, true] {
                let before = obs::thread_snapshot();
                if partitioned {
                    sys.partitioned_spatial_join("/pnt", "/poly", SpatialPredicate::Within, 9)
                } else {
                    sys.broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
                }
                .unwrap();
                let delta = obs::thread_snapshot().minus(&before);
                assert_eq!(delta.records_parsed, 104, "partitioned: {partitioned}");
                assert_eq!(delta.records_skipped, 0);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn lost_ingest_tasks_are_recomputed_bit_identically() {
        let dfs = MiniDfs::new(4, 64).unwrap();
        let base = system_with_grid();
        for path in ["/pnt", "/poly"] {
            let lines = base.context().dfs().read_all_lines(path).unwrap();
            dfs.write_lines(path, &lines).unwrap();
        }
        let fault_free = SpatialSpark::new(SparkConf::default(), dfs.clone())
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap()
            .pairs;
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Seeds until both parse stages have lost a task and recovered.
        let mut recomputed = [false; 2];
        for seed in 0..64 {
            let conf = SparkConf {
                chaos: cluster::ChaosConfig {
                    panic_rate: 0.2,
                    ..cluster::ChaosConfig::uniform(seed, 0.0)
                },
                ..SparkConf::default()
            };
            let sys = SpatialSpark::new(conf, dfs.clone());
            let run = sys
                .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
                .unwrap();
            assert_eq!(run.pairs, fault_free, "seed {seed}");
            for (i, stage) in [RIGHT_PARSE_STAGE, LEFT_PARSE_STAGE].iter().enumerate() {
                let recompute = format!("recompute:{stage}");
                recomputed[i] |= run.report.stages.iter().any(|s| s.name == recompute);
            }
            if recomputed == [true, true] {
                break;
            }
        }
        std::panic::set_hook(hook);
        assert_eq!(recomputed, [true, true], "both ingest stages lost a task");
    }

    #[test]
    fn nearestd_join_end_to_end() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/roads", SpatialPredicate::NearestD(0.6))
            .unwrap();
        assert_eq!(run.pair_count(), 30);
    }

    #[test]
    fn simulated_runtime_is_monotone_enough() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
        let t1 = run.simulated_runtime(1);
        let t10 = run.simulated_runtime(10);
        assert!(t1 > 0.0 && t10 > 0.0);
        // A job this tiny is dominated by startup: more nodes cost more.
        assert!(t10 > t1);
    }

    #[test]
    fn partitioned_join_matches_broadcast_join() {
        let sys = system_with_grid();
        for predicate in [
            SpatialPredicate::Within,
            SpatialPredicate::NearestD(0.6),
            SpatialPredicate::Nearest(0.6),
        ] {
            let right = if predicate == SpatialPredicate::Within {
                "/poly"
            } else {
                "/roads"
            };
            let broadcast = sys
                .broadcast_spatial_join("/pnt", right, predicate)
                .unwrap();
            let partitioned = sys
                .partitioned_spatial_join("/pnt", right, predicate, 9)
                .unwrap();
            assert_eq!(
                crate::normalize_pairs(partitioned.pairs.clone()),
                crate::normalize_pairs(broadcast.pairs.clone()),
                "strategy mismatch for {predicate:?}"
            );
            // The shuffle got recorded.
            let names: Vec<&str> = partitioned
                .report
                .stages
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert!(names.iter().any(|n| n.contains("partition_by")));
            assert!(names.iter().any(|n| n.contains("replicate-right")));
            assert!(names.iter().any(|n| n.contains("local-index-join")));
        }
    }

    #[test]
    fn data_movement_reaches_the_thread_counters() {
        let sys = system_with_grid();
        let start = obs::thread_snapshot();
        sys.broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
        let broadcast = obs::thread_snapshot().minus(&start);
        assert!(broadcast.bytes_broadcast > 0);
        let mid = obs::thread_snapshot();
        sys.partitioned_spatial_join("/pnt", "/poly", SpatialPredicate::Within, 9)
            .unwrap();
        let partitioned = obs::thread_snapshot().minus(&mid);
        assert!(partitioned.bytes_shuffled > 0);
        // Together the two joins leave both movement counters non-zero.
        let both = obs::thread_snapshot().minus(&start);
        assert!(both.bytes_broadcast > 0 && both.bytes_shuffled > 0);
    }

    const BAD_DISTANCES: [SpatialPredicate; 4] = [
        SpatialPredicate::NearestD(-0.5),
        SpatialPredicate::NearestD(f64::NAN),
        SpatialPredicate::Nearest(-0.5),
        SpatialPredicate::Nearest(f64::NAN),
    ];

    #[test]
    fn broadcast_join_rejects_negative_or_nan_distance() {
        let sys = system_with_grid();
        for predicate in BAD_DISTANCES {
            let err = sys
                .broadcast_spatial_join("/pnt", "/roads", predicate)
                .err()
                .expect("invalid distance accepted");
            assert!(
                matches!(err, SpatialJoinError::InvalidPredicate(_)),
                "{predicate:?}: {err}"
            );
        }
        // -0 is a valid (zero) distance.
        sys.broadcast_spatial_join("/pnt", "/roads", SpatialPredicate::NearestD(-0.0))
            .unwrap();
    }

    #[test]
    fn partitioned_join_rejects_negative_or_nan_distance() {
        let sys = system_with_grid();
        for predicate in BAD_DISTANCES {
            let err = sys
                .partitioned_spatial_join("/pnt", "/roads", predicate, 9)
                .err()
                .expect("invalid distance accepted");
            assert!(
                matches!(err, SpatialJoinError::InvalidPredicate(_)),
                "{predicate:?}: {err}"
            );
        }
    }

    #[test]
    fn missing_file_errors() {
        let sys = system_with_grid();
        assert!(sys
            .broadcast_spatial_join("/missing", "/poly", SpatialPredicate::Within)
            .is_err());
        assert!(sys
            .broadcast_spatial_join("/pnt", "/missing", SpatialPredicate::Within)
            .is_err());
    }
}
