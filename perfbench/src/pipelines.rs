//! The three pipelines every workload runs, and the closed loop that
//! times them.

use std::time::Instant;

use bench::Experiment;
use impalite::{ImpaladConf, QueryMetrics};
use minihdfs::MiniDfs;
use sparklet::{JobReport, SparkConf};
use spatialjoin::{IspMc, IspMcRun, JoinPair, SpatialJoinError, SpatialSpark, SpatialSparkRun};

use crate::workload::Reference;

/// STR cells for the partitioned join.
pub const PARTITION_CELLS: usize = 64;

/// Simulated nodes for the replay metrics (Table 2).
pub const REPLAY_NODES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `SpatialSpark::broadcast_spatial_join`.
    SparkBroadcast,
    /// `IspMc::spatial_join`, SQL text to pairs.
    IspMc,
    /// `SpatialSpark::partitioned_spatial_join`.
    SparkPartitioned,
}

impl Pipeline {
    pub const ALL: [Pipeline; 3] = [
        Pipeline::SparkBroadcast,
        Pipeline::IspMc,
        Pipeline::SparkPartitioned,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Pipeline::SparkBroadcast => "spark_query_s",
            Pipeline::IspMc => "ispmc_query_s",
            Pipeline::SparkPartitioned => "spark_part_query_s",
        }
    }
}

/// One finished query of either system.
pub enum Run {
    Spark(SpatialSparkRun),
    IspMc(Box<IspMcRun>),
}

impl Run {
    pub fn pairs(&self) -> &[JoinPair] {
        match self {
            Run::Spark(r) => &r.pairs,
            Run::IspMc(r) => r.pairs(),
        }
    }
}

/// Both systems over one DFS, configured with `threads` workers.
pub struct Systems {
    spark: SpatialSpark,
    ispmc: IspMc,
    exp: Experiment,
}

impl Systems {
    pub fn new(dfs: &MiniDfs, exp: Experiment, threads: usize) -> Systems {
        let spark = SpatialSpark::new(
            SparkConf {
                app_name: format!("perfbench:{}", exp.label()),
                threads,
                ..SparkConf::default()
            },
            dfs.clone(),
        );
        let (lname, rname) = exp.table_names();
        let ispmc = IspMc::new(
            ImpaladConf {
                threads,
                ..ImpaladConf::default()
            },
            dfs.clone(),
            (lname, exp.left_path()),
            (rname, exp.right_path()),
        );
        Systems { spark, ispmc, exp }
    }

    /// Runs one query, DFS bytes to the final pair list.
    pub fn run(&self, p: Pipeline) -> Result<Run, SpatialJoinError> {
        let e = self.exp;
        match p {
            Pipeline::SparkBroadcast => self
                .spark
                .broadcast_spatial_join(e.left_path(), e.right_path(), e.predicate())
                .map(Run::Spark),
            Pipeline::IspMc => {
                let (l, r) = e.table_names();
                self.ispmc
                    .spatial_join(l, r, e.predicate())
                    .map(|run| Run::IspMc(Box::new(run)))
            }
            Pipeline::SparkPartitioned => self
                .spark
                .partitioned_spatial_join(
                    e.left_path(),
                    e.right_path(),
                    e.predicate(),
                    PARTITION_CELLS,
                )
                .map(Run::Spark),
        }
    }
}

/// What the timed loop measured for one pipeline.
#[derive(Default)]
pub struct Samples {
    /// Wall seconds of each successful, correct query.
    pub walls: Vec<f64>,
    /// Stage reports of each correct broadcast-join query, for replay.
    pub spark: Vec<JobReport>,
    /// Fragment metrics of each correct ISP-MC query, for replay.
    pub ispmc: Vec<QueryMetrics>,
}

/// Operation tally across the whole run.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Checks a query's outcome against the reference; returns the run
    /// when it succeeded with the reference pairs.
    pub fn check(
        &mut self,
        what: &str,
        outcome: Result<Run, SpatialJoinError>,
        reference: &Reference,
    ) -> Option<Run> {
        match outcome {
            Ok(run) => {
                let ok = self.check_pairs(what, run.pairs().to_vec(), reference);
                ok.then_some(run)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                eprintln!("perfbench: {what}: query failed: {e}");
                None
            }
        }
    }

    /// Counts one operation whose output is `pairs`; a mismatch with
    /// the reference counts as failed.
    pub fn check_pairs(&mut self, what: &str, pairs: Vec<JoinPair>, reference: &Reference) -> bool {
        self.attempted += 1;
        let n = pairs.len();
        let ok = reference.matches(pairs);
        if !ok {
            self.failed += 1;
            eprintln!(
                "perfbench: {what}: {n} pairs do not match the reference ({} pairs)",
                reference.count
            );
        }
        ok
    }
}

/// Runs one round of every pipeline, untimed: warms caches, the
/// allocator and lazy set-up before the timed queries.
pub fn warm_up(sys: &Systems, reference: &Reference, tally: &mut Tally) {
    for p in Pipeline::ALL {
        let outcome = sys.run(p);
        tally.check(p.metric(), outcome, reference);
    }
}

/// The closed loop: one client, one query at a time, pipelines in
/// round-robin order, until `seconds` have passed and at least
/// `min_rounds` rounds are done. Every query is checked against the
/// reference; only correct queries contribute timings.
pub fn timed_loop(
    sys: &Systems,
    reference: &Reference,
    seconds: f64,
    min_rounds: usize,
    tally: &mut Tally,
) -> [Samples; 3] {
    let mut samples: [Samples; 3] = Default::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for (i, p) in Pipeline::ALL.into_iter().enumerate() {
            let t = Instant::now();
            let outcome = sys.run(p);
            let wall = t.elapsed().as_secs_f64();
            let Some(run) = tally.check(p.metric(), outcome, reference) else {
                continue;
            };
            let s = &mut samples[i];
            s.walls.push(wall);
            match run {
                Run::Spark(r) if p == Pipeline::SparkBroadcast => s.spark.push(r.report),
                Run::IspMc(r) => s.ispmc.push(r.result.metrics),
                Run::Spark(_) => {}
            }
        }
        rounds += 1;
    }
    samples
}
