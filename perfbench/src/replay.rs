//! Replay-modelled full-scale seconds from the timed queries.
//!
//! A modelled runtime is a makespan, i.e. a maximum over measured task
//! costs multiplied by `calibration / scale`; one task preempted on a
//! shared two-core box moves it by tens of percent. The ledger therefore
//! replays one report whose every task cost is that task's minimum over
//! the run's timed queries, as the Fig. 4/5 ablation replays min-of-3
//! morsel costs. Queries of one pipeline over one DFS produce reports of
//! identical shape (same stages, blocks and row batches).

use bench::Replay;
use cluster::{ClusterSpec, NetworkModel, Scheduler, TaskSpec};
use impalite::exec::ProbeBatch;
use impalite::{ImpaladConf, QueryMetrics};
use sparklet::{JobReport, StageMetrics};

use crate::pipelines::REPLAY_NODES;

/// Elementwise minimum of equally long cost lists.
fn elementwise_min(lists: &[Vec<f64>]) -> Option<Vec<f64>> {
    let first = lists.first()?;
    if lists.iter().any(|l| l.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| lists.iter().map(|l| l[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

fn min_tasks(all: &[&[TaskSpec]]) -> Option<Vec<TaskSpec>> {
    let costs: Vec<Vec<f64>> = all
        .iter()
        .map(|tasks| tasks.iter().map(|t| t.cost).collect())
        .collect();
    let first = all.first()?;
    Some(
        elementwise_min(&costs)?
            .into_iter()
            .zip(first.iter())
            .map(|(cost, t)| TaskSpec {
                cost,
                locality: t.locality,
            })
            .collect(),
    )
}

/// Per-task minimum over SpatialSpark reports; `None` when empty or
/// when the reports differ in shape.
pub fn min_spark_report(reports: &[JobReport]) -> Option<JobReport> {
    let first = reports.first()?;
    if reports.iter().any(|r| r.stages.len() != first.stages.len()) {
        return None;
    }
    let stages = first
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let all: Vec<&[TaskSpec]> = reports.iter().map(|r| &r.stages[i].tasks[..]).collect();
            Some(StageMetrics {
                name: s.name.clone(),
                tasks: min_tasks(&all)?,
                broadcast_bytes: s.broadcast_bytes,
                shuffle_bytes: s.shuffle_bytes,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(JobReport { stages })
}

/// Per-task (scan task, build, probe chunk) minimum over ISP-MC query
/// metrics; `None` when empty or when the metrics differ in shape.
pub fn min_ispmc_metrics(all: &[QueryMetrics]) -> Option<QueryMetrics> {
    let first = all.first()?;
    let scans: Vec<&[TaskSpec]> = all.iter().map(|m| &m.scan_tasks[..]).collect();
    if all
        .iter()
        .any(|m| m.probe_batches.len() != first.probe_batches.len())
    {
        return None;
    }
    let probe_batches = first
        .probe_batches
        .iter()
        .enumerate()
        .map(|(b, batch)| {
            let lists: Vec<Vec<f64>> = all
                .iter()
                .map(|m| m.probe_batches[b].chunk_costs.clone())
                .collect();
            Some(ProbeBatch {
                locality: batch.locality,
                chunk_costs: elementwise_min(&lists)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(QueryMetrics {
        scan_tasks: min_tasks(&scans)?,
        build_secs: all
            .iter()
            .map(|m| m.build_secs)
            .fold(f64::INFINITY, f64::min),
        broadcast_bytes: first.broadcast_bytes,
        probe_batches,
        chunks_per_batch: first.chunks_per_batch,
        result_rows: first.result_rows,
    })
}

/// `bench::spark_runtime_at_scale` for a bare report: full-scale
/// seconds on [`REPLAY_NODES`] EC2 nodes (Table 2).
pub fn spark_replay10(report: &JobReport, replay: &Replay) -> f64 {
    bench::scale_spark_report(report, replay).simulate_runtime(
        &ClusterSpec::ec2_with_nodes(REPLAY_NODES),
        &NetworkModel::ec2_spark(),
        Scheduler::Dynamic,
    )
}

/// `bench::ispmc_runtime_at_scale` for bare metrics.
pub fn ispmc_replay10(metrics: &QueryMetrics, replay: &Replay) -> f64 {
    bench::scale_ispmc_metrics(metrics, replay)
        .simulate_runtime(&ImpaladConf::default(), REPLAY_NODES)
}
