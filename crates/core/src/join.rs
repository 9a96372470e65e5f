//! Engine-generic filter-refine join algorithms.
//!
//! The paper (§II) decomposes a spatial join into *spatial filtering*
//! (pairing objects by MBB approximation, usually through an index) and
//! *spatial refinement* (evaluating the exact predicate on each
//! candidate pair). Everything here is generic over the
//! [`RefinementEngine`], so the same algorithm runs with JTS-like or
//! GEOS-like refinement — the comparison at the heart of §V.B.

use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use rtree::{QuadTreePartitioner, RTree};

use crate::{GeomRecord, JoinPair, PointRecord};

/// Builds the broadcastable R-tree over the right side: geometries are
/// indexed by their envelope expanded by the predicate's filter radius
/// (the `expandBy(radius)` of the paper's Fig. 2) and prepared once by
/// the engine, in leaf order (see [`RTree::bulk_load_by`]).
pub fn build_right_index<E: RefinementEngine>(
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> RTree<(i64, E::Prepared)> {
    let radius = predicate.filter_radius();
    let envelopes: Vec<Envelope> = right
        .iter()
        .map(|(_, g)| g.envelope().expanded_by(radius))
        .collect();
    RTree::bulk_load_by(&envelopes, |i| {
        let (id, g) = &right[i];
        (*id, engine.prepare(g))
    })
}

/// Probes the index with one point, appending matches to `out`.
///
/// Entry envelopes were already expanded by the filter radius at build
/// time, so the query itself uses radius zero (expanding again would
/// double the candidate set). For [`SpatialPredicate::Nearest`] the
/// arg-min over candidates is applied here: at most one pair is emitted
/// per point (ties broken by the smaller right id).
#[inline]
pub fn probe<E: RefinementEngine>(
    tree: &RTree<(i64, E::Prepared)>,
    predicate: SpatialPredicate,
    engine: &E,
    left_id: i64,
    p: Point,
    out: &mut Vec<JoinPair>,
) {
    rtree::probe_with(
        tree,
        predicate,
        engine,
        left_id,
        p,
        |(rid, t)| (*rid, t),
        out,
    );
}

/// The nearest-neighbour join: for each point, the single nearest right
/// geometry within `max_distance` (ties broken by the smaller id).
/// Thin wrapper over [`crate::JoinRequest`].
pub fn nearest_join<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    max_distance: f64,
    engine: &E,
) -> Vec<JoinPair> {
    crate::JoinRequest::new(left, right, engine)
        .nearest(max_distance)
        .run()
        .pairs
}

/// The serial indexed broadcast join: index the right side, probe with
/// every left point. Thin wrapper over [`crate::JoinRequest`] (the
/// shared-set executor emits pairs bit-identical to a
/// [`build_right_index`]+[`probe`] loop); use the request directly to
/// also get the run's `obs::RunStats`.
pub fn broadcast_index_join<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> Vec<JoinPair> {
    crate::JoinRequest::new(left, right, engine)
        .predicate(predicate)
        .run()
        .pairs
}

/// The naïve O(|L|·|R|) cross-join-then-filter baseline of §II, kept for
/// correctness cross-checks and the indexing ablation bench. Thin
/// wrapper over [`crate::JoinRequest`].
pub fn nested_loop_join<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> Vec<JoinPair> {
    crate::JoinRequest::new(left, right, engine)
        .predicate(predicate)
        .nested_loop()
        .run()
        .pairs
}

/// A spatially partitioned join (the SpatialHadoop/HadoopGIS strategy
/// discussed in §II): space is split by a quadtree built on a sample of
/// the left points; each partition joins its points against the right
/// geometries overlapping it. Returns the partitioned work as
/// `(partition envelope, points, geometries)` triples so callers can
/// schedule them as distributed tasks.
pub struct PartitionedWork {
    pub partitions: Vec<PartitionTask>,
}

/// One partition's join task.
pub struct PartitionTask {
    pub cell: Envelope,
    pub left: Vec<PointRecord>,
    pub right_ids: Vec<u32>,
}

/// Builds partition tasks: points are routed to exactly one cell;
/// right-side geometries (their expanded envelopes) to every cell they
/// overlap.
pub fn partition_work(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    target_points_per_partition: usize,
) -> PartitionedWork {
    let mut extent = Envelope::EMPTY;
    for &(_, p) in left {
        extent.expand_to(p.x, p.y);
    }
    for (_, g) in right {
        extent = extent.union(&g.envelope());
    }
    if extent.is_empty() {
        return PartitionedWork {
            partitions: Vec::new(),
        };
    }
    // Sample at most 10k points for the partitioner.
    let stride = (left.len() / 10_000).max(1);
    let sample: Vec<Point> = left.iter().step_by(stride).map(|&(_, p)| p).collect();
    let qt = QuadTreePartitioner::build(
        extent,
        &sample,
        (target_points_per_partition / stride).max(1),
        12,
    );

    let mut partitions: Vec<PartitionTask> = qt
        .partitions()
        .iter()
        .map(|&cell| PartitionTask {
            cell,
            left: Vec::new(),
            right_ids: Vec::new(),
        })
        .collect();
    for &(id, p) in left {
        if let Some(pi) = qt.partition_of(p) {
            partitions[pi].left.push((id, p));
        }
    }
    let radius = predicate.filter_radius();
    for (ri, (_, g)) in right.iter().enumerate() {
        let env = g.envelope().expanded_by(radius);
        for pi in qt.partitions_intersecting(&env) {
            partitions[pi].right_ids.push(ri as u32);
        }
    }
    PartitionedWork { partitions }
}

/// Runs a partitioned join serially through the morsel executor's
/// shared [`crate::parallel::PreparedSet`]: each partition task carries
/// `right_ids` into the set instead of cloning geometry. Results are
/// deduplicated: a right geometry replicated into several cells can
/// only match a point in the point's unique cell, but dedup keeps the
/// contract obvious.
pub fn partitioned_join<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
    target_points_per_partition: usize,
) -> Vec<JoinPair> {
    crate::JoinRequest::new(left, right, engine)
        .predicate(predicate)
        .partitioned(target_points_per_partition)
        .run()
        .pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::engine::{NaiveEngine, PreparedEngine};
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
    fn indexed_join_matches_nested_loop() {
        let left = grid_points(10);
        let right = quadrant_polys(5.0);
        let engine = PreparedEngine;
        let indexed = crate::normalize_pairs(broadcast_index_join(
            &left,
            &right,
            SpatialPredicate::Within,
            &engine,
        ));
        let nested = crate::normalize_pairs(nested_loop_join(
            &left,
            &right,
            SpatialPredicate::Within,
            &engine,
        ));
        assert_eq!(indexed, nested);
        assert_eq!(indexed.len(), 100);
    }

    #[test]
    fn engines_agree_on_join_output() {
        let left = grid_points(8);
        let right = quadrant_polys(4.0);
        let fast = crate::normalize_pairs(broadcast_index_join(
            &left,
            &right,
            SpatialPredicate::Within,
            &PreparedEngine,
        ));
        let slow = crate::normalize_pairs(broadcast_index_join(
            &left,
            &right,
            SpatialPredicate::Within,
            &NaiveEngine,
        ));
        assert_eq!(fast, slow);
    }

    #[test]
    fn nearestd_join_with_radius_expansion() {
        let left = vec![(0, Point::new(5.0, 1.0)), (1, Point::new(5.0, 3.0))];
        let right = vec![(10, geom::wkt::parse("LINESTRING (0 0, 10 0)").unwrap())];
        let engine = PreparedEngine;
        let pairs = broadcast_index_join(&left, &right, SpatialPredicate::NearestD(2.0), &engine);
        assert_eq!(pairs, vec![(0, 10)]);
    }

    #[test]
    fn partitioned_join_matches_broadcast_join() {
        let left = grid_points(12);
        let right = quadrant_polys(6.0);
        let engine = PreparedEngine;
        let broadcast = crate::normalize_pairs(broadcast_index_join(
            &left,
            &right,
            SpatialPredicate::Within,
            &engine,
        ));
        // Small partitions force many cells and right-side replication.
        let partitioned = partitioned_join(&left, &right, SpatialPredicate::Within, &engine, 10);
        assert_eq!(partitioned, broadcast);
    }

    #[test]
    fn partitioned_nearestd_matches_broadcast() {
        let left = grid_points(10);
        let right = vec![
            (0, geom::wkt::parse("LINESTRING (0 5, 10 5)").unwrap()),
            (1, geom::wkt::parse("LINESTRING (5 0, 5 10)").unwrap()),
        ];
        let engine = PreparedEngine;
        let broadcast = crate::normalize_pairs(broadcast_index_join(
            &left,
            &right,
            SpatialPredicate::NearestD(1.0),
            &engine,
        ));
        let partitioned =
            partitioned_join(&left, &right, SpatialPredicate::NearestD(1.0), &engine, 8);
        assert_eq!(partitioned, broadcast);
    }

    #[test]
    fn record_parsing_drops_garbage() {
        let lines = vec![
            "0\tPOINT (1 2)".to_string(),
            "not-a-record".to_string(),
            "1\tPOLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))".to_string(), // not a point
            "2\tPOINT (3 4)".to_string(),
        ];
        let reader = crate::RecordReader::new(1);
        let pts = reader.read_points(&lines).0;
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1], (2, Point::new(3.0, 4.0)));
        let geoms = reader.read_geoms(&lines).0;
        assert_eq!(geoms.len(), 3); // polygon parses as a geometry
    }

    #[test]
    fn record_parsing_honours_geom_column() {
        // geom_col beyond 1: wkt sits after a payload column.
        let lines = vec!["7\tpayload\tPOINT (1 2)".to_string()];
        let points = |col| crate::RecordReader::new(col).read_points(&lines).0;
        assert_eq!(points(2), vec![(7, Point::new(1.0, 2.0))]);
        // Out-of-range column drops the row rather than panicking.
        assert!(points(9).is_empty());
        // geom_col == 0 is only satisfiable when id and wkt coincide,
        // which WKT never parses as an i64 — row dropped, not panicked.
        assert!(points(0).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let engine = PreparedEngine;
        assert!(broadcast_index_join(&[], &[], SpatialPredicate::Within, &engine).is_empty());
        assert!(partitioned_join(&[], &[], SpatialPredicate::Within, &engine, 16).is_empty());
        let left = grid_points(3);
        assert!(broadcast_index_join(&left, &[], SpatialPredicate::Within, &engine).is_empty());
    }
}
