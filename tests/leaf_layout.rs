//! Bit-identity of the leaf-order broadcast layout, on the in-tree
//! `proph` harness.
//!
//! Every broadcast index is built by `RTree::bulk_load_by`: envelopes
//! are STR-packed first and the right side is prepared in leaf order,
//! with tree payloads naming leaf positions ("slots"). The oracle here
//! is the input-order layout that layout replaced: an inline
//! `RTree<(i64, E::Prepared)>` bulk-loaded from `(envelope, (id,
//! prepared))` entries in input order, probed with `rtree::probe_with`.
//! Because STR packing and traversal order depend only on the envelope
//! sequence, every path must emit the oracle's pairs in the oracle's
//! order — the *unnormalised* sequence is compared wherever the path
//! promises input order.
//!
//! Right sides mix polygons with holes, multipolygons, polylines and
//! duplicated geometries (tied envelopes, so the STR sorts see ties);
//! coordinates sit on a coarse grid so points land on edges and
//! vertices; both sides may be empty.

use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, RefinementEngine, SpatialPredicate};
use geom::{Envelope, Geometry, HasEnvelope, LineString, MultiPolygon, Point, Polygon};
use minihdfs::MiniDfs;
use proph::{check_with, f64_range, usize_range, vec_of, Config, Gen, GenExt};
use rtree::{probe_with, RTree};
use spatialjoin::{
    normalize_pairs, GeomRecord, IspMc, JoinPair, JoinRequest, PointRecord, PreparedSet,
    RecordReader, SpatialSpark,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

const PREDICATES: [SpatialPredicate; 3] = [
    SpatialPredicate::Within,
    SpatialPredicate::NearestD(0.75),
    SpatialPredicate::Nearest(1.5),
];

/// Snaps to a quarter grid so vertices, edges and points coincide.
fn snap(v: f64) -> f64 {
    (v * 4.0).round() / 4.0
}

fn rect(x: f64, y: f64, w: f64, h: f64) -> Polygon {
    Polygon::rectangle(Envelope::new(x, y, x + w, y + h))
}

/// One right-side geometry of shape `kind` in the box `(x, y, w, h)`.
fn shape(kind: usize, x: f64, y: f64, w: f64, h: f64) -> Geometry {
    match kind {
        // Rectangle with a rectangular hole in its middle half.
        0 => {
            let ring =
                |x0: f64, y0: f64, x1: f64, y1: f64| vec![x0, y0, x1, y0, x1, y1, x0, y1, x0, y0];
            let hole = ring(
                x + w / 4.0,
                y + h / 4.0,
                x + 3.0 * w / 4.0,
                y + 3.0 * h / 4.0,
            );
            match Polygon::from_coords(ring(x, y, x + w, y + h), vec![hole]) {
                Ok(p) => Geometry::Polygon(p),
                Err(_) => Geometry::Polygon(rect(x, y, w, h)),
            }
        }
        // Two disjoint rectangles sharing the box.
        1 => Geometry::MultiPolygon(MultiPolygon::new(vec![
            rect(x, y, w / 3.0, h),
            rect(x + 2.0 * w / 3.0, y, w / 3.0, h / 2.0),
        ])),
        // A three-segment zig-zag polyline.
        2 => {
            let pts = [
                Point::new(x, y),
                Point::new(x + w / 3.0, y + h),
                Point::new(x + 2.0 * w / 3.0, y),
                Point::new(x + w, y + h),
            ];
            match LineString::from_points(&pts) {
                Ok(l) => Geometry::LineString(l),
                Err(_) => Geometry::Polygon(rect(x, y, w, h)),
            }
        }
        _ => Geometry::Polygon(rect(x, y, w, h)),
    }
}

/// Generator: adversarial right sides. Each drawn shape is repeated
/// `1 + dup` times under fresh ids (identical envelopes); ids are
/// deliberately not input positions.
fn right_side() -> impl Gen<Value = Vec<GeomRecord>> {
    vec_of(
        (
            usize_range(0, 4),
            f64_range(0.0, 16.0),
            f64_range(0.0, 16.0),
            f64_range(1.0, 6.0),
            f64_range(1.0, 6.0),
            usize_range(0, 3),
        ),
        0,
        24,
    )
    .map(|shapes| {
        let mut out = Vec::new();
        for (kind, x, y, w, h, dup) in shapes {
            let g = shape(kind, snap(x), snap(y), snap(w), snap(h));
            for _ in 0..=dup {
                let id = 5_000 - 3 * out.len() as i64;
                out.push((id, g.clone()));
            }
        }
        out
    })
}

/// Generator: left points on a half grid over the right side's window.
fn left_side() -> impl Gen<Value = Vec<PointRecord>> {
    vec_of((f64_range(-1.0, 23.0), f64_range(-1.0, 23.0)), 0, 70).map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| {
                let p = Point::new((x * 2.0).round() / 2.0, (y * 2.0).round() / 2.0);
                (7 * i as i64 + 3, p)
            })
            .collect()
    })
}

fn cfg() -> Config {
    Config {
        cases: 40,
        ..Config::default()
    }
}

/// The input-order layout: inline `(id, prepared)` payloads,
/// bulk-loaded from entries in input order, probed point by point.
fn oracle<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> Vec<JoinPair> {
    let radius = predicate.filter_radius();
    let tree: RTree<(i64, E::Prepared)> = RTree::bulk_load_entries(
        right
            .iter()
            .map(|(id, g)| (g.envelope().expanded_by(radius), (*id, engine.prepare(g))))
            .collect(),
    );
    let mut out = Vec::new();
    for &(lid, p) in left {
        probe_with(
            &tree,
            predicate,
            engine,
            lid,
            p,
            |(rid, t)| (*rid, t),
            &mut out,
        );
    }
    out
}

/// `JoinRequest` broadcast (threads 1/2/7, several morsels) and
/// partitioned, plus the shared set's subset trees, against the oracle.
fn request_matches_oracle<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    engine: &E,
) {
    for predicate in PREDICATES {
        let want = oracle(left, right, predicate, engine);
        for threads in THREAD_COUNTS {
            let got = JoinRequest::new(left, right, engine)
                .predicate(predicate)
                .threads(threads)
                .morsel_size(9)
                .run()
                .pairs;
            assert_eq!(got, want, "broadcast, {threads} threads, {predicate:?}");
        }
        let parted = JoinRequest::new(left, right, engine)
            .predicate(predicate)
            .partitioned(8)
            .threads(2)
            .run()
            .pairs;
        assert_eq!(
            parted,
            normalize_pairs(want.clone()),
            "partitioned, {predicate:?}"
        );

        // Subset trees take input indices and keep input-order packing.
        let set = PreparedSet::prepare(right, predicate, engine);
        let subset: Vec<u32> = (0..right.len() as u32).filter(|i| i % 3 != 1).collect();
        let picked: Vec<GeomRecord> = subset.iter().map(|&i| right[i as usize].clone()).collect();
        let want_subset = oracle(left, &picked, predicate, engine);
        let tree = set.subset_tree(&subset);
        let mut got_subset = Vec::new();
        for &(lid, p) in left {
            set.probe_subset(&tree, engine, lid, p, &mut got_subset);
        }
        assert_eq!(got_subset, want_subset, "subset tree, {predicate:?}");
    }
}

#[test]
fn prop_join_request_is_bit_identical_to_input_order_layout() {
    check_with(
        cfg(),
        "prop_join_request_is_bit_identical_to_input_order_layout",
        &(left_side(), right_side()),
        |(left, right)| {
            request_matches_oracle(&left, &right, &FlatEngine);
            request_matches_oracle(&left, &right, &NaiveEngine);
            request_matches_oracle(&left, &right, &PreparedEngine);
        },
    );
}

/// Writes both sides as `id \t wkt` files and reads them back through
/// the record reader, so the oracle sees exactly what the systems
/// parse.
fn stage(
    left: &[PointRecord],
    right: &[GeomRecord],
) -> (MiniDfs, Vec<PointRecord>, Vec<GeomRecord>) {
    let dfs = MiniDfs::new(3, 256).expect("dfs");
    let lines = |recs: Vec<(i64, Geometry)>| -> Vec<String> {
        recs.into_iter()
            .map(|(id, g)| format!("{id}\t{}", geom::wkt::write(&g)))
            .collect()
    };
    let left_lines = lines(
        left.iter()
            .map(|&(id, p)| (id, Geometry::Point(p)))
            .collect(),
    );
    let right_lines = lines(right.to_vec());
    dfs.write_lines("/pnt", &left_lines).expect("write left");
    dfs.write_lines("/poly", &right_lines).expect("write right");
    let reader = RecordReader::new(1);
    let (l, _) = reader.read_points(&left_lines);
    let (r, _) = reader.read_geoms(&right_lines);
    (dfs, l, r)
}

/// SpatialSpark broadcast/partitioned and ISP-MC SQL against the
/// oracle, over the staged files.
fn systems_match_oracle(left: &[PointRecord], right: &[GeomRecord]) {
    let (dfs, left, right) = stage(left, right);
    let spark = SpatialSpark::new(sparklet::SparkConf::default(), dfs.clone());
    let ispmc = IspMc::new(
        impalite::ImpaladConf::default(),
        dfs,
        ("pnt", "/pnt"),
        ("poly", "/poly"),
    );
    for predicate in PREDICATES {
        // SpatialSpark: FlatEngine, partitions in file order.
        let want = oracle(&left, &right, predicate, &FlatEngine);
        let run = spark
            .broadcast_spatial_join("/pnt", "/poly", predicate)
            .expect("spark broadcast");
        assert_eq!(run.pairs, want, "spark broadcast, {predicate:?}");
        // The partitioned join emits cell by cell, so only the multiset
        // is layout-independent; sort without dedup so a duplicated
        // pair still fails.
        let mut parted = spark
            .partitioned_spatial_join("/pnt", "/poly", predicate, 4)
            .expect("spark partitioned")
            .pairs;
        parted.sort_unstable();
        let mut sorted = want;
        sorted.sort_unstable();
        assert_eq!(parted, sorted, "spark partitioned, {predicate:?}");

        // ISP-MC: NaiveEngine, row batches stitched in file order.
        let want = oracle(&left, &right, predicate, &NaiveEngine);
        let run = ispmc
            .spatial_join("pnt", "poly", predicate)
            .expect("ispmc sql");
        assert_eq!(run.pairs(), want.as_slice(), "ispmc sql, {predicate:?}");
    }
}

#[test]
fn prop_systems_are_bit_identical_to_input_order_layout() {
    check_with(
        Config {
            cases: 24,
            ..Config::default()
        },
        "prop_systems_are_bit_identical_to_input_order_layout",
        &(left_side(), right_side()),
        |(left, right)| systems_match_oracle(&left, &right),
    );
}

#[test]
fn empty_and_tied_sides_match_the_oracle() {
    let left: Vec<PointRecord> = (0..20)
        .map(|i| (i, Point::new(i as f64 * 0.5, 3.0)))
        .collect();
    let right: Vec<GeomRecord> = vec![
        (9, shape(0, 0.0, 0.0, 6.0, 6.0)),
        (4, shape(0, 0.0, 0.0, 6.0, 6.0)),
        (7, shape(2, 2.0, 1.0, 5.0, 4.0)),
    ];
    for (l, r) in [
        (&[][..], &right[..]),
        (&left[..], &[][..]),
        (&[][..], &[][..]),
    ] {
        request_matches_oracle(l, r, &FlatEngine);
        request_matches_oracle(l, r, &NaiveEngine);
        request_matches_oracle(l, r, &PreparedEngine);
        systems_match_oracle(l, r);
    }
    // The non-empty pair, with duplicate envelopes, must actually match.
    assert!(!oracle(&left, &right, SpatialPredicate::Within, &FlatEngine).is_empty());
    request_matches_oracle(&left, &right, &FlatEngine);
    systems_match_oracle(&left, &right);
}
