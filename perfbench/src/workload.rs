//! The three ledger workloads: generation, DFS load and the reference
//! result every query is checked against.

use std::time::Instant;

use bench::Experiment;
use datagen::{full_size, Scale};
use geom::engine::FlatEngine;
use geom::Geometry;
use minihdfs::MiniDfs;
use spatialjoin::{normalize_pairs, GeomRecord, JoinPair, JoinRequest, PointRecord, RecordReader};

use crate::BenchErr;

/// The paper's joins the ledger runs. The names are fixed: results
/// and later perf claims cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TaxiNycb,
    TaxiLion500,
    G10mWwf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TaxiNycb, Workload::TaxiLion500, Workload::G10mWwf];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        self.experiment().label()
    }

    /// Paths, predicate and table names are the bench crate's.
    pub fn experiment(self) -> Experiment {
        match self {
            Workload::TaxiNycb => Experiment::TaxiNycb,
            Workload::TaxiLion500 => Experiment::TaxiLion500,
            Workload::G10mWwf => Experiment::G10mWwf,
        }
    }

    /// Left (points, scaled) and right (full cardinality) geometries.
    fn generate(self, seed: u64) -> (Vec<Geometry>, Vec<Geometry>) {
        let s = scale();
        match self {
            Workload::TaxiNycb => (
                datagen::taxi::geometries(s.apply(full_size::TAXI), seed),
                datagen::nycb::geometries(full_size::NYCB, seed),
            ),
            Workload::TaxiLion500 => (
                datagen::taxi::geometries(s.apply(full_size::TAXI), seed),
                datagen::lion::geometries(full_size::LION, seed),
            ),
            Workload::G10mWwf => (
                datagen::gbif::geometries(s.apply(full_size::G10M), seed),
                datagen::wwf::geometries(full_size::WWF, seed),
            ),
        }
    }
}

/// Left-side scale: 1/1000 of the paper's points.
pub fn scale() -> Scale {
    Scale::default_repro()
}

/// One generated-and-loaded workload.
pub struct Loaded {
    pub dfs: MiniDfs,
    pub gen_s: f64,
    pub load_s: f64,
}

/// Generates the workload's two datasets and writes them to a fresh
/// DFS, with the block size `bench::build_workload` uses at this scale.
pub fn setup(w: Workload, seed: u64) -> Result<Loaded, BenchErr> {
    let block_size = ((minihdfs::DEFAULT_BLOCK_SIZE as f64 * scale().0) as usize).max(16 * 1024);
    let dfs = MiniDfs::new(bench::DATANODES, block_size)?;
    let exp = w.experiment();
    let t = Instant::now();
    let (left, right) = w.generate(seed);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    datagen::write_dataset(&dfs, exp.left_path(), &left)?;
    datagen::write_dataset(&dfs, exp.right_path(), &right)?;
    let load_s = t.elapsed().as_secs_f64();
    Ok(Loaded { dfs, gen_s, load_s })
}

/// Both sides read back from the DFS and parsed.
pub fn read_records(
    dfs: &MiniDfs,
    exp: Experiment,
) -> Result<(Vec<PointRecord>, Vec<GeomRecord>), BenchErr> {
    let reader = RecordReader::new(1);
    let (left, _) = reader.read_points(&dfs.read_all_lines(exp.left_path())?);
    let (right, _) = reader.read_geoms(&dfs.read_all_lines(exp.right_path())?);
    Ok((left, right))
}

/// The reference result: pair count plus an order-independent hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub count: usize,
    pub hash: u64,
}

impl Reference {
    /// Computes the reference with a serial broadcast `JoinRequest` on
    /// the `FlatEngine`.
    pub fn compute(left: &[PointRecord], right: &[GeomRecord], exp: Experiment) -> Reference {
        let pairs = JoinRequest::new(left, right, &FlatEngine)
            .predicate(exp.predicate())
            .run()
            .pairs;
        let pairs = normalize_pairs(pairs);
        Reference {
            count: pairs.len(),
            hash: pair_hash(&pairs),
        }
    }

    /// True when `pairs` holds exactly the reference set: same count
    /// before and after `normalize_pairs` (no duplicates) and the same
    /// hash.
    pub fn matches(&self, pairs: Vec<JoinPair>) -> bool {
        let raw = pairs.len();
        let pairs = normalize_pairs(pairs);
        raw == self.count && pairs.len() == self.count && pair_hash(&pairs) == self.hash
    }
}

/// Sum of a 64-bit mix of each pair: independent of order.
fn pair_hash(pairs: &[JoinPair]) -> u64 {
    pairs.iter().fold(0u64, |acc, &(l, r)| {
        acc.wrapping_add(mix(
            (l as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ r as u64
        ))
    })
}

/// splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ignores_order_and_sees_content() {
        let a = vec![(1, 2), (3, 4), (5, 6)];
        let b = vec![(5, 6), (1, 2), (3, 4)];
        assert_eq!(pair_hash(&a), pair_hash(&b));
        assert_ne!(pair_hash(&a), pair_hash(&[(1, 2), (3, 4), (5, 7)]));
        let r = Reference {
            count: 3,
            hash: pair_hash(&normalize_pairs(a.clone())),
        };
        assert!(r.matches(b));
        assert!(!r.matches(vec![(1, 2), (3, 4), (3, 4)]));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("taxi-lion-100"), None);
    }
}
