//! Partitioned datasets and their transformations.

use crate::context::SparkContext;

/// One partition of a dataset, with its preferred node if the data came
/// from a DFS block.
#[derive(Debug, Clone)]
pub struct Partition<T> {
    pub data: Vec<T>,
    pub locality: Option<usize>,
}

/// A distributed collection, the analogue of Spark's RDD.
///
/// Transformations execute eagerly as one stage of per-partition tasks
/// on the context's thread pool under dynamic scheduling, recording the
/// measured cost of every task for later cluster replay.
pub struct Dataset<T> {
    ctx: SparkContext,
    partitions: Vec<Partition<T>>,
}

impl<T: Send + Sync> Dataset<T> {
    pub(crate) fn from_partitions(ctx: SparkContext, partitions: Vec<Partition<T>>) -> Dataset<T> {
        Dataset { ctx, partitions }
    }

    /// The owning context.
    pub fn context(&self) -> &SparkContext {
        &self.ctx
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Records per partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.data.len()).collect()
    }

    /// Locality hints per partition.
    pub fn localities(&self) -> Vec<Option<usize>> {
        self.partitions.iter().map(|p| p.locality).collect()
    }

    /// Total number of records. Free of stage overhead — counting is
    /// metadata in this engine.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(|p| p.data.len()).sum()
    }

    /// Core stage runner: applies `f` to each partition in parallel
    /// (dynamic scheduling), measures per-partition cost, records the
    /// stage, and rewraps the outputs with the same localities.
    pub fn map_partitions<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        let inputs: Vec<&[T]> = self.partitions.iter().map(|p| p.data.as_slice()).collect();
        let outputs = self
            .ctx
            .execute_stage(name, inputs, self.localities(), |part| f(part));
        let partitions = outputs
            .into_iter()
            .zip(&self.partitions)
            .map(|(data, p)| Partition {
                data,
                locality: p.locality,
            })
            .collect();
        Dataset::from_partitions(self.ctx.clone(), partitions)
    }

    /// Like [`Dataset::map_partitions`], but the closure also receives
    /// the partition index — Spark's `mapPartitionsWithIndex`. Needed
    /// when per-partition state (e.g. a partition-local index) differs
    /// by partition.
    pub fn map_partitions_indexed<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(usize, &[T]) -> Vec<U> + Sync,
    {
        let inputs: Vec<(usize, &[T])> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.data.as_slice()))
            .collect();
        let outputs = self.ctx.execute_stage(
            name,
            inputs,
            self.localities(),
            |(pi, part): &(usize, &[T])| f(*pi, part),
        );
        let partitions = outputs
            .into_iter()
            .zip(&self.partitions)
            .map(|(data, p)| Partition {
                data,
                locality: p.locality,
            })
            .collect();
        Dataset::from_partitions(self.ctx.clone(), partitions)
    }

    /// Element-wise transformation — Spark's `map`.
    pub fn map<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&T) -> U + Sync,
    {
        self.map_partitions(name, |part| part.iter().map(&f).collect())
    }

    /// One-to-many transformation — Spark's `flatMap`.
    pub fn flat_map<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&T) -> Vec<U> + Sync,
    {
        self.map_partitions(name, |part| part.iter().flat_map(&f).collect())
    }

    /// `flatMap` with a sink argument: `f` appends its outputs to the
    /// partition's output buffer directly. Equivalent to real Spark's
    /// lazy `flatMap` iterators, which never materialise a per-element
    /// collection — the shape hot join probes need.
    pub fn flat_map_with<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&T, &mut Vec<U>) + Sync,
    {
        self.map_partitions(name, |part| {
            let mut out = Vec::new();
            for t in part {
                f(t, &mut out);
            }
            out
        })
    }

    /// Keeps elements satisfying the predicate — Spark's `filter`.
    pub fn filter<F>(&self, name: &str, f: F) -> Dataset<T>
    where
        T: Clone,
        F: Fn(&T) -> bool + Sync,
    {
        self.map_partitions(name, |part| part.iter().filter(|t| f(t)).cloned().collect())
    }

    /// Pairs every element with a globally unique, partition-contiguous
    /// index — Spark's `zipWithIndex` (which likewise needs partition
    /// counts before it can run).
    pub fn zip_with_index(&self) -> Dataset<(u64, T)>
    where
        T: Clone,
    {
        let sizes = self.partition_sizes();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0u64;
        for s in &sizes {
            offsets.push(acc);
            acc += *s as u64;
        }
        // Offsets vary per partition, which map_partitions cannot see,
        // so enumerate partitions through an index-tagged input stage.
        let inputs: Vec<(usize, &[T])> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.data.as_slice()))
            .collect();
        let outputs = self.ctx.execute_stage(
            "zipWithIndex",
            inputs,
            self.localities(),
            |(pi, part): &(usize, &[T])| {
                part.iter()
                    .enumerate()
                    .map(|(i, t)| (offsets[*pi] + i as u64, t.clone()))
                    .collect::<Vec<_>>()
            },
        );
        let partitions = outputs
            .into_iter()
            .zip(&self.partitions)
            .map(|(data, p)| Partition {
                data,
                locality: p.locality,
            })
            .collect();
        Dataset::from_partitions(self.ctx.clone(), partitions)
    }

    /// Materialises the dataset on the driver — Spark's `collect`.
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let total = self.partitions.iter().map(|p| p.data.len()).sum();
        let mut out = Vec::with_capacity(total);
        for p in &self.partitions {
            out.extend_from_slice(&p.data);
        }
        out
    }

    /// [`Dataset::collect`] by move: consumes the dataset and gathers
    /// its records on the driver in partition order, without cloning
    /// them.
    pub fn into_vec(self) -> Vec<T> {
        let total = self.count();
        let mut out = Vec::with_capacity(total);
        for p in self.partitions {
            out.extend(p.data);
        }
        out
    }

    /// Redistributes records into `num_partitions` partitions by a key
    /// function — the wide (shuffle) dependency. `bytes_of` estimates
    /// each record's serialized size for the network model.
    pub fn partition_by<K, B>(&self, num_partitions: usize, key: K, bytes_of: B) -> Dataset<T>
    where
        T: Clone,
        K: Fn(&T) -> usize + Sync,
        B: Fn(&T) -> u64,
    {
        let num_partitions = num_partitions.max(1);
        let mut buckets: Vec<Vec<T>> = (0..num_partitions).map(|_| Vec::new()).collect();
        let mut moved_bytes = 0u64;
        for p in &self.partitions {
            for t in &p.data {
                moved_bytes += bytes_of(t);
                buckets[key(t) % num_partitions].push(t.clone());
            }
        }
        self.ctx
            .record_movement("shuffle:partition_by", 0, moved_bytes);
        let partitions = buckets
            .into_iter()
            .map(|data| Partition {
                data,
                locality: None,
            })
            .collect();
        Dataset::from_partitions(self.ctx.clone(), partitions)
    }

    /// Direct read access to a partition's records (for engine layers).
    pub fn partition(&self, i: usize) -> &[T] {
        &self.partitions[i].data
    }

    /// Concatenates two datasets partition-wise — Spark's `union`
    /// (no shuffle; partitions are simply appended).
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T>
    where
        T: Clone,
    {
        let mut partitions: Vec<Partition<T>> = self.partitions.clone();
        partitions.extend(other.partitions.iter().cloned());
        Dataset::from_partitions(self.ctx.clone(), partitions)
    }

    /// Deterministic sample of roughly `fraction` of the records
    /// (hash-based, so repeatable) — Spark's `sample` without
    /// replacement.
    pub fn sample(&self, fraction: f64) -> Dataset<T>
    where
        T: Clone,
    {
        let threshold = (fraction.clamp(0.0, 1.0) * u32::MAX as f64) as u32;
        self.map_partitions_indexed("sample", move |pi, part| {
            part.iter()
                .enumerate()
                .filter(|(i, _)| {
                    // Cheap splitmix-style hash of the global slot.
                    let mut z = (pi as u64) << 32 | *i as u64;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                    ((z >> 32) as u32) < threshold
                })
                .map(|(_, t)| t.clone())
                .collect()
        })
    }

    /// First `n` records in partition order — Spark's `take`.
    pub fn take(&self, n: usize) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(n);
        for p in &self.partitions {
            for t in &p.data {
                if out.len() == n {
                    return out;
                }
                out.push(t.clone());
            }
        }
        out
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: std::hash::Hash + Eq + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Combines values per key — Spark's `reduceByKey`. Runs a
    /// map-side combine in each partition (the classic optimisation),
    /// then shuffles the partial aggregates and merges.
    pub fn reduce_by_key<F>(
        &self,
        num_partitions: usize,
        bytes_per_pair: u64,
        f: F,
    ) -> Dataset<(K, V)>
    where
        F: Fn(&V, &V) -> V + Sync,
    {
        // Map-side combine.
        let combined = self.map_partitions("reduceByKey:combine", |part| {
            let mut acc: std::collections::HashMap<K, V> = std::collections::HashMap::new();
            for (k, v) in part {
                match acc.get_mut(k) {
                    Some(cur) => *cur = f(cur, v),
                    None => {
                        acc.insert(k.clone(), v.clone());
                    }
                }
            }
            acc.into_iter().collect()
        });
        // Shuffle partial aggregates by key hash.
        let shuffled = combined.partition_by(
            num_partitions.max(1),
            |(k, _)| fnv_hash(k),
            |_| bytes_per_pair,
        );
        // Final merge within each partition.
        shuffled.map_partitions("reduceByKey:merge", |part| {
            let mut acc: std::collections::HashMap<K, V> = std::collections::HashMap::new();
            for (k, v) in part {
                match acc.get_mut(k) {
                    Some(cur) => *cur = f(cur, v),
                    None => {
                        acc.insert(k.clone(), v.clone());
                    }
                }
            }
            acc.into_iter().collect()
        })
    }

    /// Counts records per key — Spark's `countByKey`, expressed via
    /// [`Dataset::reduce_by_key`].
    pub fn count_by_key(&self, num_partitions: usize) -> Dataset<(K, u64)> {
        self.map("countByKey:ones", |(k, _)| (k.clone(), 1u64))
            .reduce_by_key(num_partitions, 16, |a, b| a + b)
    }
}

/// Stable FNV-1a over the value's `Hash` output, so shuffles are
/// deterministic across runs.
fn fnv_hash<K: std::hash::Hash>(k: &K) -> usize {
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }
    let mut h = Fnv(0xcbf29ce484222325);
    std::hash::Hash::hash(k, &mut h);
    std::hash::Hasher::finish(&h) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SparkConf;
    use minihdfs::MiniDfs;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::default(), MiniDfs::new(4, 256).unwrap())
    }

    #[test]
    fn map_filter_flatmap_pipeline() {
        let c = ctx();
        let ds = c.parallelize((0..100i64).collect(), 7);
        let result = ds
            .map("x3", |x| x * 3)
            .filter("even", |x| x % 2 == 0)
            .flat_map("dup", |&x| vec![x, x])
            .collect();
        let expected: Vec<i64> = (0..100)
            .map(|x| x * 3)
            .filter(|x| x % 2 == 0)
            .flat_map(|x| vec![x, x])
            .collect();
        assert_eq!(result, expected);
        assert_eq!(c.job_report().stages.len(), 3);
    }

    #[test]
    fn zip_with_index_is_global_and_ordered() {
        let c = ctx();
        let ds = c.parallelize((100..200i64).collect(), 9);
        let indexed = ds.zip_with_index().collect();
        assert_eq!(indexed.len(), 100);
        for (i, (idx, val)) in indexed.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*val, 100 + i as i64);
        }
    }

    #[test]
    fn partition_by_routes_by_key_and_records_shuffle() {
        let c = ctx();
        let ds = c.parallelize((0..50usize).collect(), 4);
        let repartitioned = ds.partition_by(5, |&x| x, |_| 8);
        assert_eq!(repartitioned.num_partitions(), 5);
        for pi in 0..5 {
            assert!(repartitioned.partition(pi).iter().all(|&x| x % 5 == pi));
        }
        let report = c.job_report();
        let shuffle: u64 = report.stages.iter().map(|s| s.shuffle_bytes).sum();
        assert_eq!(shuffle, 50 * 8);
    }

    #[test]
    fn stage_preserves_locality() {
        let c = ctx();
        let lines: Vec<String> = (0..100).map(|i| format!("{i:0>20}")).collect();
        c.dfs().write_lines("/loc", &lines).unwrap();
        let ds = c.text_file("/loc", "textFile", str::to_owned).unwrap();
        let mapped = ds.map("len", |s| s.len());
        assert_eq!(mapped.localities(), ds.localities());
        assert!(ds.localities().iter().all(Option::is_some));
        // Stage metrics carry those localities too.
        let report = c.job_report();
        let stage = report.stages.last().unwrap();
        assert!(stage.tasks.iter().all(|t| t.locality.is_some()));
    }

    #[test]
    fn union_sample_take() {
        let c = ctx();
        let a = c.parallelize((0..50i32).collect(), 3);
        let b = c.parallelize((50..80i32).collect(), 2);
        let u = a.union(&b);
        assert_eq!(u.count(), 80);
        assert_eq!(u.num_partitions(), 5);
        assert_eq!(u.take(3), vec![0, 1, 2]);
        assert_eq!(u.take(200).len(), 80);

        let big = c.parallelize((0..10_000i32).collect(), 8);
        let s1 = big.sample(0.1);
        let s2 = big.sample(0.1);
        // Deterministic and roughly the right size.
        assert_eq!(s1.collect(), s2.collect());
        let n = s1.count();
        assert!((700..1300).contains(&n), "sampled {n} of 10000");
        assert_eq!(big.sample(0.0).count(), 0);
        assert_eq!(big.sample(1.0).count(), 10_000);
    }

    #[test]
    fn reduce_by_key_aggregates_across_partitions() {
        let c = ctx();
        let pairs: Vec<(String, u64)> = (0..100)
            .map(|i| (format!("k{}", i % 7), i as u64))
            .collect();
        let ds = c.parallelize(pairs.clone(), 6);
        let mut result = ds.reduce_by_key(4, 16, |a, b| a + b).collect();
        result.sort();
        let mut expected: std::collections::HashMap<String, u64> = Default::default();
        for (k, v) in pairs {
            *expected.entry(k).or_insert(0) += v;
        }
        let mut expected: Vec<(String, u64)> = expected.into_iter().collect();
        expected.sort();
        assert_eq!(result, expected);
        // Shuffle bytes got recorded (partial aggregates only).
        let shuffled: u64 = c.job_report().stages.iter().map(|s| s.shuffle_bytes).sum();
        assert!(shuffled > 0);
        assert!(
            shuffled <= 7 * 6 * 16,
            "map-side combine bounds the shuffle"
        );
    }

    #[test]
    fn count_by_key_counts() {
        let c = ctx();
        let ds = c.parallelize(vec![("a", 1), ("b", 2), ("a", 3), ("a", 4)], 2);
        let mut counts = ds.count_by_key(2).collect();
        counts.sort();
        assert_eq!(counts, vec![("a", 3), ("b", 1)]);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let c = ctx();
        let ds = c.parallelize((0..40i32).collect(), 4);
        let sums = ds.map_partitions("sum", |part| vec![part.iter().sum::<i32>()]);
        assert_eq!(sums.count(), 4);
        assert_eq!(sums.collect().iter().sum::<i32>(), (0..40).sum());
    }
}
