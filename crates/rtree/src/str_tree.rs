//! STR (Sort-Tile-Recursive) bulk-loaded R-tree.
//!
//! Leonardi et al.'s STR packing: sort entries by centre x, cut into
//! vertical slices, sort each slice by centre y, pack runs of `M` into
//! leaves; repeat one level up until a single root remains. The result is
//! a static, cache-friendly arena of nodes with contiguous children —
//! ideal for the build-once/probe-many broadcast joins both systems in
//! the paper run.

use geom::{Envelope, HasEnvelope, Point};

/// Maximum entries per node.
const NODE_CAPACITY: usize = 16;

#[derive(Debug, Clone)]
struct Node {
    env: Envelope,
    /// Range into `entries` for leaves, into `nodes` for inner nodes.
    first: u32,
    count: u16,
    is_leaf: bool,
}

/// A static R-tree over items of type `T`.
///
/// Items are stored by value, permuted into leaf order so a leaf scan is
/// one contiguous read.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    entries: Vec<(Envelope, T)>,
    nodes: Vec<Node>,
    root: u32,
    height: usize,
}

impl<T> RTree<T> {
    /// Bulk-loads a tree from `(envelope, item)` pairs.
    pub fn bulk_load_entries(mut entries: Vec<(Envelope, T)>) -> RTree<T> {
        str_order(&mut entries, |e| e.0.center());
        RTree::pack(entries)
    }

    /// Bulk-loads a tree over `envelopes`, building each payload in
    /// **leaf order**: `make(i)` is called exactly once per input index
    /// `i`, in the order the entries land in the leaves. Payloads built
    /// here (and any heap blocks they own) are therefore laid out in
    /// the order a probe reaches them, so one leaf's candidates sit on
    /// adjacent cache lines.
    ///
    /// The packing equals [`RTree::bulk_load_entries`] over the same
    /// envelope sequence: STR packing is a stable sort keyed on the
    /// envelopes alone.
    pub fn bulk_load_by<F: FnMut(usize) -> T>(envelopes: &[Envelope], mut make: F) -> RTree<T> {
        let mut keyed: Vec<(Envelope, u32)> = envelopes
            .iter()
            .enumerate()
            .map(|(i, &env)| (env, i as u32))
            .collect();
        str_order(&mut keyed, |e| e.0.center());
        let entries = keyed
            .into_iter()
            .map(|(env, i)| (env, make(i as usize)))
            .collect();
        RTree::pack(entries)
    }

    /// Packs entries already in STR order into leaves, then builds the
    /// upper levels.
    fn pack(entries: Vec<(Envelope, T)>) -> RTree<T> {
        if entries.is_empty() {
            return RTree {
                entries,
                nodes: vec![Node {
                    env: Envelope::EMPTY,
                    first: 0,
                    count: 0,
                    is_leaf: true,
                }],
                root: 0,
                height: 1,
            };
        }

        // --- pack leaves ---
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * entries.len() / NODE_CAPACITY + 2);
        let mut level: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let count = NODE_CAPACITY.min(entries.len() - i);
            let env = entries[i..i + count]
                .iter()
                .fold(Envelope::EMPTY, |acc, e| acc.union(&e.0));
            nodes.push(Node {
                env,
                first: i as u32,
                count: count as u16,
                is_leaf: true,
            });
            level.push((nodes.len() - 1) as u32);
            i += count;
        }
        let mut height = 1;

        // --- build upper levels ---
        while level.len() > 1 {
            // Re-apply STR ordering to the node centres of this level.
            let mut keyed: Vec<(Point, u32)> = level
                .iter()
                .map(|&id| (nodes[id as usize].env.center(), id))
                .collect();
            str_order(&mut keyed, |k| k.0);
            let ordered: Vec<u32> = keyed.into_iter().map(|(_, id)| id).collect();

            let mut next_level = Vec::with_capacity(ordered.len() / NODE_CAPACITY + 1);
            let mut j = 0;
            while j < ordered.len() {
                let count = NODE_CAPACITY.min(ordered.len() - j);
                // Children must be contiguous in the arena: copy them to
                // the end, then point the parent at the copies.
                let first = nodes.len() as u32;
                let mut env = Envelope::EMPTY;
                for k in 0..count {
                    let child = nodes[ordered[j + k] as usize].clone();
                    env = env.union(&child.env);
                    nodes.push(child);
                }
                nodes.push(Node {
                    env,
                    first,
                    count: count as u16,
                    is_leaf: false,
                });
                next_level.push((nodes.len() - 1) as u32);
                j += count;
            }
            level = next_level;
            height += 1;
        }

        RTree {
            entries,
            nodes,
            root: level[0],
            height,
        }
    }

    /// Bulk-loads from items that know their own envelope.
    pub fn bulk_load(items: Vec<T>) -> RTree<T>
    where
        T: HasEnvelope,
    {
        let entries = items.into_iter().map(|t| (t.envelope(), t)).collect();
        RTree::bulk_load_entries(entries)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tree height in levels (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Envelope of everything in the tree.
    pub fn root_envelope(&self) -> Envelope {
        self.nodes[self.root as usize].env
    }

    /// Envelope of the entry at leaf position `pos` (the position a
    /// [`RTree::bulk_load_by`] payload was built for).
    pub fn entry_envelope(&self, pos: usize) -> Envelope {
        self.entries[pos].0
    }

    // This probe loop (and `for_each_within_distance` below) is the
    // filter step of every join in the workspace: a fixed-size explicit
    // stack, no heap traffic per probe. A child's envelope is tested
    // *before* it is pushed, so a pruned subtree costs no stack round
    // trip; the surviving children are pushed in the same order, so the
    // visit sequence is that of a pop-then-test traversal. `query`
    // (between the regions) is the allocating convenience wrapper.
    // tidy:alloc-free:start

    /// Calls `visit` for every item whose envelope intersects `query`.
    pub fn for_each_intersecting<'a, F: FnMut(&'a T)>(&'a self, query: &Envelope, mut visit: F) {
        if self.entries.is_empty() || !self.nodes[self.root as usize].env.intersects(query) {
            return;
        }
        // Explicit stack; tree heights are tiny (< 8 for 10M items).
        let mut stack = [0u32; 64];
        let mut sp = 0;
        stack[sp] = self.root;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let node = &self.nodes[stack[sp] as usize];
            let first = node.first as usize;
            let count = node.count as usize;
            if node.is_leaf {
                for (env, item) in &self.entries[first..first + count] {
                    if env.intersects(query) {
                        visit(item);
                    }
                }
            } else {
                for child in first..first + count {
                    if self.nodes[child].env.intersects(query) {
                        stack[sp] = child as u32;
                        sp += 1;
                    }
                }
            }
        }
    }
    // tidy:alloc-free:end

    /// Collects references to all items intersecting `query`.
    pub fn query(&self, query: &Envelope) -> Vec<&T> {
        let mut out = Vec::new();
        self.for_each_intersecting(query, |t| out.push(t));
        out
    }

    // tidy:alloc-free:start
    /// Calls `visit` for every item whose envelope lies within `distance`
    /// of `p` — the filtering step of the `NearestD` joins. Returns the
    /// number of nodes whose envelope was tested (the root plus every
    /// child of an expanded inner node — the pop count of a
    /// pop-then-test traversal); the caller folds it into its own obs
    /// flush (`probe_with` pays one TLS access per point, not two).
    ///
    /// Each envelope test is branch-free: `squared_distance` against
    /// one per-query threshold from `prune_threshold`, with no `sqrt`.
    /// The visit sequence and node count equal those of testing
    /// `env.distance_to_point(p) > distance` on every node, at any
    /// `distance`, as long as every envelope the traversal tests is in
    /// `squared_distance`'s exactness domain. Node envelopes are unions
    /// (which drop NaN), so that holds whenever each entry envelope has
    /// `min ≤ max` per axis, is [`Envelope::EMPTY`], or has a NaN bound
    /// only opposite an infinite one or its other NaN bound — every
    /// envelope a parsed record (finite or infinite coordinates, never
    /// NaN) expanded by a non-negative radius can have.
    pub fn for_each_within_distance<'a, F: FnMut(&'a T)>(
        &'a self,
        p: Point,
        distance: f64,
        mut visit: F,
    ) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        let t = prune_threshold(distance);
        // Written as "prune when farther" (not "keep when within") so a
        // NaN distance (t = NaN) keeps the subtree, exactly as a
        // pop-then-test traversal does.
        let pruned = |env: &Envelope| squared_distance(env, p) > t;
        if pruned(&self.nodes[self.root as usize].env) {
            return 1;
        }
        let mut stack = [0u32; 64];
        let mut sp = 0;
        stack[sp] = self.root;
        sp += 1;
        let mut visited: u64 = 1;
        while sp > 0 {
            sp -= 1;
            let node = &self.nodes[stack[sp] as usize];
            let first = node.first as usize;
            let count = node.count as usize;
            if node.is_leaf {
                for (env, item) in &self.entries[first..first + count] {
                    if squared_distance(env, p) <= t {
                        visit(item);
                    }
                }
            } else {
                visited += count as u64;
                for child in first..first + count {
                    if !pruned(&self.nodes[child].env) {
                        stack[sp] = child as u32;
                        sp += 1;
                    }
                }
            }
        }
        visited
    }
    // tidy:alloc-free:end

    /// Best-first nearest-neighbour search with a caller-supplied exact
    /// distance. `exact(item)` must be ≥ the envelope lower bound (true
    /// for any metric distance to geometry inside the envelope).
    pub fn nearest_by<F: FnMut(&T) -> f64>(&self, p: Point, mut exact: F) -> Option<(&T, f64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if self.entries.is_empty() {
            return None;
        }

        #[derive(PartialEq)]
        struct Cand(f64, u32, bool); // (lower bound, node or entry id, is_entry)
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Cand(
            self.nodes[self.root as usize].env.distance_to_point(p),
            self.root,
            false,
        )));
        let mut best: Option<(u32, f64)> = None;

        while let Some(Reverse(Cand(lower, id, is_entry))) = heap.pop() {
            if let Some((_, bd)) = best {
                if lower > bd {
                    break;
                }
            }
            if is_entry {
                let d = exact(&self.entries[id as usize].1);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((id, d));
                }
                continue;
            }
            let node = &self.nodes[id as usize];
            let first = node.first as usize;
            let count = node.count as usize;
            if node.is_leaf {
                for e in first..first + count {
                    heap.push(Reverse(Cand(
                        self.entries[e].0.distance_to_point(p),
                        e as u32,
                        true,
                    )));
                }
            } else {
                for child in first..first + count {
                    heap.push(Reverse(Cand(
                        self.nodes[child].env.distance_to_point(p),
                        child as u32,
                        false,
                    )));
                }
            }
        }
        best.map(|(id, d)| (&self.entries[id as usize].1, d))
    }

    /// Best-first k-nearest-neighbour search with a caller-supplied
    /// exact distance, generalising [`RTree::nearest_by`]. Returns up to
    /// `k` items ordered by ascending distance.
    pub fn nearest_k_by<F: FnMut(&T) -> f64>(
        &self,
        p: Point,
        k: usize,
        mut exact: F,
    ) -> Vec<(&T, f64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if self.entries.is_empty() || k == 0 {
            return Vec::new();
        }

        #[derive(PartialEq)]
        struct Cand(f64, u32, bool);
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Cand(
            self.nodes[self.root as usize].env.distance_to_point(p),
            self.root,
            false,
        )));
        let mut results: Vec<(u32, f64)> = Vec::with_capacity(k);

        while let Some(Reverse(Cand(lower, id, is_entry))) = heap.pop() {
            if results.len() == k && lower > results[results.len() - 1].1 {
                break;
            }
            if is_entry {
                let d = exact(&self.entries[id as usize].1);
                let pos = results
                    .binary_search_by(|(_, rd)| rd.total_cmp(&d))
                    .unwrap_or_else(|e| e);
                if pos < k {
                    results.insert(pos, (id, d));
                    results.truncate(k);
                }
                continue;
            }
            let node = &self.nodes[id as usize];
            let first = node.first as usize;
            let count = node.count as usize;
            if node.is_leaf {
                for e in first..first + count {
                    heap.push(Reverse(Cand(
                        self.entries[e].0.distance_to_point(p),
                        e as u32,
                        true,
                    )));
                }
            } else {
                for child in first..first + count {
                    heap.push(Reverse(Cand(
                        self.nodes[child].env.distance_to_point(p),
                        child as u32,
                        false,
                    )));
                }
            }
        }
        results
            .into_iter()
            .map(|(id, d)| (&self.entries[id as usize].1, d))
            .collect()
    }

    /// Iterates over all `(envelope, item)` entries in leaf order.
    pub fn entries(&self) -> impl Iterator<Item = &(Envelope, T)> {
        self.entries.iter()
    }
}

/// Squared distance from `p` to `env`, without branches: the per-axis
/// offset is `(min − x).max(0).max(x − max)`, and `f64::max` drops NaN,
/// so a NaN coordinate contributes 0. It equals the square of
/// [`Envelope::distance_to_point`]'s offsets (bit for bit, so the
/// `sqrt` of it is that distance) for every envelope where, per axis,
/// `min ≤ max`, a bound is NaN, or `min` is `+∞` (as in
/// [`Envelope::EMPTY`]). On an *inverted* axis (`max < x < min`, both
/// finite) it may take the larger of the two offsets where
/// `distance_to_point` takes `min − x`.
#[inline]
fn squared_distance(env: &Envelope, p: Point) -> f64 {
    let dx = (env.min_x - p.x).max(0.0).max(p.x - env.max_x);
    let dy = (env.min_y - p.y).max(0.0).max(p.y - env.max_y);
    dx * dx + dy * dy
}

/// The squared-distance threshold of a distance query: the largest
/// double `t` with `fl(sqrt(t)) ≤ distance`, so that for every squared
/// distance `s` in `[0, +∞]`, `s.sqrt() > distance ⇔ s > t` (`sqrt` is
/// correctly rounded, hence monotone). A NaN distance gives NaN (no
/// comparison holds, as with the `sqrt` form), a negative one gives −1
/// (everything is farther), and `+∞` gives `+∞`.
fn prune_threshold(distance: f64) -> f64 {
    if distance.is_nan() {
        return f64::NAN;
    }
    if distance < 0.0 {
        return -1.0;
    }
    if distance == f64::INFINITY {
        return f64::INFINITY;
    }
    // `distance²` is within a few ulps of the answer (it overflows only
    // when every finite square root is ≤ `distance`).
    let mut t = (distance * distance).min(f64::MAX);
    while t.sqrt() > distance {
        t = t.next_down();
    }
    while t < f64::MAX && t.next_up().sqrt() <= distance {
        t = t.next_up();
    }
    t
}

/// In-place STR ordering: sort by centre x, then within each vertical
/// slice of `slice_len` by centre y.
fn str_order<K, C: Fn(&K) -> Point>(items: &mut [K], center: C) {
    let n = items.len();
    if n <= NODE_CAPACITY {
        return;
    }
    let num_leaves = n.div_ceil(NODE_CAPACITY);
    let num_slices = (num_leaves as f64).sqrt().ceil() as usize;
    let slice_len = num_leaves.div_ceil(num_slices) * NODE_CAPACITY;

    items.sort_by(|a, b| center(a).x.total_cmp(&center(b).x));
    let mut i = 0;
    while i < n {
        let end = (i + slice_len).min(n);
        items[i..end].sort_by(|a, b| center(a).y.total_cmp(&center(b).y));
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Envelope;

    fn grid_boxes(n: usize) -> Vec<(Envelope, usize)> {
        // n×n unit boxes at integer offsets.
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (i as f64, j as f64);
                v.push((Envelope::new(x, y, x + 1.0, y + 1.0), i * n + j));
            }
        }
        v
    }

    #[test]
    fn empty_tree() {
        let t: RTree<usize> = RTree::bulk_load_entries(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.query(&Envelope::new(0.0, 0.0, 1.0, 1.0)).len(), 0);
        assert!(t.nearest_by(Point::new(0.0, 0.0), |_| 0.0).is_none());
    }

    #[test]
    fn query_matches_linear_scan() {
        let boxes = grid_boxes(20); // 400 items, multi-level tree
        let tree = RTree::bulk_load_entries(boxes.clone());
        assert_eq!(tree.len(), 400);
        assert!(tree.height() > 1);
        for query in [
            Envelope::new(0.5, 0.5, 2.5, 2.5),
            Envelope::new(-5.0, -5.0, -1.0, -1.0),
            Envelope::new(0.0, 0.0, 20.0, 20.0),
            Envelope::new(10.0, 10.0, 10.0, 10.0),
        ] {
            let mut expected: Vec<usize> = boxes
                .iter()
                .filter(|(e, _)| e.intersects(&query))
                .map(|&(_, id)| id)
                .collect();
            let mut got: Vec<usize> = tree.query(&query).into_iter().copied().collect();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "query {query:?}");
        }
    }

    #[test]
    fn within_distance_matches_linear_scan() {
        let boxes = grid_boxes(10);
        let tree = RTree::bulk_load_entries(boxes.clone());
        let p = Point::new(-2.0, 5.0);
        for d in [0.5, 2.0, 3.5, 100.0] {
            let mut expected: Vec<usize> = boxes
                .iter()
                .filter(|(e, _)| e.distance_to_point(p) <= d)
                .map(|&(_, id)| id)
                .collect();
            let mut got = Vec::new();
            tree.for_each_within_distance(p, d, |&id| got.push(id));
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "distance {d}");
        }
    }

    #[test]
    fn nearest_finds_true_minimum() {
        let boxes = grid_boxes(15);
        let tree = RTree::bulk_load_entries(boxes.clone());
        let p = Point::new(7.3, 7.9);
        // Exact distance = envelope distance here (items are their boxes).
        let (_, d) = tree
            .nearest_by(p, |&id| {
                let e = &boxes.iter().find(|(_, i)| *i == id).unwrap().0;
                e.distance_to_point(p)
            })
            .unwrap();
        assert_eq!(d, 0.0); // p is inside some box
        let far = Point::new(-3.0, 0.5);
        let (_, d2) = tree
            .nearest_by(far, |&id| {
                let e = &boxes.iter().find(|(_, i)| *i == id).unwrap().0;
                e.distance_to_point(far)
            })
            .unwrap();
        assert_eq!(d2, 3.0);
    }

    #[test]
    fn single_leaf_tree() {
        let tree = RTree::bulk_load_entries(vec![
            (Envelope::new(0.0, 0.0, 1.0, 1.0), 1usize),
            (Envelope::new(2.0, 2.0, 3.0, 3.0), 2usize),
        ]);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.query(&Envelope::new(0.5, 0.5, 0.6, 0.6)), vec![&1]);
        assert_eq!(tree.root_envelope(), Envelope::new(0.0, 0.0, 3.0, 3.0));
    }

    #[test]
    fn large_tree_height_is_logarithmic() {
        let boxes = grid_boxes(64); // 4096 items
        let tree = RTree::bulk_load_entries(boxes);
        assert!(tree.height() <= 4, "height {} too deep", tree.height());
        assert_eq!(tree.entries().count(), 4096);
    }
    #[test]
    fn nearest_k_matches_brute_force() {
        let boxes = grid_boxes(15);
        let tree = RTree::bulk_load_entries(boxes.clone());
        let p = Point::new(-2.5, 6.3);
        for k in [1usize, 4, 10, 300] {
            let got: Vec<(usize, f64)> = tree
                .nearest_k_by(p, k, |&id| {
                    boxes
                        .iter()
                        .find(|(_, i)| *i == id)
                        .unwrap()
                        .0
                        .distance_to_point(p)
                })
                .into_iter()
                .map(|(&id, d)| (id, d))
                .collect();
            let mut expected: Vec<(usize, f64)> = boxes
                .iter()
                .map(|&(e, id)| (id, e.distance_to_point(p)))
                .collect();
            expected.sort_by(|a, b| a.1.total_cmp(&b.1));
            expected.truncate(k);
            assert_eq!(got.len(), expected.len());
            for ((_, gd), (_, ed)) in got.iter().zip(&expected) {
                assert!((gd - ed).abs() < 1e-12, "k={k}");
            }
            // Ascending order.
            assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        }
        assert!(tree.nearest_k_by(p, 0, |_| 0.0).is_empty());
    }

    /// Overlapping boxes with many tied centres (STR sort ties).
    fn overlapping_boxes(n: usize) -> Vec<Envelope> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 23) as f64 * 0.5;
                let y = ((i * 11) % 19) as f64 * 0.5;
                let r = 0.5 + (i % 4) as f64;
                Envelope::new(x - r, y - r, x + r, y + r)
            })
            .collect()
    }

    /// The pre-pruning traversal: push every child, test on pop.
    fn pop_then_test(tree: &RTree<usize>, p: Point, distance: f64) -> (Vec<usize>, u64) {
        let mut seen = Vec::new();
        if tree.entries.is_empty() {
            return (seen, 0);
        }
        let mut stack = vec![tree.root];
        let mut visited = 0u64;
        while let Some(id) = stack.pop() {
            visited += 1;
            let node = &tree.nodes[id as usize];
            if node.env.distance_to_point(p) > distance {
                continue;
            }
            let (first, count) = (node.first as usize, node.count as usize);
            if node.is_leaf {
                for (env, item) in &tree.entries[first..first + count] {
                    if env.distance_to_point(p) <= distance {
                        seen.push(*item);
                    }
                }
            } else {
                stack.extend(first as u32..(first + count) as u32);
            }
        }
        (seen, visited)
    }

    #[test]
    fn pruning_before_push_keeps_visit_sequence_and_node_count() {
        let envs = overlapping_boxes(700);
        let tree = RTree::bulk_load_by(&envs, |i| i);
        assert!(tree.height() > 2);
        for d in [0.0, 0.75, 3.0] {
            for k in 0..60 {
                let p = Point::new(k as f64 * 0.37 - 4.0, (k % 13) as f64 * 0.9 - 3.0);
                let (want, want_nodes) = pop_then_test(&tree, p, d);
                let mut got = Vec::new();
                let nodes = tree.for_each_within_distance(p, d, |&i| got.push(i));
                assert_eq!(got, want, "p={p:?} d={d}");
                assert_eq!(nodes, want_nodes, "p={p:?} d={d}");
                if d == 0.0 {
                    let mut hit = Vec::new();
                    tree.for_each_intersecting(&Envelope::new(p.x, p.y, p.x, p.y), |&i| {
                        hit.push(i)
                    });
                    assert_eq!(hit, want, "intersecting p={p:?}");
                }
            }
        }
        // A point outside the root envelope tests the root only.
        let far = Point::new(1e6, 1e6);
        assert_eq!(tree.for_each_within_distance(far, 1.0, |_| {}), 1);
        assert_eq!(pop_then_test(&tree, far, 1.0).1, 1);
    }

    /// The filter kernel before the squared-distance rewrite, kept as
    /// the oracle: test-before-push on `distance_to_point` (a `sqrt`)
    /// against `distance`.
    fn sqrt_kernel(tree: &RTree<usize>, p: Point, distance: f64) -> (Vec<usize>, u64) {
        let mut seen = Vec::new();
        if tree.entries.is_empty() {
            return (seen, 0);
        }
        let pruned = |env: &Envelope| env.distance_to_point(p) > distance;
        if pruned(&tree.nodes[tree.root as usize].env) {
            return (seen, 1);
        }
        let mut stack = vec![tree.root];
        let mut visited: u64 = 1;
        while let Some(id) = stack.pop() {
            let node = &tree.nodes[id as usize];
            let (first, count) = (node.first as usize, node.count as usize);
            if node.is_leaf {
                for (env, item) in &tree.entries[first..first + count] {
                    if env.distance_to_point(p) <= distance {
                        seen.push(*item);
                    }
                }
            } else {
                visited += count as u64;
                for child in first..first + count {
                    if !pruned(&tree.nodes[child].env) {
                        stack.push(child as u32);
                    }
                }
            }
        }
        (seen, visited)
    }

    /// Coordinates that stress the kernel: ordinary values, signed
    /// zeros, infinities, NaN, subnormals and offsets whose square
    /// underflows (1e-170² = 0) or lands in the subnormal range.
    fn draw_coord(d: &mut proph::Data) -> f64 {
        const SPECIAL: [f64; 14] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            -5e-324,
            1e-310,
            1e-170,
            -1e-170,
            2e-170,
            1e-160,
            -1e-160,
            1e200,
        ];
        match d.draw_bounded(3) {
            0 => SPECIAL[d.draw_bounded(SPECIAL.len() as u64) as usize],
            // Small integers, so points land exactly on edges too.
            1 => d.draw_bounded(21) as f64 - 10.0,
            _ => d.draw_unit_f64() * 20.0 - 10.0,
        }
    }

    /// An envelope in [`squared_distance`]'s exactness domain: per axis
    /// `min ≤ max` over non-NaN values, or a NaN bound, or
    /// [`Envelope::EMPTY`]. With `tree_safe`, a NaN bound appears only
    /// opposite an infinite or NaN one — the entries whose unions (the
    /// node envelopes) stay in the domain; a few are also expanded by a
    /// radius, the way the joins build their entries.
    fn draw_envelope(d: &mut proph::Data, tree_safe: bool) -> Envelope {
        if d.draw_bounded(16) == 0 {
            return Envelope::EMPTY;
        }
        let axis = |d: &mut proph::Data| {
            let (a, b) = (draw_coord(d), draw_coord(d));
            if a.is_nan() || b.is_nan() {
                return if tree_safe {
                    [
                        (f64::NAN, f64::NAN),
                        (f64::NAN, f64::INFINITY),
                        (f64::NEG_INFINITY, f64::NAN),
                    ][d.draw_bounded(3) as usize]
                } else {
                    (a, b)
                };
            }
            let (mut lo, mut hi) = (a.min(b), a.max(b));
            if !tree_safe {
                match d.draw_bounded(12) {
                    0 => lo = f64::NAN,
                    1 => hi = f64::NAN,
                    _ => {}
                }
            }
            (lo, hi)
        };
        let (min_x, max_x) = axis(d);
        let (min_y, max_y) = axis(d);
        let env = Envelope {
            min_x,
            min_y,
            max_x,
            max_y,
        };
        if !tree_safe {
            return env;
        }
        match d.draw_bounded(8) {
            1 => env.expanded_by(500.0),
            2 => env.expanded_by(f64::INFINITY),
            _ => env,
        }
    }

    fn draw_distance(d: &mut proph::Data) -> f64 {
        match d.draw_bounded(10) {
            0 => 0.0,
            1 => -0.0,
            2 => -d.draw_unit_f64() * 5.0 - 5e-324,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => 5e-324,
            6 => 1e-170,
            7 => 1e200,
            _ => d.draw_unit_f64() * 8.0,
        }
    }

    fn draw_probes(d: &mut proph::Data, n: usize) -> Vec<(Point, f64)> {
        (0..n)
            .map(|_| (Point::new(draw_coord(d), draw_coord(d)), draw_distance(d)))
            .collect()
    }

    /// Envelopes over the whole domain, each with probes.
    struct EnvelopeCase;

    impl proph::Gen for EnvelopeCase {
        type Value = Vec<(Envelope, Vec<(Point, f64)>)>;

        fn generate(&self, d: &mut proph::Data) -> Self::Value {
            (0..64)
                .map(|_| (draw_envelope(d, false), draw_probes(d, 16)))
                .collect()
        }
    }

    /// A tree (1..=400 entries, up to three levels) plus probes.
    struct TreeCase;

    impl proph::Gen for TreeCase {
        type Value = (Vec<Envelope>, Vec<(Point, f64)>);

        fn generate(&self, d: &mut proph::Data) -> Self::Value {
            let max = if d.draw_bounded(2) == 0 { 20 } else { 400 };
            let n = 1 + d.draw_bounded(max) as usize;
            let envs = (0..n).map(|_| draw_envelope(d, true)).collect();
            (envs, draw_probes(d, 50))
        }
    }

    #[test]
    fn squared_distance_decides_like_distance_to_point() {
        proph::check("squared test ≡ sqrt test", &EnvelopeCase, |cases| {
            for (env, probes) in cases {
                for (p, dist) in probes {
                    let s = squared_distance(&env, p);
                    let old = env.distance_to_point(p);
                    assert_eq!(s.sqrt().to_bits(), old.to_bits(), "{env:?} p={p:?}");
                    let t = prune_threshold(dist);
                    assert_eq!(s > t, old > dist, "{env:?} p={p:?} d={dist:?}");
                    assert_eq!(s <= t, old <= dist, "{env:?} p={p:?} d={dist:?}");
                }
            }
        });
    }

    #[test]
    fn squared_kernel_matches_sqrt_kernel_visit_for_visit() {
        let cfg = proph::Config {
            cases: 400,
            ..proph::Config::default()
        };
        proph::check_with(
            cfg,
            "squared kernel ≡ sqrt kernel",
            &TreeCase,
            |(envs, probes)| {
                let tree = RTree::bulk_load_by(&envs, |i| i);
                for (p, dist) in probes {
                    let (want, want_nodes) = sqrt_kernel(&tree, p, dist);
                    let mut got = Vec::new();
                    let nodes = tree.for_each_within_distance(p, dist, |&i| got.push(i));
                    assert_eq!(got, want, "p={p:?} d={dist:?}");
                    assert_eq!(nodes, want_nodes, "p={p:?} d={dist:?}");
                }
            },
        );
    }

    #[test]
    fn prune_threshold_splits_square_roots_exactly() {
        let mut ds = vec![
            0.0,
            -0.0,
            5e-324,
            1e-310,
            1e-170,
            1e-160,
            f64::MIN_POSITIVE,
            1.0,
            2.0,
            500.0,
            1e154,
            1.3407807929942596e154,
            1e200,
            f64::MAX,
        ];
        // A sweep over thirty decades, with neighbours of each value.
        let mut d: f64 = 1e-15;
        while d < 1e15 {
            ds.extend([d.next_down(), d, d.next_up()]);
            d *= 1.618_033_988_749_895;
        }
        for d in ds {
            let t = prune_threshold(d);
            assert!(t >= 0.0 && !t.is_nan(), "d={d:e} t={t:e}");
            assert!(t.sqrt() <= d, "t itself must pass: d={d:e} t={t:e}");
            let up = t.next_up();
            assert!(up.sqrt() > d, "next double must fail: d={d:e} t={t:e}");
        }
        assert!(prune_threshold(f64::NAN).is_nan());
        assert!(prune_threshold(-1.0) < 0.0);
        assert!(prune_threshold(f64::NEG_INFINITY) < 0.0);
        assert_eq!(prune_threshold(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn bulk_load_by_builds_payloads_in_leaf_order_with_the_same_packing() {
        let envs = overlapping_boxes(500);
        let by_entries = RTree::bulk_load_entries(
            envs.iter()
                .copied()
                .enumerate()
                .map(|(i, e)| (e, i))
                .collect(),
        );
        let mut calls = Vec::new();
        let by = RTree::bulk_load_by(&envs, |i| {
            calls.push(i);
            i
        });
        let leaf_order: Vec<usize> = by_entries.entries().map(|&(_, i)| i).collect();
        // Same permutation, and `make` ran once per input, in leaf order.
        assert_eq!(
            by.entries().map(|&(_, i)| i).collect::<Vec<_>>(),
            leaf_order
        );
        assert_eq!(calls, leaf_order);
        for (pos, &i) in leaf_order.iter().enumerate() {
            assert_eq!(by.entry_envelope(pos), envs[i]);
        }
        let empty: RTree<usize> = RTree::bulk_load_by(&[], |_| unreachable!());
        assert!(empty.is_empty());
    }
}
