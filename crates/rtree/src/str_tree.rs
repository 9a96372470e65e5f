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
    pub fn for_each_within_distance<'a, F: FnMut(&'a T)>(
        &'a self,
        p: Point,
        distance: f64,
        mut visit: F,
    ) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        // Written as "prune when farther" (not "keep when within") so a
        // NaN distance keeps the subtree, exactly as a pop-then-test
        // traversal does.
        let pruned = |env: &Envelope| env.distance_to_point(p) > distance;
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
                    if env.distance_to_point(p) <= distance {
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
