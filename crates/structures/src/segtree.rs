//! A generic segment tree over 1D intervals with a per-canonical-node
//! summary structure.
//!
//! The classic tool behind §5.2's point-enclosure structures: each input
//! interval is assigned to `O(log n)` canonical nodes; a stabbing query at
//! `q` visits the `O(log n)` nodes on one root-to-leaf path and consults
//! each node's summary. The summaries are the caller's, so the same tree
//! serves as
//!
//! * a prioritized interval-stabbing structure (summaries = one
//!   weight-descending block run per node, all in one
//!   [`emsim::RunArena`] → `O(log n + t)` reporting), and
//! * the outer x-tree of the 2D point-enclosure structures (summary = an
//!   inner 1D y-structure per node).
//!
//! Elementary intervals are the points `xs[i]` and the open gaps between
//! them (plus the two unbounded gaps), so closed input intervals and
//! arbitrary real query points are handled exactly.
//!
//! Layout: the tree keeps only the sorted endpoints and, per heap node, a
//! `u32` slot. Nodes with at least one interval get dense slots `0..s` in
//! heap order; the caller stores summary `k` at index `k` of whatever
//! container it likes. The build walks the canonical decomposition twice —
//! once to count each node's intervals, once to fill one flat array grouped
//! slot by slot — so no per-node `Vec` is ever allocated.

use emsim::CostModel;

/// The slot of a heap node no interval is assigned to.
const EMPTY: u32 = u32::MAX;

/// The items of every non-empty canonical node, grouped slot by slot
/// (heap order); within a group, items keep their input order.
pub struct Groups<E> {
    items: Vec<E>,
    lens: Vec<usize>,
}

impl<E> Groups<E> {
    /// The flat item array and each group's length, in slot order.
    pub fn into_parts(self) -> (Vec<E>, Vec<usize>) {
        (self.items, self.lens)
    }

    /// Each group as its own `Vec`, in slot order.
    pub fn into_vecs(self) -> impl Iterator<Item = Vec<E>> {
        let mut items = self.items.into_iter();
        self.lens
            .into_iter()
            .map(move |len| items.by_ref().take(len).collect())
    }
}

/// A segment tree over interval endpoints whose non-empty canonical nodes
/// are numbered by dense slots; see the module docs.
pub struct SegTree {
    /// Sorted, deduplicated endpoint coordinates.
    xs: Vec<f64>,
    /// Heap-shaped over `n_leaves` leaves: `slot[u]` is node `u`'s dense
    /// slot, or [`EMPTY`] when no interval is assigned to it.
    slot: Vec<u32>,
    n_leaves: usize,
    len: usize,
    array_id: u64,
    model: CostModel,
}

impl SegTree {
    /// Build over `items`, where `range(item) = (lo, hi)` is a closed
    /// interval with `lo ≤ hi`. `make` receives every non-empty canonical
    /// node's items, grouped by slot, and returns the summaries (summary
    /// `k` belongs to slot `k`). Summaries draw their array ids before the
    /// tree draws its own.
    pub fn build<E: Clone, S>(
        model: &CostModel,
        items: &[E],
        range: impl Fn(&E) -> (f64, f64),
        make: impl FnOnce(&CostModel, Groups<E>) -> S,
    ) -> (Self, S) {
        assert!(
            u32::try_from(items.len()).is_ok(),
            "segment tree holds at most u32::MAX intervals"
        );
        let mut xs: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for e in items {
            let (lo, hi) = range(e);
            assert!(
                lo.is_finite() && hi.is_finite() && lo <= hi,
                "bad interval [{lo}, {hi}]"
            );
            xs.push(lo);
            xs.push(hi);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();

        // Heap layout sized to the next power of two; each interval covers
        // the elementary leaves [2·idx(lo)+1, 2·idx(hi)+1].
        let n_leaves = (2 * xs.len() + 1).max(1).next_power_of_two();
        let spans: Vec<(usize, usize)> = items
            .iter()
            .map(|e| {
                let (lo, hi) = range(e);
                (
                    n_leaves + 2 * lower_index(&xs, lo) + 1,
                    n_leaves + 2 * lower_index(&xs, hi) + 1,
                )
            })
            .collect();

        // Pass 1: count each node's intervals, then number the non-empty
        // nodes densely in heap order.
        let mut slot = vec![0u32; 2 * n_leaves];
        for &(a, b) in &spans {
            canonical(a, b, |u| slot[u] += 1);
        }
        let mut lens = Vec::new();
        for s in &mut slot {
            if *s == 0 {
                *s = EMPTY;
            } else {
                lens.push(*s as usize);
                *s = (lens.len() - 1) as u32;
            }
        }

        // Pass 2: place each interval's index in every group it joins.
        let mut cursor: Vec<usize> = lens
            .iter()
            .scan(0, |end, &len| {
                let start = *end;
                *end += len;
                Some(start)
            })
            .collect();
        let mut order = vec![0u32; lens.iter().sum()];
        for (i, &(a, b)) in spans.iter().enumerate() {
            canonical(a, b, |u| {
                let c = &mut cursor[slot[u] as usize];
                order[*c] = i as u32;
                *c += 1;
            });
        }
        // Free the scratch before the summaries are built: at n = 2^18 the
        // build's peak memory is this step plus the caller's summaries.
        drop(spans);
        let grouped = order.iter().map(|&i| items[i as usize].clone()).collect();
        drop(order);

        let slots = lens.len() as u64;
        let summaries = make(
            model,
            Groups {
                items: grouped,
                lens,
            },
        );
        let tree = SegTree {
            xs,
            slot,
            n_leaves,
            len: items.len(),
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        model.charge_writes(slots);
        (tree, summaries)
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space of the tree itself (the endpoint array), in blocks; the
    /// caller adds its summaries'.
    pub fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<f64>().max(1) as u64;
        (self.xs.len() as u64).div_ceil(per)
    }

    /// Visit the slots on the root-to-leaf path for stabbing point `q`
    /// (every interval containing `q` lives in exactly one of them),
    /// bottom-up. Charges one I/O per non-empty node on the path
    /// (`O(log n)`), plus the predecessor search on the endpoint array.
    /// Stops early when `visit` returns `false`.
    pub fn for_each_on_path(&self, q: f64, visit: &mut dyn FnMut(usize) -> bool) {
        if self.len == 0 {
            return;
        }
        // Predecessor search: which elementary interval contains q?
        // Charged as log2 probes of the xs array.
        let elem = stab_index(&self.xs, q);
        self.model
            .charge_reads((self.xs.len().max(2) as f64).log2().ceil() as u64);
        let mut u = self.n_leaves + elem; // leaf in heap layout
        debug_assert!(u < self.slot.len(), "leaf index out of arena");
        while u >= 1 {
            let s = self.slot[u];
            if s != EMPTY {
                self.model.touch(self.array_id, u as u64);
                if !visit(s as usize) {
                    return;
                }
            }
            u /= 2;
        }
    }
}

/// Index of `v` in sorted `xs` (must be present — intervals' endpoints are).
fn lower_index(xs: &[f64], v: f64) -> usize {
    let i = xs.partition_point(|&x| x < v);
    debug_assert!(i < xs.len() && xs[i] == v, "endpoint must be a grid point");
    i
}

/// Which elementary interval (0..2m) contains the query point?
/// `2i+1` = the point `xs[i]`; `2i` = the open gap before it; `2m` = after.
fn stab_index(xs: &[f64], q: f64) -> usize {
    let m = xs.len();
    let i = xs.partition_point(|&x| x < q);
    if i < m && xs[i] == q {
        2 * i + 1
    } else {
        2 * i
    }
}

/// Call `f` on each canonical node of the heap leaf span `[l, r]` (the
/// standard iterative bottom-up decomposition).
fn canonical(mut l: usize, r: usize, mut f: impl FnMut(usize)) {
    let mut r = r + 1; // exclusive
    while l < r {
        if l & 1 == 1 {
            f(l);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            f(r);
        }
        l /= 2;
        r /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Item = (f64, f64, u64);

    /// Trivial summaries: each slot's raw items.
    fn build_raw(model: &CostModel, items: &[Item]) -> (SegTree, Vec<Vec<Item>>) {
        SegTree::build(
            model,
            items,
            |&(lo, hi, _)| (lo, hi),
            |_, g| g.into_vecs().collect(),
        )
    }

    fn stab_brute(items: &[Item], q: f64) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|&&(lo, hi, _)| lo <= q && q <= hi)
            .map(|&(_, _, w)| w)
            .collect();
        v.sort_unstable();
        v
    }

    fn stab_tree(tree: &SegTree, sums: &[Vec<Item>], q: f64) -> Vec<u64> {
        let mut v = Vec::new();
        tree.for_each_on_path(q, &mut |s| {
            // Canonical decomposition: EVERY item in a path summary contains q.
            for &(lo, hi, w) in &sums[s] {
                assert!(lo <= q && q <= hi, "non-stabbing item in path node");
                v.push(w);
            }
            true
        });
        v.sort_unstable();
        v
    }

    fn random_items(n: u64, seed: u64) -> Vec<Item> {
        let mut x = seed;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000) as f64 / 10.0
        };
        (0..n)
            .map(|i| {
                let a = rnd();
                let b = if i % 7 == 0 { a } else { rnd() };
                (a.min(b), a.max(b), i + 1)
            })
            .collect()
    }

    #[test]
    fn canonical_decomposition_is_exact() {
        let model = CostModel::ram();
        let items = vec![
            (0.0, 10.0, 1u64),
            (2.0, 3.0, 2),
            (3.0, 7.0, 3),
            (5.0, 5.0, 4),
            (-4.0, -1.0, 5),
            (8.0, 12.0, 6),
        ];
        let (tree, sums) = build_raw(&model, &items);
        for q in [
            -5.0, -4.0, -2.5, -1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 8.0, 10.0,
            11.0, 12.0, 13.0,
        ] {
            assert_eq!(stab_tree(&tree, &sums, q), stab_brute(&items, q), "q={q}");
        }
    }

    #[test]
    fn randomized_against_brute() {
        let model = CostModel::ram();
        let items = random_items(400, 1234);
        let (tree, sums) = build_raw(&model, &items);
        for (_, _, w) in random_items(200, 99) {
            let q = w as f64 / 2.0 - 1.0;
            assert_eq!(stab_tree(&tree, &sums, q), stab_brute(&items, q), "q={q}");
        }
    }

    #[test]
    fn items_land_in_exactly_the_canonical_nodes_of_their_span() {
        let model = CostModel::ram();
        let items = random_items(300, 77);
        let (tree, sums) = build_raw(&model, &items);
        // Leaf range of every heap node, and the span of every item.
        let range = |u: usize| {
            let depth = u.ilog2() as usize;
            let width = tree.n_leaves >> depth;
            let first = (u << (tree.n_leaves.ilog2() as usize - depth)) - tree.n_leaves;
            (first, first + width - 1)
        };
        let span = |&(lo, hi, _): &Item| {
            (
                2 * lower_index(&tree.xs, lo) + 1,
                2 * lower_index(&tree.xs, hi) + 1,
            )
        };
        let covers = |(a, b): (usize, usize), (l, r): (usize, usize)| a <= l && r <= b;
        let mut seen = vec![Vec::new(); items.len()];
        for (u, &s) in tree.slot.iter().enumerate() {
            if s == EMPTY {
                continue;
            }
            for item in &sums[s as usize] {
                seen[(item.2 - 1) as usize].push(u);
            }
        }
        for (item, nodes) in items.iter().zip(&seen) {
            // Canonical = covered by the span while the parent is not.
            let want: Vec<usize> = (1..tree.slot.len())
                .filter(|&u| {
                    covers(span(item), range(u)) && (u == 1 || !covers(span(item), range(u / 2)))
                })
                .collect();
            assert_eq!(nodes, &want, "item {item:?}");
        }
    }

    #[test]
    fn slots_are_dense_and_consistent() {
        let model = CostModel::ram();
        let items = random_items(500, 5);
        let (tree, sums) = build_raw(&model, &items);
        let used: Vec<u32> = tree.slot.iter().copied().filter(|&s| s != EMPTY).collect();
        let dense: Vec<u32> = (0..sums.len() as u32).collect();
        assert_eq!(used, dense, "slots 0..s in heap order");
        assert!(
            sums.iter().all(|g| !g.is_empty()),
            "only non-empty nodes get a slot"
        );
        // Within a group, items keep their input order.
        for g in &sums {
            assert!(g.windows(2).all(|w| w[0].2 < w[1].2));
        }
        assert_eq!(
            model.report().writes,
            sums.len() as u64,
            "one write per non-empty node"
        );
    }

    #[test]
    fn each_interval_in_log_nodes() {
        let model = CostModel::ram();
        let n = 1_000;
        let items: Vec<Item> = (0..n)
            .map(|i| (i as f64, (i + n) as f64, i as u64 + 1))
            .collect();
        let (_, sums) = build_raw(&model, &items);
        let total: usize = sums.iter().map(Vec::len).sum();
        // O(n log n) copies: with 2n endpoints the tree has ~4n leaves,
        // log ≈ 12; allow 4× slack.
        let bound = (n as f64) * (4.0 * n as f64).log2() * 4.0;
        assert!((total as f64) < bound, "total copies {total} > {bound}");
    }

    #[test]
    fn empty_tree() {
        let model = CostModel::ram();
        let (tree, sums) = build_raw(&model, &[]);
        assert!(tree.is_empty());
        assert!(sums.is_empty());
        assert_eq!(tree.space_blocks(), 0);
        let mut visited = 0;
        tree.for_each_on_path(1.0, &mut |_| {
            visited += 1;
            true
        });
        assert_eq!(visited, 0);
        assert_eq!(model.report().writes, 0);
    }

    #[test]
    fn point_intervals() {
        let model = CostModel::ram();
        let items = vec![(5.0, 5.0, 1u64), (5.0, 5.0, 2)];
        // Degenerate [5,5] intervals stab only q = 5: both land in the one
        // leaf of the point 5.
        let (tree, sums) = build_raw(&model, &items);
        assert_eq!(sums, vec![items.clone()]);
        assert_eq!(stab_tree(&tree, &sums, 5.0), vec![1, 2]);
        assert_eq!(stab_tree(&tree, &sums, 4.999), Vec::<u64>::new());
        assert_eq!(stab_tree(&tree, &sums, 5.001), Vec::<u64>::new());
    }

    #[test]
    fn early_stop() {
        let model = CostModel::ram();
        let items: Vec<Item> = (0..50).map(|i| (0.0, 100.0, i + 1)).collect();
        let (tree, _) = build_raw(&model, &items);
        let mut nodes = 0;
        tree.for_each_on_path(50.0, &mut |_| {
            nodes += 1;
            false
        });
        assert_eq!(nodes, 1);
    }
}
