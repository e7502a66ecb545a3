//! CART-style regression trees.
//!
//! The bagging ensemble used as Lynceus' default surrogate is built out of
//! *random* regression trees: each tree is trained on a bootstrap resample of
//! the training set and, optionally, considers only a random subset of the
//! features at every split (the Weka `RandomTree` behaviour). The splitting
//! criterion is variance reduction, the standard CART criterion for
//! regression.

use crate::model::{FeatureMatrix, Prediction, Surrogate, TrainingSet};
use lynceus_math::rng::SeededRng;
use serde::{Deserialize, Serialize};

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    /// Internal split: go left when `features[feature] <= threshold`.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf: predict the mean of the samples that reached it.
    Leaf { value: f64, count: usize },
}

/// Sentinel in [`FlatNodes::feature`] marking a leaf.
const FLAT_LEAF: u32 = u32::MAX;

/// The flat struct-of-arrays form of a fitted tree, derived from the
/// pointer/enum [`Node`] representation at fit time and used by every hot
/// traversal.
///
/// Nodes are renumbered so a split's two children are *adjacent*
/// (`child[n]` and `child[n] + 1`), which turns descent into an arithmetic
/// select — `node = child[n] + (features[feature[n]] > threshold[n])` — with
/// no enum discriminant to decode and no branch to mispredict on the
/// left/right decision. Leaves reuse the `threshold` lane for their value,
/// so one cache line of `threshold` serves both node kinds.
///
/// The pointer form in [`RegressionTree::nodes`] stays the authoritative
/// (and serialized) representation; this table is a derived cache, excluded
/// from equality so flat-carrying and pointer-only fits of the same data
/// still compare equal.
#[derive(Debug, Clone, Default)]
struct FlatNodes {
    /// Split feature per node; [`FLAT_LEAF`] marks a leaf.
    feature: Vec<u32>,
    /// Split threshold per split node; the leaf *value* per leaf node.
    threshold: Vec<f64>,
    /// Base index of the node's two adjacent children (left child at
    /// `child[n]`, right child at `child[n] + 1`); 0 (never read) for
    /// leaves.
    child: Vec<u32>,
}

impl FlatNodes {
    /// Builds the flat table from the pointer nodes, renumbering so each
    /// split's children are adjacent.
    fn build(nodes: &[Node]) -> Self {
        let mut flat = Self {
            feature: vec![0; nodes.len()],
            threshold: vec![0.0; nodes.len()],
            child: vec![0; nodes.len()],
        };
        if nodes.is_empty() {
            return flat;
        }
        let mut next = 1u32;
        flat.place(nodes, 0, 0, &mut next);
        flat
    }

    /// Writes pointer node `ptr` at flat slot `slot` and places its
    /// subtree, handing out adjacent child pairs from `next` (right subtree
    /// first). Recursion depth is the tree depth, like the build's.
    fn place(&mut self, nodes: &[Node], ptr: usize, slot: usize, next: &mut u32) {
        match &nodes[ptr] {
            Node::Leaf { value, .. } => {
                self.feature[slot] = FLAT_LEAF;
                self.threshold[slot] = *value;
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let base = *next;
                *next += 2;
                self.feature[slot] = u32::try_from(*feature).expect("feature index exceeds u32");
                self.threshold[slot] = *threshold;
                self.child[slot] = base;
                self.place(nodes, *right, base as usize + 1, next);
                self.place(nodes, *left, base as usize, next);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.feature.is_empty()
    }

    /// Branchless-select descent of one row. Matches the pointer walk bit
    /// for bit: out-of-range features read as 0.0 and a NaN comparison is
    /// false, so `!(x <= threshold)` sends NaN right exactly like the
    /// pointer form's `if x <= threshold { left } else { right }`.
    // The negated partial-ord comparison is the point: `partial_cmp` would
    // reintroduce a branch and obscure the NaN-goes-right equivalence.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn descend(&self, features: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            let feature = self.feature[node];
            if feature == FLAT_LEAF {
                return self.threshold[node];
            }
            let x = features.get(feature as usize).copied().unwrap_or(0.0);
            node = self.child[node] as usize + usize::from(!(x <= self.threshold[node]));
        }
    }

    /// Block traversal: descends `rows` through the tree four at a time.
    /// The four in-flight descents are independent memory chains, so the
    /// loads of one lane overlap the latency of the others; each row's
    /// value is computed independently (no accumulation), so the result is
    /// position-for-position identical to calling [`FlatNodes::descend`]
    /// per row.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // same NaN semantic as `descend`
    fn descend_rows_into(&self, features: &FeatureMatrix, rows: &[usize], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        let mut row_chunks = rows.chunks_exact(4);
        let mut out_chunks = out.chunks_exact_mut(4);
        for (row4, out4) in (&mut row_chunks).zip(&mut out_chunks) {
            let lanes = [
                features.row(row4[0]),
                features.row(row4[1]),
                features.row(row4[2]),
                features.row(row4[3]),
            ];
            let mut node = [0usize; 4];
            loop {
                let mut active = false;
                for lane in 0..4 {
                    let feature = self.feature[node[lane]];
                    if feature != FLAT_LEAF {
                        active = true;
                        let x = lanes[lane].get(feature as usize).copied().unwrap_or(0.0);
                        node[lane] = self.child[node[lane]] as usize
                            + usize::from(!(x <= self.threshold[node[lane]]));
                    }
                }
                if !active {
                    break;
                }
            }
            for lane in 0..4 {
                out4[lane] = self.threshold[node[lane]];
            }
        }
        for (slot, &row) in out_chunks
            .into_remainder()
            .iter_mut()
            .zip(row_chunks.remainder())
        {
            *slot = self.descend(features.row(row));
        }
    }
}

/// A regression tree with variance-reduction splits.
///
/// # Example
///
/// ```
/// use lynceus_learners::{RegressionTree, Surrogate, TrainingSet};
///
/// let mut data = TrainingSet::new(1);
/// for i in 0..16 {
///     let x = i as f64;
///     data.push(vec![x], if x < 8.0 { 1.0 } else { 100.0 });
/// }
/// let mut tree = RegressionTree::new();
/// tree.fit(&data);
/// assert!(tree.predict(&[2.0]).mean < 10.0);
/// assert!(tree.predict(&[14.0]).mean > 50.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    max_depth: usize,
    min_samples_leaf: usize,
    /// Number of features examined at each split; `None` means all of them.
    feature_subsample: Option<usize>,
    seed: u64,
    nodes: Vec<Node>,
    /// Derived struct-of-arrays traversal cache (see [`FlatNodes`]), built
    /// by the optimized fit path; empty on pointer-only fits
    /// ([`RegressionTree::fit_reference`]). Never serialized or compared:
    /// the pointer `nodes` stay the authoritative representation.
    flat: FlatNodes,
    /// Derived root orders of the resample, one lane of `|resample|`
    /// positions per feature (lane `f` at `f·n..(f + 1)·n`), each lane the
    /// resample's positions in stable `total_cmp` order of feature `f`. An
    /// incremental refit merges its appended draws into these instead of
    /// sorting again (see [`RegressionTree::fit_indexed`] for the whole
    /// lifecycle). Empty on unfitted and reference fits; never serialized
    /// or compared, like `flat`.
    presorted: Vec<u32>,
    fitted: bool,
}

/// Equality over the authoritative state only: the derived `FlatNodes`
/// and `presorted` caches are excluded, so an optimized fit (which carries
/// both) and a reference fit of the same data still compare equal — the
/// `reference_build_is_bit_identical` test depends on this.
impl PartialEq for RegressionTree {
    fn eq(&self, other: &Self) -> bool {
        self.max_depth == other.max_depth
            && self.min_samples_leaf == other.min_samples_leaf
            && self.feature_subsample == other.feature_subsample
            && self.seed == other.seed
            && self.nodes == other.nodes
            && self.fitted == other.fitted
    }
}

impl Default for RegressionTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RegressionTree {
    /// Creates a tree with the default hyper-parameters (unbounded depth
    /// capped at 32, leaves of at least one sample, all features considered at
    /// every split).
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_depth: 32,
            min_samples_leaf: 1,
            feature_subsample: None,
            seed: 0,
            nodes: Vec::new(),
            flat: FlatNodes::default(),
            presorted: Vec::new(),
            fitted: false,
        }
    }

    /// Sets the maximum tree depth.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Sets the minimum number of samples per leaf.
    #[must_use]
    pub fn with_min_samples_leaf(mut self, min: usize) -> Self {
        self.min_samples_leaf = min.max(1);
        self
    }

    /// Considers only `k` randomly chosen features at each split (the
    /// "random tree" behaviour used inside bagging ensembles).
    #[must_use]
    pub fn with_feature_subsample(mut self, k: usize) -> Self {
        self.feature_subsample = Some(k.max(1));
        self
    }

    /// Sets the seed driving the random feature selection.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fits the tree on a multiset of observations: `indices` lists rows of
    /// `data`, possibly with repetitions (the shape produced by bootstrap
    /// resampling — a row drawn `k` times appears `k` times). An empty index
    /// list leaves the tree unfitted.
    ///
    /// # Construction
    ///
    /// A position `p` names the `p`-th entry of `indices`. Every node of
    /// the tree scans each candidate feature in `(value, position)` order —
    /// `total_cmp` on the value, ties by position — which is the order a
    /// stable sort of the node's samples by value gives (the retained
    /// [`RegressionTree::fit_reference`] sorts every node that way). Those
    /// orders are computed once per fit, at the root:
    ///
    /// 1. *Root orders* (`presorted`). With no parent, one sort per feature
    ///    orders the positions `0..n`. When [`BaggingEnsemble::refit_with`]
    ///    rebuilds a member whose resample is its old resample followed by
    ///    new draws, it passes the old tree as the parent: the appended
    ///    positions are sorted among themselves and merged into the
    ///    parent's lanes, old positions first on value ties.
    /// 2. *Working lanes.* The build copies the root orders, plus the node
    ///    index list (positions `0..n`, in position order), into one
    ///    buffer, and reads values and targets from columns gathered by
    ///    position once per fit. A node owns the same contiguous range
    ///    `lo..hi` of every lane.
    /// 3. *Partition, never sort.* After a split, a flag per position marks
    ///    the samples going left, and one stable partition runs over the
    ///    node's range of each lane: left samples first, both sides in
    ///    their previous order. It writes into a second set of lanes, so
    ///    the two sets alternate by depth and nothing is copied back. The
    ///    children recurse on the two halves; when both are leaves by depth
    ///    or size, only the index lane is partitioned.
    ///
    /// Bit-identity: a stable partition of a list ordered by `(value,
    /// position)` leaves each side ordered by `(value, position)`, so every
    /// node scans the very sequence a stable per-node sort would produce.
    /// The index lane stays in position order, so the node mean sums its
    /// targets in the same order too; every sum, tie skip and threshold is
    /// the same float. The stored lanes are kept on the fitted tree (they
    /// are the next refit's parent orders) and dropped by the next fit,
    /// [`Surrogate::fresh_clone`] and reference fits.
    ///
    /// [`BaggingEnsemble::refit_with`]: crate::BaggingEnsemble::refit_with
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the resample has more than
    /// `u32::MAX` entries.
    pub fn fit_indexed(&mut self, data: &TrainingSet, indices: &[usize]) {
        self.fit_extending(data, indices, None);
    }

    /// [`RegressionTree::fit_indexed`], merging the root orders from
    /// `parent` instead of sorting: only the appended positions are sorted.
    /// `parent` must be a tree fitted by this path on a prefix of
    /// `indices`, over the same leading rows of `data` — the member tree
    /// that [`crate::BaggingEnsemble::refit_with`] replaces. The fitted
    /// tree is then the one `fit_indexed` builds, bit for bit. A parent
    /// without orders (unfitted, reference-fitted, or fitted on more
    /// positions than `indices` has) and `None` mean a sort. A parent that
    /// breaks the prefix requirement yields an unspecified tree; debug
    /// builds check the requirement and panic.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RegressionTree::fit_indexed`].
    pub fn fit_extending(
        &mut self,
        data: &TrainingSet,
        indices: &[usize],
        parent: Option<&RegressionTree>,
    ) {
        self.nodes.clear();
        self.flat = FlatNodes::default();
        self.presorted = Vec::new();
        self.fitted = false;
        if indices.is_empty() {
            return;
        }
        assert!(
            indices.iter().all(|&i| i < data.len()),
            "resample index out of range"
        );
        let n = indices.len();
        let dims = data.dims();
        // The resample's columns by position: each feature, then the target.
        let mut columns = Vec::with_capacity((dims + 1) * n);
        for feature in 0..dims {
            columns.extend(indices.iter().map(|&i| data.feature(i, feature)));
        }
        columns.extend(indices.iter().map(|&i| data.targets()[i]));
        self.presorted = root_orders(&columns[..dims * n], n, parent);
        // One buffer for every working lane (see `BuildWorkspace`).
        let mut lanes = Vec::with_capacity((2 * dims + 3) * n);
        lanes.extend_from_slice(&self.presorted);
        lanes.extend(0..to_position(n));
        lanes.resize((2 * dims + 3) * n, 0);
        let mut workspace = BuildWorkspace {
            columns,
            lanes,
            n,
            features: Vec::with_capacity(dims),
        };
        let mut rng = SeededRng::new(self.seed);
        // Every leaf holds at least one index, so a binary tree over the
        // resample has at most `2·|indices| − 1` nodes: one reservation
        // instead of a growth step per doubling.
        self.nodes.reserve(2 * n - 1);
        let root = self.build(dims, 0..n, 0, &mut rng, &mut workspace);
        debug_assert_eq!(root, 0, "the root must be the first node");
        // Flatten once per fit: every subsequent traversal of the tree runs
        // on the contiguous table instead of chasing enum nodes.
        self.flat = FlatNodes::build(&self.nodes);
        self.fitted = true;
    }

    /// The original (pre-overhaul) tree construction, retained verbatim so
    /// the optimizer's naive reference engine and the speedup benchmarks
    /// measure the cost profile the speculation-engine rewrite replaced:
    /// one heap-allocated feature vector per observation (the original
    /// training-set layout), a materialized target vector, per-feature
    /// `(value, target)` collections and prefix-sum arrays allocated at
    /// every node.
    ///
    /// Produces **bit-identical** nodes to [`Surrogate::fit`] on the same
    /// observations (the optimized build performs the same arithmetic in
    /// the same order, just flat and without the allocations); asserted by
    /// the `reference_build_is_bit_identical` test.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `targets` have different lengths.
    pub fn fit_reference(&mut self, rows: &[Vec<f64>], targets: &[f64]) {
        assert_eq!(rows.len(), targets.len(), "one target per row");
        self.nodes.clear();
        // No flat table and no presorted orders: reference-fitted trees
        // keep the original pointer-walk cost profile the benchmarks compare
        // against, and a refit from one of them sorts from scratch.
        self.flat = FlatNodes::default();
        self.presorted = Vec::new();
        self.fitted = false;
        if rows.is_empty() {
            return;
        }
        let indices: Vec<usize> = (0..rows.len()).collect();
        let mut rng = SeededRng::new(self.seed);
        let root = self.build_reference(rows, targets, &indices, 0, &mut rng);
        debug_assert_eq!(root, 0, "the root must be the first node");
        self.fitted = true;
    }

    /// The retained original node construction behind
    /// [`RegressionTree::fit_reference`].
    #[allow(clippy::too_many_lines)]
    fn build_reference(
        &mut self,
        rows: &[Vec<f64>],
        all_targets: &[f64],
        indices: &[usize],
        depth: usize,
        rng: &mut SeededRng,
    ) -> usize {
        let targets: Vec<f64> = indices.iter().map(|&i| all_targets[i]).collect();
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                value: mean,
                count: indices.len(),
            });
            nodes.len() - 1
        };

        if depth >= self.max_depth
            || indices.len() < 2 * self.min_samples_leaf
            || targets.iter().all(|&t| (t - targets[0]).abs() < 1e-12)
        {
            return make_leaf(&mut self.nodes);
        }

        let dims = rows[0].len();
        let candidate_features: Vec<usize> = match self.feature_subsample {
            Some(k) if k < dims => rng.sample_indices(dims, k),
            _ => (0..dims).collect(),
        };

        let parent_sse: f64 = targets.iter().map(|t| (t - mean) * (t - mean)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in &candidate_features {
            let mut values: Vec<(f64, f64)> = indices
                .iter()
                .map(|&i| (rows[i][feature], all_targets[i]))
                .collect();
            values.sort_by(|a, b| a.0.total_cmp(&b.0));

            // Prefix sums over the sorted order let us evaluate every split
            // in O(n) per feature.
            let n = values.len();
            let mut prefix_sum = vec![0.0; n + 1];
            let mut prefix_sq = vec![0.0; n + 1];
            for (i, &(_, t)) in values.iter().enumerate() {
                prefix_sum[i + 1] = prefix_sum[i] + t;
                prefix_sq[i + 1] = prefix_sq[i] + t * t;
            }
            for split in self.min_samples_leaf..=(n - self.min_samples_leaf) {
                if split == 0 || split == n {
                    continue;
                }
                // Only split between distinct feature values.
                if (values[split - 1].0 - values[split].0).abs() < 1e-12 {
                    continue;
                }
                let left_n = split as f64;
                let right_n = (n - split) as f64;
                let left_sum = prefix_sum[split];
                let right_sum = prefix_sum[n] - left_sum;
                let left_sq = prefix_sq[split];
                let right_sq = prefix_sq[n] - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n;
                let right_sse = right_sq - right_sum * right_sum / right_n;
                let total = left_sse + right_sse;
                if best.map_or(total < parent_sse - 1e-12, |(_, _, b)| total < b) {
                    let threshold = 0.5 * (values[split - 1].0 + values[split].0);
                    best = Some((feature, threshold, total));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| rows[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(&mut self.nodes);
        }

        // Reserve this node's slot before recursing so children indices are
        // stable.
        self.nodes.push(Node::Leaf {
            value: mean,
            count: indices.len(),
        });
        let me = self.nodes.len() - 1;
        let left = self.build_reference(rows, all_targets, &left_idx, depth + 1, rng);
        let right = self.build_reference(rows, all_targets, &right_idx, depth + 1, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// The point prediction at a feature vector (0 for an unfitted tree).
    ///
    /// This is the allocation-free core of [`Surrogate::predict`], exposed so
    /// ensembles can traverse tree-major without building a [`Prediction`]
    /// per member. Runs on the flat struct-of-arrays table when the tree
    /// carries one (every optimized fit does), falling back to the pointer
    /// walk otherwise; the two are bit-identical
    /// (`flat_descent_is_bit_identical_to_pointer_descent`).
    #[must_use]
    pub fn predict_value(&self, features: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        if self.flat.is_empty() {
            return self.predict_value_pointer(features);
        }
        self.flat.descend(features)
    }

    /// The original pointer/enum descent (0 for an unfitted tree), retained
    /// as the comparison baseline for the flat traversal: the equivalence
    /// sweeps pin [`RegressionTree::predict_value`] bit-identical to this
    /// walk, and the `micro_components` bench measures the flat speedup
    /// against it.
    #[must_use]
    pub fn predict_value_pointer(&self, features: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Fills `out[i]` with the point prediction at row `rows[i]` of the
    /// matrix — the block-traversal form of [`RegressionTree::predict_value`]:
    /// the whole row block descends through this one tree (four rows in
    /// flight at a time on the flat table) before the caller moves to the
    /// next tree, keeping the tree's node table hot in cache for the whole
    /// block. Position-for-position bit-identical to calling
    /// [`RegressionTree::predict_value`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` have different lengths.
    pub fn predict_values_into(&self, features: &FeatureMatrix, rows: &[usize], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "one output slot per row");
        if !self.fitted {
            out.fill(0.0);
            return;
        }
        if self.flat.is_empty() {
            for (slot, &row) in out.iter_mut().zip(rows) {
                *slot = self.predict_value_pointer(features.row(row));
            }
        } else {
            self.flat.descend_rows_into(features, rows, out);
        }
    }

    /// Builds the subtree of the samples at positions `range` of every
    /// working lane (see [`RegressionTree::fit_indexed`]).
    fn build(
        &mut self,
        dims: usize,
        range: std::ops::Range<usize>,
        depth: usize,
        rng: &mut SeededRng,
        workspace: &mut BuildWorkspace,
    ) -> usize {
        let BuildWorkspace {
            columns,
            lanes,
            n,
            features,
        } = workspace;
        let n = *n;
        // This node's lanes are in the group of its depth's parity; the
        // partition writes its children's lanes into the other group.
        let group = (dims + 1) * n;
        let (groups, flags) = lanes.split_at_mut(2 * group);
        let (even, odd) = groups.split_at_mut(group);
        let (current, next) = if depth.is_multiple_of(2) {
            (&*even, odd)
        } else {
            (&*odd, even)
        };
        let (orders, members) = current.split_at(dims * n);
        let (values, targets) = columns.split_at(dims * n);
        let len = range.len();
        let target_of = |p: u32| targets[p as usize];

        // Aggregate the node's targets in position order (the same
        // accumulation order a materialized target vector would produce).
        let node = &members[range.clone()];
        let mean = node.iter().map(|&p| target_of(p)).sum::<f64>() / len as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                value: mean,
                count: len,
            });
            nodes.len() - 1
        };

        let first_target = target_of(node[0]);
        if depth >= self.max_depth
            || len < 2 * self.min_samples_leaf
            || node
                .iter()
                .all(|&p| (target_of(p) - first_target).abs() < 1e-12)
        {
            return make_leaf(&mut self.nodes);
        }

        // `features` is reusable: split selection finishes before the
        // recursion below, so one buffer serves every node of the tree.
        match self.feature_subsample {
            Some(k) if k < dims => rng.sample_indices_into(dims, k, features),
            _ => {
                features.clear();
                features.extend(0..dims);
            }
        }

        let parent_sse: f64 = node
            .iter()
            .map(|&p| {
                let d = target_of(p) - mean;
                d * d
            })
            .sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in features.iter() {
            // The node's samples in (value, position) order: its range of
            // the feature's lane, kept ordered by partitioning alone.
            let order = &orders[feature * n..(feature + 1) * n][range.clone()];
            let value_of = |p: u32| values[feature * n + p as usize];

            // Running sums over the sorted order evaluate every split in
            // O(n) per feature without materializing prefix arrays; the
            // accumulation order (and hence every float) is identical to the
            // prefix-array formulation.
            let mut total_sum = 0.0;
            let mut total_sq = 0.0;
            for &p in order {
                let t = target_of(p);
                total_sum += t;
                total_sq += t * t;
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut upper = value_of(order[0]);
            for split in 1..len {
                let t = target_of(order[split - 1]);
                left_sum += t;
                left_sq += t * t;
                let lower = upper;
                upper = value_of(order[split]);
                if split < self.min_samples_leaf || split > len - self.min_samples_leaf {
                    continue;
                }
                // Only split between distinct feature values.
                if (lower - upper).abs() < 1e-12 {
                    continue;
                }
                let left_n = split as f64;
                let right_n = (len - split) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n;
                let right_sse = right_sq - right_sum * right_sum / right_n;
                let total = left_sse + right_sse;
                if best.map_or(total < parent_sse - 1e-12, |(_, _, b)| total < b) {
                    let threshold = 0.5 * (lower + upper);
                    best = Some((feature, threshold, total));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let mut left_len = 0usize;
        let split_values = &values[feature * n..(feature + 1) * n];
        for &p in node {
            let left = split_values[p as usize] <= threshold;
            flags[p as usize] = u32::from(left);
            left_len += usize::from(left);
        }
        if left_len == 0 || left_len == len {
            return make_leaf(&mut self.nodes);
        }
        // A child reads the feature lanes only if it may split; when both
        // are leaves by depth or size, only the index lane (the last lane
        // of a group, hence `rev`) is needed.
        let child_may_split =
            depth + 1 < self.max_depth && left_len.max(len - left_len) >= 2 * self.min_samples_leaf;
        let lanes_needed = if child_may_split { dims + 1 } else { 1 };
        for (from, to) in current
            .chunks_exact(n)
            .zip(next.chunks_exact_mut(n))
            .rev()
            .take(lanes_needed)
        {
            partition_by_flags(
                &from[range.clone()],
                &mut to[range.clone()],
                flags,
                left_len,
            );
        }

        // Reserve this node's slot before recursing so children indices are
        // stable.
        self.nodes.push(Node::Leaf {
            value: mean,
            count: len,
        });
        let me = self.nodes.len() - 1;
        let middle = range.start + left_len;
        let left = self.build(dims, range.start..middle, depth + 1, rng, workspace);
        let right = self.build(dims, middle..range.end, depth + 1, rng, workspace);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }
}

#[cfg(test)]
impl RegressionTree {
    /// Asserts `self` and `other` are the same fit down to the derived
    /// caches: equal nodes (the `PartialEq` state), the same flat table bit
    /// for bit, and the same presorted root orders.
    pub(crate) fn assert_same_fit(&self, other: &Self, context: &str) {
        assert_eq!(self, other, "nodes differ: {context}");
        let bits =
            |t: &Self| -> Vec<u64> { t.flat.threshold.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(
            self.flat.feature, other.flat.feature,
            "flat features differ: {context}"
        );
        assert_eq!(bits(self), bits(other), "flat thresholds differ: {context}");
        assert_eq!(
            self.flat.child, other.flat.child,
            "flat children differ: {context}"
        );
        assert_eq!(
            self.presorted, other.presorted,
            "presorted orders differ: {context}"
        );
    }
}

/// The sort key of resample position `position` with feature value
/// `value`: the `f64::total_cmp` order of the value as an unsigned integer
/// (flip every bit of a negative value, the sign bit of any other), above
/// the position. Integer order of the keys is `(value, position)` order.
fn sort_key(value: f64, position: u32) -> u128 {
    let bits = value.to_bits();
    let negative_mask = ((bits as i64) >> 63) as u64;
    let ordered = bits ^ (negative_mask | 1 << 63);
    (u128::from(ordered) << 32) | u128::from(position)
}

/// `n` as a resample position (positions are stored as `u32`).
fn to_position(n: usize) -> u32 {
    u32::try_from(n).expect("resample exceeds u32 positions")
}

/// The root orders of a fit over `n` resample positions (the `presorted`
/// lanes), from the feature `columns` (`n` values by position per
/// feature): per feature, the positions `0..n` in `(total_cmp value,
/// position)` order.
///
/// With no usable `parent`, each feature's positions are sorted. With a
/// `parent` carrying lanes over the first `n_p` positions, only the
/// appended positions `n_p..n` are sorted, then merged into each parent
/// lane with old positions first on value ties. Either source gives the
/// same lanes. The sorts run on [`sort_key`]s: distinct integers, so the
/// unstable sort is the stable sort by value, and it never allocates.
fn root_orders(columns: &[f64], n: usize, parent: Option<&RegressionTree>) -> Vec<u32> {
    let dims = columns.len() / n;
    let parent_lanes = parent.map_or(&[][..], |tree| &tree.presorted[..]);
    let parent_len = parent_lanes.len() / dims;
    let merge = parent_len > 0 && parent_len * dims == parent_lanes.len() && parent_len <= n;
    let sorted_from = if merge { parent_len } else { 0 };
    let mut keys = Vec::with_capacity(n - sorted_from);
    let mut orders = Vec::with_capacity(dims * n);
    for (feature, column) in columns.chunks_exact(n).enumerate() {
        keys.clear();
        keys.extend((sorted_from..n).map(|p| sort_key(column[p], to_position(p))));
        keys.sort_unstable();
        let sorted = keys.iter().map(|&key| key as u32);
        if !merge {
            orders.extend(sorted);
            continue;
        }
        let key_of = |p: u32| sort_key(column[p as usize], p);
        let old = &parent_lanes[feature * parent_len..(feature + 1) * parent_len];
        debug_assert!(
            old.iter().all(|&p| (p as usize) < parent_len)
                && old.windows(2).all(|w| key_of(w[0]) < key_of(w[1])),
            "the parent's orders are not the orders of a prefix of this resample"
        );
        let mut rest = old;
        for new in sorted {
            let key = key_of(new);
            // Old positions precede `new` on ties (their keys are smaller):
            // take every old position ordered before it.
            let take = rest.partition_point(|&p| key_of(p) < key);
            orders.extend_from_slice(&rest[..take]);
            orders.push(new);
            rest = &rest[take..];
        }
        orders.extend_from_slice(rest);
    }
    orders
}

/// Branch-free stable partition of `from` into `to` by `flags[item]`
/// (1 = left), given the number of left items: left items first, then the
/// rest, both sides keeping their relative order.
fn partition_by_flags(from: &[u32], to: &mut [u32], flags: &[u32], left_len: usize) {
    let (mut left, mut right) = (0usize, left_len);
    for &item in from {
        let goes_left = flags[item as usize] as usize;
        let slot = if goes_left == 1 { left } else { right };
        to[slot] = item;
        left += goes_left;
        right += 1 - goes_left;
    }
}

/// Working state of one optimized tree construction, sized once per fit,
/// so building a tree allocates the same number of times whatever its node
/// count (pinned by `tests/alloc_budget.rs`).
struct BuildWorkspace {
    /// The resample gathered by position, `(dims + 1)·n` values: one column
    /// per feature, then the targets. Nodes read a sample's value and target
    /// here instead of through `indices` into the training set.
    columns: Vec<f64>,
    /// One allocation of `(2·dims + 3)·n` resample positions: two groups
    /// of `dims` feature lanes plus a node index lane, then the left/right
    /// flag lane (indexed by position). Nodes at even depths read group 0
    /// and partition into group 1, odd depths the reverse; group 0 starts
    /// as the root orders and the positions `0..n`.
    lanes: Vec<u32>,
    /// Resample size `n`: the length of every lane.
    n: usize,
    /// Split candidates of the node under consideration (the random feature
    /// subset, or every feature).
    features: Vec<usize>,
}

impl Surrogate for RegressionTree {
    fn fit(&mut self, data: &TrainingSet) {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_indexed(data, &indices);
    }

    fn predict(&self, features: &[f64]) -> Prediction {
        Prediction::certain(self.predict_value(features))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn fresh_clone(&self) -> Box<dyn Surrogate> {
        let mut clone = self.clone();
        clone.nodes.clear();
        clone.flat = FlatNodes::default();
        clone.presorted = Vec::new();
        clone.fitted = false;
        Box::new(clone)
    }

    fn predict_rows(
        &self,
        features: &crate::model::FeatureMatrix,
        rows: &[usize],
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        out.extend(
            rows.iter()
                .map(|&r| Prediction::certain(self.predict_value(features.row(r)))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> TrainingSet {
        let mut data = TrainingSet::new(2);
        for i in 0..20 {
            let x = i as f64;
            let y = if x < 10.0 { 5.0 } else { 50.0 };
            data.push(vec![x, 0.0], y);
        }
        data
    }

    #[test]
    fn learns_a_step_function() {
        let mut tree = RegressionTree::new();
        tree.fit(&step_data());
        assert!(tree.is_fitted());
        assert!((tree.predict(&[3.0, 0.0]).mean - 5.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0, 0.0]).mean - 50.0).abs() < 1e-9);
    }

    #[test]
    fn interpolates_training_points_exactly_with_deep_tree() {
        let mut data = TrainingSet::new(1);
        for i in 0..10 {
            data.push(vec![i as f64], (i * i) as f64);
        }
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        for i in 0..10 {
            let p = tree.predict(&[i as f64]);
            assert!(
                (p.mean - (i * i) as f64).abs() < 1e-9,
                "prediction at {i} was {}",
                p.mean
            );
        }
    }

    #[test]
    fn depth_limit_produces_a_stump() {
        let mut tree = RegressionTree::new().with_max_depth(1);
        tree.fit(&step_data());
        // A depth-1 tree has at most 3 nodes: root + two leaves.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let mut tree = RegressionTree::new().with_min_samples_leaf(10);
        let data = step_data();
        tree.fit(&data);
        // With 20 samples and 10 per leaf, only one split is possible.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn unfitted_and_empty_fits_predict_zero() {
        let tree = RegressionTree::new();
        assert!(!tree.is_fitted());
        assert_eq!(tree.predict(&[1.0]).mean, 0.0);
        let mut tree = RegressionTree::new();
        tree.fit(&TrainingSet::new(1));
        assert!(!tree.is_fitted());
    }

    #[test]
    fn constant_targets_yield_a_single_leaf() {
        let mut data = TrainingSet::new(1);
        for i in 0..8 {
            data.push(vec![i as f64], 7.0);
        }
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[3.0]).mean, 7.0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let mut data = TrainingSet::new(3);
        for i in 0..30 {
            let x = i as f64;
            data.push(vec![x, -x, x * 2.0], if x < 15.0 { 0.0 } else { 10.0 });
        }
        let mut tree = RegressionTree::new().with_feature_subsample(1).with_seed(5);
        tree.fit(&data);
        let low = tree.predict(&[2.0, -2.0, 4.0]).mean;
        let high = tree.predict(&[25.0, -25.0, 50.0]).mean;
        assert!(high > low);
    }

    #[test]
    fn fresh_clone_is_unfitted_but_keeps_hyperparameters() {
        let mut tree = RegressionTree::new().with_max_depth(4);
        tree.fit(&step_data());
        let clone = tree.fresh_clone();
        assert!(!clone.is_fitted());
    }

    #[test]
    fn reference_build_is_bit_identical() {
        use lynceus_math::rng::SeededRng;
        let mut rng = SeededRng::new(77);
        for _ in 0..20 {
            let mut data = TrainingSet::new(3);
            let n = 3 + rng.below(40);
            for _ in 0..n {
                data.push(
                    vec![
                        rng.uniform(-10.0, 10.0),
                        rng.uniform(0.0, 5.0),
                        rng.uniform(-1.0, 1.0),
                    ],
                    rng.uniform(-100.0, 100.0),
                );
            }
            let mut optimized = RegressionTree::new()
                .with_feature_subsample(2)
                .with_seed(rng.next_u64());
            let mut reference = optimized.clone();
            optimized.fit(&data);
            let rows: Vec<Vec<f64>> = data.feature_rows().map(<[f64]>::to_vec).collect();
            reference.fit_reference(&rows, data.targets());
            assert_eq!(optimized, reference, "builds diverged on {n} samples");
        }

        // Tie-heavy sweep, shaped like the TF, Scout and CherryPick spaces:
        // discrete features of at most four levels (one of them ±0.0, which
        // `total_cmp` orders but the split test treats as equal), repeated
        // targets, and Poisson-duplicate resamples through `fit_indexed`.
        // Nearly every candidate split here lands on a tie and is skipped.
        let levels: [&[f64]; 4] = [
            &[-0.0, 0.0, 1.0],
            &[1.0, 2.0, 4.0, 8.0],
            &[0.0, 1.0],
            &[0.5, 1.5, 3.0],
        ];
        for round in 0..60usize {
            let mut data = TrainingSet::new(levels.len());
            let n = 2 + rng.below(60);
            for _ in 0..n {
                let row: Vec<f64> = levels.iter().map(|l| l[rng.below(l.len())]).collect();
                let target = (row[1] * 10.0 + row[3]).floor() + rng.below(3) as f64;
                data.push(row, target);
            }
            // Ascending multiset with repeats, as `BaggingEnsemble` draws it
            // (counts 0–3 per row).
            let indices: Vec<usize> = (0..n)
                .flat_map(|i| std::iter::repeat_n(i, rng.below(4)))
                .collect();
            let mut optimized = RegressionTree::new()
                .with_min_samples_leaf(1 + round % 3)
                .with_seed(rng.next_u64());
            if round % 4 != 0 {
                optimized = optimized.with_feature_subsample(1 + rng.below(levels.len()));
            }
            let mut reference = optimized.clone();
            optimized.fit_indexed(&data, &indices);
            let rows: Vec<Vec<f64>> = indices
                .iter()
                .map(|&i| data.observation(i).0.to_vec())
                .collect();
            let targets: Vec<f64> = indices.iter().map(|&i| data.targets()[i]).collect();
            reference.fit_reference(&rows, &targets);
            assert_eq!(
                optimized,
                reference,
                "tie-heavy builds diverged in round {round} ({} draws)",
                indices.len()
            );
        }
    }

    /// Discrete feature levels shaped like the TF, Scout and CherryPick
    /// spaces: at most four levels, one feature holding ±0.0 (which
    /// `total_cmp` orders but the split test treats as equal).
    const LEVELS: [&[f64]; 5] = [
        &[-0.0, 0.0, 1.0],
        &[1.0, 2.0, 4.0, 8.0],
        &[0.0, 1.0],
        &[0.5, 1.5, 3.0],
        &[2.0, 3.0, 5.0, 7.0],
    ];

    /// Appends one random row over the first `dims` of [`LEVELS`], with a
    /// target that repeats often.
    fn push_level_row(data: &mut TrainingSet, rng: &mut SeededRng) {
        let row: Vec<f64> = LEVELS[..data.dims()]
            .iter()
            .map(|l| l[rng.below(l.len())])
            .collect();
        let target = (row[1] * 10.0 + row[0]).floor() + rng.below(3) as f64;
        data.push(row, target);
    }

    /// The merge path: a tree whose root orders come from its parent's
    /// presorted lanes must be the tree a scratch `fit_indexed` builds on
    /// the extended resample (same nodes, same flat table, same orders) —
    /// and the retained reference build agrees with both. Chains of five
    /// extensions, each appending several distinct rows in unsorted order
    /// with values tying existing ones, Poisson duplicates of every draw,
    /// 5 dims with 4 candidates per split (the draws consume RNG) and 3
    /// dims with all of them (they do not).
    #[test]
    fn presorted_merge_builds_the_scratch_tree() {
        let mut rng = SeededRng::new(0x5E7);
        for round in 0..80usize {
            let (dims, k) = if round % 2 == 0 { (5, 4) } else { (3, 3) };
            let mut data = TrainingSet::new(dims);
            let n0 = 1 + rng.below(30);
            for _ in 0..n0 {
                push_level_row(&mut data, &mut rng);
            }
            let mut resample: Vec<usize> = (0..n0)
                .flat_map(|i| std::iter::repeat_n(i, rng.below(4)))
                .collect();
            let template = RegressionTree::new()
                .with_max_depth(1 + round % 4 + if round % 5 == 0 { 28 } else { 0 })
                .with_min_samples_leaf(1 + rng.below(3))
                .with_feature_subsample(k)
                .with_seed(rng.next_u64());
            let mut parent = template.clone();
            parent.fit_indexed(&data, &resample);
            for step in 0..5 {
                let base = data.len();
                let added = 2 + rng.below(3);
                for _ in 0..added {
                    push_level_row(&mut data, &mut rng);
                }
                // Poisson-style counts; at least one draw so the member is
                // rebuilt, as `refit_with` only rebuilds drawn members.
                for i in base..data.len() {
                    resample.extend(std::iter::repeat_n(i, rng.below(3)));
                }
                if resample.len() == parent.presorted.len() / dims {
                    resample.push(base + rng.below(added));
                }
                let context = format!("round {round}, step {step}, {} draws", resample.len());
                let mut merged = template.clone();
                merged.fit_extending(&data, &resample, Some(&parent));
                let mut scratch = template.clone();
                scratch.fit_indexed(&data, &resample);
                merged.assert_same_fit(&scratch, &context);
                let rows: Vec<Vec<f64>> = resample
                    .iter()
                    .map(|&i| data.feature_row(i).to_vec())
                    .collect();
                let targets: Vec<f64> = resample.iter().map(|&i| data.targets()[i]).collect();
                let mut reference = template.clone();
                reference.fit_reference(&rows, &targets);
                assert_eq!(merged, reference, "reference diverged: {context}");
                parent = merged;
            }
        }
    }

    /// Parents without usable orders fall back to the scratch sort: an
    /// unfitted parent, a reference-fitted one, and a tree fitted on a
    /// longer resample than the one being built.
    #[test]
    fn presorted_merge_ignores_unusable_parents() {
        let mut rng = SeededRng::new(31);
        let mut data = TrainingSet::new(3);
        for _ in 0..24 {
            push_level_row(&mut data, &mut rng);
        }
        let resample: Vec<usize> = (0..24).collect();
        let template = RegressionTree::new().with_seed(9);
        let mut scratch = template.clone();
        scratch.fit_indexed(&data, &resample);

        let unfitted = template.clone();
        let mut reference = template.clone();
        let rows: Vec<Vec<f64>> = data.feature_rows().map(<[f64]>::to_vec).collect();
        reference.fit_reference(&rows[..12], &data.targets()[..12]);
        assert!(reference.presorted.is_empty());
        let mut longer = template.clone();
        let doubled: Vec<usize> = (0..24).chain(0..24).collect();
        longer.fit_indexed(&data, &doubled);
        for (name, parent) in [
            ("unfitted", &unfitted),
            ("reference", &reference),
            ("longer", &longer),
        ] {
            let mut tree = template.clone();
            tree.fit_extending(&data, &resample, Some(parent));
            tree.assert_same_fit(&scratch, name);
        }
    }

    /// A parent fitted on rows that do not start the resample breaks the
    /// merge's requirement; debug builds catch it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the orders of a prefix")]
    fn presorted_merge_rejects_a_parent_of_other_rows_in_debug_builds() {
        let mut data = TrainingSet::new(1);
        for x in [0.0, 1.0, 3.0, 2.0] {
            data.push(vec![x], x);
        }
        let mut parent = RegressionTree::new();
        parent.fit_indexed(&data, &[2, 3]);
        RegressionTree::new().fit_extending(&data, &[0, 1, 2], Some(&parent));
    }

    #[test]
    fn root_orders_are_stable_total_cmp_orders() {
        let mut data = TrainingSet::new(2);
        for (a, b) in [
            (1.0, 0.0),
            (-0.0, 2.0),
            (0.0, 2.0),
            (1.0, -1.0),
            (-0.0, 0.0),
        ] {
            data.push(vec![a, b], a + b);
        }
        let mut tree = RegressionTree::new();
        tree.fit_indexed(&data, &[0, 1, 2, 3, 4, 1]);
        // Feature 0: -0.0 (positions 1, 4, 5) < 0.0 (2) < 1.0 (0, 3).
        // Feature 1: -1.0 (3) < 0.0 (0, 4) < 2.0 (1, 2, 5).
        assert_eq!(tree.presorted, vec![1, 4, 5, 2, 0, 3, 3, 0, 4, 1, 2, 5]);
        tree.fit_indexed(&data, &[]);
        assert!(tree.presorted.is_empty(), "an empty refit drops the orders");
    }

    /// Seeded property sweep pinning the flat struct-of-arrays descent
    /// bit-identical to the retained pointer walk, over random fitted trees
    /// and adversarial feature values: NaN (must go right — the comparison
    /// is false), ±infinity, subnormals, signed zero, rows hitting split
    /// thresholds *exactly* (the `<=` boundary) and one ULP past them, and
    /// short rows whose missing features read as 0.0.
    #[test]
    fn flat_descent_is_bit_identical_to_pointer_descent() {
        use crate::model::FeatureMatrix;
        use lynceus_math::rng::SeededRng;
        let mut rng = SeededRng::new(0xF1A7);
        for round in 0..30usize {
            let dims = 1 + round % 4;
            let n = 2 + rng.below(60);
            let mut data = TrainingSet::new(dims);
            for _ in 0..n {
                data.push(
                    (0..dims).map(|_| rng.uniform(-50.0, 50.0)).collect(),
                    rng.uniform(-100.0, 100.0),
                );
            }
            let mut tree = RegressionTree::new()
                .with_max_depth(1 + rng.below(12))
                .with_min_samples_leaf(1 + rng.below(3))
                .with_feature_subsample(1 + rng.below(dims))
                .with_seed(rng.next_u64());
            tree.fit(&data);
            assert!(!tree.flat.is_empty(), "optimized fit must carry the table");

            let mut queries: Vec<Vec<f64>> = (0..20)
                .map(|_| (0..dims).map(|_| rng.uniform(-60.0, 60.0)).collect())
                .collect();
            for special in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,       // smallest normal
                f64::MIN_POSITIVE / 2.0, // subnormal
                5e-324,                  // smallest subnormal
                -5e-324,
                -0.0,
            ] {
                queries.push(vec![special; dims]);
                let mut mixed = vec![1.0; dims];
                mixed[rng.below(dims)] = special;
                queries.push(mixed);
            }
            for node in &tree.nodes {
                let Node::Split {
                    feature, threshold, ..
                } = node
                else {
                    continue;
                };
                let mut exact = vec![0.0; dims];
                exact[*feature] = *threshold; // exactly on the `<=` boundary
                queries.push(exact.clone());
                exact[*feature] = f64::from_bits(threshold.to_bits() + 1); // one ULP off
                queries.push(exact);
            }
            queries.push(Vec::new()); // every feature out of range → 0.0

            for query in &queries {
                let flat = tree.predict_value(query);
                let pointer = tree.predict_value_pointer(query);
                assert_eq!(
                    flat.to_bits(),
                    pointer.to_bits(),
                    "flat {flat} != pointer {pointer} on {query:?} (round {round})"
                );
            }

            // The block traversal (including the 4-wide interleaved path and
            // its remainder tail) must match the per-row walk bit for bit.
            let matrix = FeatureMatrix::from_rows(dims, queries.iter().filter(|q| q.len() == dims));
            let rows: Vec<usize> = (0..matrix.rows()).collect();
            let mut block = vec![0.0; rows.len()];
            tree.predict_values_into(&matrix, &rows, &mut block);
            for (&row, &value) in rows.iter().zip(&block) {
                let pointer = tree.predict_value_pointer(matrix.row(row));
                assert_eq!(
                    value.to_bits(),
                    pointer.to_bits(),
                    "block row {row} diverged (round {round})"
                );
            }
        }
    }

    #[test]
    fn flat_table_is_rebuilt_per_fit_and_absent_on_reference_fits() {
        let data = step_data();
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        assert!(!tree.flat.is_empty());
        assert_eq!(tree.flat.feature.len(), tree.nodes.len());
        let mut reference = RegressionTree::new();
        let rows: Vec<Vec<f64>> = data.feature_rows().map(<[f64]>::to_vec).collect();
        reference.fit_reference(&rows, data.targets());
        assert!(
            reference.flat.is_empty(),
            "reference fits stay pointer-only"
        );
        // …and still predict identically through the dispatching entry point.
        for x in [-3.0, 2.0, 9.99, 10.0, 10.01, 25.0] {
            assert_eq!(
                tree.predict_value(&[x, 0.0]).to_bits(),
                reference.predict_value(&[x, 0.0]).to_bits()
            );
        }
        // Refitting on an empty index list drops the stale table.
        tree.fit_indexed(&data, &[]);
        assert!(tree.flat.is_empty());
        assert!(!tree.is_fitted());
    }

    #[test]
    fn single_sample_fit_is_a_leaf() {
        let mut data = TrainingSet::new(2);
        data.push(vec![1.0, 2.0], 42.0);
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[9.0, 9.0]).mean, 42.0);
    }
}
