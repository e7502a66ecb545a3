//! Allocation budget of the surrogate's hot path, as exact counts.
//!
//! A lookahead decision builds thousands of short-lived regression trees,
//! so a per-node allocation in tree construction is a throughput regression
//! that only shows up as noise in the benchmark. This binary installs a
//! counting global allocator (thread-local counts, so the parallel test
//! harness cannot disturb a measurement) and pins:
//!
//! 1. tree construction makes the same number of allocations for trees of
//!    very different node counts, whichever source its root orders come
//!    from — a sort (`RegressionTree::fit_indexed`) or a merge with a
//!    parent tree's orders (`RegressionTree::fit_extending`): the buffers
//!    are sized once per fit, never per node;
//! 2. `SeededRng::sample_indices_into` draws exactly what
//!    `SeededRng::sample_indices` draws, leaves the same generator state,
//!    and allocates nothing once its buffer is sized.

use lynceus::learners::{RegressionTree, TrainingSet};
use lynceus::math::rng::SeededRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation made by the current thread.
struct CountingAllocator;

fn count_one() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a `const`-initialized
// thread-local `Cell`, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations of one tree fit, from either source of root orders: the
/// resample's columns, the sort keys, the presorted root orders (kept on
/// the tree), the working lanes, the split candidates, the node table, and
/// the flat table's three lanes.
const FIT_ALLOCATIONS: u64 = 9;

/// A fresh bagging-style random tree (3 of 4 features per split).
fn random_tree() -> RegressionTree {
    RegressionTree::new()
        .with_feature_subsample(3)
        .with_seed(17)
}

/// Fits a fresh random tree, merging its root orders from `parent` when
/// given, and returns it with the allocations the fit made.
fn fit_counted(
    data: &TrainingSet,
    indices: &[usize],
    parent: Option<&RegressionTree>,
) -> (RegressionTree, u64) {
    let mut tree = random_tree();
    let ((), count) = allocations_during(|| match parent {
        Some(parent) => tree.fit_extending(data, indices, Some(parent)),
        None => tree.fit_indexed(data, indices),
    });
    (tree, count)
}

#[test]
fn tree_construction_allocates_per_fit_not_per_node() {
    let mut rng = SeededRng::new(5);
    let mut data = TrainingSet::new(4);
    // Rows 0..64: distinct continuous features and noisy targets, so a tree
    // over them splits nearly down to single samples.
    for i in 0..64 {
        let x = f64::from(i);
        data.push(
            vec![x, rng.uniform(0.0, 1.0), x * 0.5, rng.uniform(-1.0, 1.0)],
            x * x + rng.uniform(-5.0, 5.0),
        );
    }
    // Rows 64..128: discrete features and a target that depends on one
    // binary feature only, so a tree over them stays a few nodes deep.
    for i in 0..64 {
        let bit = f64::from(i % 2);
        data.push(vec![bit, 1.0, 2.0, f64::from(i % 3)], 10.0 + 90.0 * bit);
    }
    // Poisson-style multisets of equal size: ascending, with repeats.
    let deep: Vec<usize> = (0..64)
        .flat_map(|i| [i, i].into_iter().take(1 + i % 2))
        .collect();
    let shallow: Vec<usize> = (64..128)
        .flat_map(|i| [i, i].into_iter().take(1 + i % 2))
        .collect();
    assert_eq!(deep.len(), shallow.len());

    let (deep_tree, deep_count) = fit_counted(&data, &deep, None);
    let (shallow_tree, shallow_count) = fit_counted(&data, &shallow, None);
    assert!(
        deep_tree.node_count() >= 10 * shallow_tree.node_count(),
        "the two resamples must build very different trees: {} vs {} nodes",
        deep_tree.node_count(),
        shallow_tree.node_count()
    );
    assert_eq!(
        (deep_count, shallow_count),
        (FIT_ALLOCATIONS, FIT_ALLOCATIONS),
        "fit_indexed allocations for {} and {} nodes",
        deep_tree.node_count(),
        shallow_tree.node_count()
    );

    // The merge source: each resample extends a parent fitted on its first
    // two thirds, and the merged fit is the sorted fit, node for node.
    for (name, resample, sorted_tree) in [
        ("deep", &deep, &deep_tree),
        ("shallow", &shallow, &shallow_tree),
    ] {
        let mut parent = random_tree();
        parent.fit_indexed(&data, &resample[..resample.len() * 2 / 3]);
        let (merged_tree, merged_count) = fit_counted(&data, resample, Some(&parent));
        assert_eq!(&merged_tree, sorted_tree, "{name}: merged fit diverged");
        assert_eq!(
            merged_count,
            FIT_ALLOCATIONS,
            "{name}: fit_extending allocations for {} nodes",
            merged_tree.node_count()
        );
    }
}

#[test]
fn sample_indices_into_matches_sample_indices_without_allocating() {
    let mut out = Vec::with_capacity(24);
    for seed in 0..40u64 {
        for n in 1..24 {
            for k in 0..=n {
                let mut reference = SeededRng::new(seed);
                let mut buffered = reference.clone();
                // Advance both streams by a seed-dependent amount so the
                // draws start at varied stream positions.
                for _ in 0..seed % 7 {
                    let _ = reference.next_u64();
                    let _ = buffered.next_u64();
                }
                let expected = reference.sample_indices(n, k);
                let ((), count) =
                    allocations_during(|| buffered.sample_indices_into(n, k, &mut out));
                assert_eq!(out, expected, "seed {seed}, n {n}, k {k}");
                assert_eq!(
                    buffered, reference,
                    "generator state, seed {seed}, n {n}, k {k}"
                );
                assert_eq!(count, 0, "a sized buffer must not reallocate");
            }
        }
    }
}
