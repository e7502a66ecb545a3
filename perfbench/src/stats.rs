//! The one percentile rule of the benchmark, and its sample-count guard.
//!
//! Every percentile the benchmark reports uses the nearest-rank rule: among
//! `n` samples sorted ascending, the `p`-th percentile is the sample at
//! 1-based rank `⌈p/100 · n⌉` (at least 1). A *timing* percentile is printed
//! only when at least [`MIN_BEYOND`] samples lie above that rank, so a p50
//! needs 20 samples and a p90 needs 100; with fewer, the metric reads "n/a"
//! together with its sample count.

/// Samples that must lie beyond a timing percentile before it is printed.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil();
    (r as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile by the nearest-rank rule, or `None` without
/// samples. Used for quality figures (CNO), which carry no guard.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The `p`-th percentile of a timing, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
#[must_use]
pub fn timing_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, p) < MIN_BEYOND {
        return None;
    }
    percentile(values, p)
}

/// Arithmetic mean, or `None` without samples.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The machine shape every run reports beside its metrics.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    /// CPUs the process may use (`available_parallelism`).
    pub cpus: usize,
    /// Scheduler lanes of the tuning service under test.
    pub lanes: usize,
    /// Concurrent client connections (0 for in-process workloads).
    pub connections: usize,
}

impl RunShape {
    /// The shape of a run with `lanes` service lanes and `connections`
    /// client connections on the current machine.
    #[must_use]
    pub fn new(lanes: usize, connections: usize) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            cpus,
            lanes,
            connections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        assert_eq!(rank(10, 50.0), 5);
        assert_eq!(rank(10, 90.0), 9);
        assert_eq!(rank(11, 50.0), 6);
        assert_eq!(rank(6, 90.0), 6);
        assert_eq!(rank(5, 0.0), 1);
        assert_eq!(rank(5, 100.0), 5);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert_eq!(percentile(&values, 90.0), Some(5.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn timing_percentiles_need_ten_samples_beyond_them() {
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(timing_percentile(&nineteen, 50.0), None);
        assert_eq!(timing_percentile(&twenty, 50.0), Some(9.0));
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(timing_percentile(&ninety_nine, 90.0), None);
        assert_eq!(timing_percentile(&hundred, 90.0), Some(89.0));
        assert_eq!(timing_percentile(&[], 50.0), None);
    }

    #[test]
    fn mean_of_nothing_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn run_shape_reports_at_least_one_cpu() {
        let shape = RunShape::new(2, 0);
        assert!(shape.cpus >= 1);
        assert_eq!((shape.lanes, shape.connections), (2, 0));
    }
}
