//! The repository benchmark: three workloads that load different layers of
//! the tuner, the end-to-end metrics a user of the service sees, and a
//! traced run that breaks them down by layer. See `README.md` beside this
//! crate for what each workload and metric is for.

#![forbid(unsafe_code)]

pub mod digest;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// End-to-end metrics reported in the result line (every workload).
pub const END_TO_END: &[&str] = &["setup_s", "sessions_per_s", "cno_p90", "explore_cost_usd"];

/// Per-layer metrics reported in the result line of a traced run (every
/// workload; the serve, checkpoint and transfer timings print above it on
/// the workloads that exercise those layers).
pub const PER_LAYER: &[&str] = &[
    "service.lane_wait_ms_p50",
    "service.retries",
    "lynceus.decisions",
    "lynceus.candidates_per_decision",
    "lynceus.gamma_size_mean",
    "lynceus.deep_pruned",
    "lynceus.pruned_frac",
    "lynceus.decision_self_ms_p50",
    "lynceus.decision_self_ms_p90",
    "learners.fit_ms",
    "learners.refit_with_us",
    "learners.predict_rows_us",
    "checkpoint.saves",
    "checkpoint.loads",
    "transfer.loads",
    "transfer.saves",
    "oracle.calls",
    "oracle.faults",
    "oracle.run_us_mean",
    "serve.admitted",
    "serve.shed",
    "trace_overhead_frac",
];

/// A fresh scratch directory for one run, under `.perfbench_work` in the
/// current directory (the checkout root).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench_work").join(format!("{}-{name}", std::process::id()));
    // A stale directory from an earlier process with the same id is scratch.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the work directory is writable");
    dir
}

/// Removes this process's scratch directories, and the parent when empty.
pub fn clean_work_dirs() {
    let root = PathBuf::from(".perfbench_work");
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(&root) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    // Fails harmlessly while another run still uses the directory.
    let _ = std::fs::remove_dir(&root);
}
