//! The three workloads and what they share: the session record, the output
//! checks and the metric summaries.

pub mod recurring;
pub mod tensorflow;
pub mod wire;

use crate::digest;
use crate::probe::{ms, CallLog, RequestKind, RequestRecord, StoreStats};
use crate::report::{Check, Metric, Outcome};
use crate::stats::{mean, percentile, timing_percentile};
use lynceus_core::{
    CostOracle, DecisionReceipt, OptimizationReport, SessionCheckpoint, SessionOutcome,
    SessionStatus,
};
use lynceus_learners::{BaggingEnsemble, FeatureMatrix, Surrogate, TrainingSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One session as the benchmark observed it.
pub struct Session {
    /// Digest key: identifies the spec, the same in every round.
    pub key: String,
    /// When the benchmark submitted it.
    pub submitted: Instant,
    /// When its outcome or report was in the benchmark's hands.
    pub delivered: Instant,
    /// When the program reported it terminal (wire: the long-poll answer).
    pub outcome_at: Instant,
    /// Durations in µs of its `submit`/`restore` calls (traced in-process
    /// runs only).
    pub submit_us: Vec<f64>,
    /// Its oracle calls.
    pub log: Arc<CallLog>,
    /// Its decision receipts (wire sessions: fetched after a traced round).
    pub receipts: Vec<DecisionReceipt>,
    /// The finished report, or the partial report of a failed session.
    pub report: Option<OptimizationReport>,
    /// Why the session failed, if it did.
    pub error: Option<String>,
    /// Whether the recommended configuration is feasible under the ground
    /// truth (`None`: nothing recommended).
    pub feasible: Option<bool>,
    /// Recommended cost over the ground-truth optimum.
    pub cno: Option<f64>,
    /// Bootstrap length, for sessions whose receipts are not fetched.
    pub bootstrap: Option<usize>,
    /// True for a recurring job's second and later runs, which start from
    /// the knowledge earlier runs harvested.
    pub warm: bool,
}

impl Session {
    /// A session submitted at `submitted`, not yet delivered.
    #[must_use]
    pub fn new(key: String, submitted: Instant, log: Arc<CallLog>) -> Self {
        Self {
            key,
            submitted,
            delivered: submitted,
            outcome_at: submitted,
            submit_us: Vec::new(),
            log,
            receipts: Vec::new(),
            report: None,
            error: None,
            feasible: None,
            cno: None,
            bootstrap: None,
            warm: false,
        }
    }

    /// Records a terminal in-process outcome.
    pub fn deliver(&mut self, outcome: SessionOutcome) {
        self.delivered = Instant::now();
        self.outcome_at = self.delivered;
        self.receipts = outcome.receipts;
        match outcome.status {
            SessionStatus::Finished(report) => self.report = Some(report),
            SessionStatus::Failed { error, partial } => {
                self.error = Some(error.to_string());
                self.report = partial;
            }
            SessionStatus::Suspended { steps } => {
                self.error = Some(format!("left suspended after {steps} steps"));
            }
        }
    }

    /// Gaps before the session's non-bootstrap profiling runs, in ms.
    #[must_use]
    pub fn decision_gaps(&self) -> Vec<f64> {
        match self.bootstrap {
            Some(steps) if self.receipts.is_empty() => self.log.decision_gaps_after(steps),
            _ => self.log.decision_gaps(&self.receipts),
        }
    }
}

/// One round of a workload: a fixed set of sessions.
#[derive(Default)]
pub struct Round {
    /// Every session of the round.
    pub sessions: Vec<Session>,
    /// Wall time of the round, first submit to last delivery, in s.
    pub wall_s: f64,
    /// Every wire request of the round.
    pub requests: Vec<RequestRecord>,
}

/// Runs rounds until `seconds` have passed (at least one round).
pub fn run_rounds<T>(seconds: f64, mut round: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len()));
    }
    rounds
}

/// Runs `setup` `times` times, timing each, and returns the timings (s)
/// with the last setup's result.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        samples.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (samples, last.expect("at least one setup"))
}

/// Median of the setup timings.
fn setup_metric(samples: &[f64]) -> Metric {
    Metric::new("setup_s", "s", percentile(samples, 50.0), samples.len())
}

/// Failure accounting and output checks shared by every workload, plus
/// the end-to-end metrics. `extra` carries the workload's own checks.
pub fn end_to_end(workload: &str, rounds: &[Round], setup_s: &[f64], extra: Vec<Check>) -> Outcome {
    let recorded = digest::recorded(workload);
    let sessions: Vec<&Session> = rounds.iter().flat_map(|r| &r.sessions).collect();
    let requests: Vec<&RequestRecord> = rounds.iter().flat_map(|r| &r.requests).collect();

    let mut failures = Vec::new();
    let (mut digests_ok, mut errors, mut feasible) = (0u64, 0u64, 0u64);
    let (mut warm, mut warm_ok) = (0u64, 0u64);
    for session in &sessions {
        let digest = session.report.as_ref().map(digest::digest);
        let digest_ok = digest.is_some() && recorded.get(&session.key) == digest.as_ref();
        if session.warm {
            warm += 1;
            warm_ok += u64::from(digest_ok);
        } else {
            digests_ok += u64::from(digest_ok);
        }
        errors += u64::from(session.error.is_some());
        feasible += u64::from(session.feasible == Some(true));
        let mut why = Vec::new();
        if let Some(error) = &session.error {
            why.push(error.clone());
        }
        if !digest_ok {
            why.push(format!("digest {}", digest.as_deref().unwrap_or("missing")));
        }
        if session.feasible != Some(true) {
            why.push("recommended configuration infeasible or missing".to_owned());
        }
        if !why.is_empty() {
            failures.push(format!("{} {}", session.key, why.join("; ")));
        }
    }
    let failed_sessions = failures.len() as u64;
    let total = sessions.len() as u64;
    let bad_requests = requests.iter().filter(|r| !expected_status(r)).count() as u64;
    let mut checks = vec![
        Check::gate("report-digest", digests_ok, total - warm),
        Check::gate("session-completed", total - errors, total),
        Check::defect(
            "feasible-recommendation",
            feasible,
            total,
            "a timed-out run reads as feasible (known defect, counted in failed)",
        ),
    ];
    if warm > 0 {
        checks.push(Check::defect(
            "warm-report-digest",
            warm_ok,
            warm,
            "warm-chain decisions can depend on the thread schedule (known defect, counted in failed)",
        ));
    }
    if !requests.is_empty() {
        checks.push(Check::gate(
            "http-status",
            requests.len() as u64 - bad_requests,
            requests.len() as u64,
        ));
    }
    let extra_failed: u64 = extra.iter().map(|c| c.total - c.passed).sum();
    let extra_total: u64 = extra.iter().map(|c| c.total).sum();
    checks.extend(extra);

    let attempted = total + requests.len() as u64 + extra_total;
    let failed = failed_sessions + bad_requests + extra_failed;

    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let session_ms: Vec<f64> = sessions
        .iter()
        .map(|s| ms(s.submitted, s.delivered))
        .collect();
    let gaps: Vec<f64> = sessions.iter().flat_map(|s| s.decision_gaps()).collect();
    let request_ms: Vec<f64> = requests.iter().map(|r| r.ms).collect();
    let cnos: Vec<f64> = sessions.iter().filter_map(|s| s.cno).collect();
    let spent: Vec<f64> = sessions
        .iter()
        .filter_map(|s| s.report.as_ref().map(|r| r.budget_spent))
        .collect();
    let metrics = vec![
        setup_metric(setup_s),
        Metric::new(
            "sessions_per_s",
            "1/s",
            (wall > 0.0).then(|| sessions.len() as f64 / wall),
            sessions.len(),
        ),
        timing("session_ms_p50", "ms", &session_ms, 50.0),
        timing("session_ms_p90", "ms", &session_ms, 90.0),
        timing("decision_ms_p50", "ms", &gaps, 50.0),
        timing("decision_ms_p90", "ms", &gaps, 90.0),
        timing("request_ms_p50", "ms", &request_ms, 50.0),
        timing("request_ms_p90", "ms", &request_ms, 90.0),
        Metric::new("cno_p90", "ratio", percentile(&cnos, 90.0), cnos.len()),
        Metric::new("explore_cost_usd", "USD", mean(&spent), spent.len()),
        Metric::new(
            "failed_frac",
            "ratio",
            Some(failed as f64 / attempted.max(1) as f64),
            attempted as usize,
        ),
    ];
    Outcome {
        metrics,
        checks,
        attempted,
        failed,
        failures,
    }
}

fn expected_status(request: &RequestRecord) -> bool {
    match request.kind {
        RequestKind::Submit => matches!(request.status, 202 | 503),
        _ => request.status == 200,
    }
}

/// A guarded timing percentile as a metric.
#[must_use]
pub fn timing(name: &str, unit: &'static str, values: &[f64], p: f64) -> Metric {
    Metric::new(name, unit, timing_percentile(values, p), values.len())
}

/// A count as a metric.
#[must_use]
pub fn count(name: &str, value: u64) -> Metric {
    Metric::new(name, "count", Some(value as f64), 1)
}

/// Per-layer metrics of the service (call, queue, finish and lane-wait
/// times, retries), the decision engine (receipt counters, solo self time)
/// and the oracle (calls, faults, run time). `self_gaps` are the decision
/// gaps of the same sessions run solo.
#[must_use]
pub fn common_layers(rounds: &[Round], self_gaps: &[f64]) -> Vec<Metric> {
    let sessions: Vec<&Session> = rounds.iter().flat_map(|r| &r.sessions).collect();
    let gaps: Vec<f64> = sessions.iter().flat_map(|s| s.decision_gaps()).collect();
    let receipts: Vec<&DecisionReceipt> = sessions
        .iter()
        .flat_map(|s| &s.receipts)
        .filter(|r| !r.bootstrap)
        .collect();
    let decisions = receipts.len() as u64;
    let candidates: u64 = receipts.iter().map(|r| r.candidates).sum();
    let pruned: u64 = receipts.iter().map(|r| r.pruned).sum();
    let gamma: Vec<f64> = receipts.iter().map(|r| r.gamma_size as f64).collect();
    let retries: u64 = sessions
        .iter()
        .flat_map(|s| &s.receipts)
        .map(|r| u64::from(r.retries_consumed))
        .sum();
    let lane_wait = match (
        timing_percentile(&gaps, 50.0),
        timing_percentile(self_gaps, 50.0),
    ) {
        (Some(shared), Some(solo)) => Some(shared - solo),
        _ => None,
    };
    let run_us: Vec<f64> = sessions.iter().flat_map(|s| s.log.run_us()).collect();
    let calls: usize = sessions.iter().map(|s| s.log.calls().len()).sum();
    let faults: usize = sessions.iter().map(|s| s.log.faults()).sum();
    let submit_us: Vec<f64> = sessions.iter().flat_map(|s| s.submit_us.clone()).collect();
    let queue_ms: Vec<f64> = sessions
        .iter()
        .filter_map(|s| {
            let first = s.log.calls().first().map(|c| c.start)?;
            Some(ms(s.submitted.max(s.log.created), first))
        })
        .collect();
    let finish_ms: Vec<f64> = sessions
        .iter()
        .filter_map(|s| {
            let last = s.log.calls().last().and_then(|c| c.end)?;
            Some(ms(last, s.outcome_at))
        })
        .collect();
    vec![
        timing("service.submit_us_p50", "us", &submit_us, 50.0),
        timing("service.queue_ms_p50", "ms", &queue_ms, 50.0),
        timing("service.finish_ms_p50", "ms", &finish_ms, 50.0),
        Metric::new("service.lane_wait_ms_p50", "ms", lane_wait, gaps.len()),
        count("service.retries", retries),
        count("lynceus.decisions", decisions),
        Metric::new(
            "lynceus.candidates_per_decision",
            "count",
            (decisions > 0).then(|| candidates as f64 / decisions as f64),
            decisions as usize,
        ),
        Metric::new(
            "lynceus.gamma_size_mean",
            "count",
            mean(&gamma),
            gamma.len(),
        ),
        count(
            "lynceus.deep_pruned",
            receipts.iter().map(|r| r.deep_pruned).sum(),
        ),
        Metric::new(
            "lynceus.pruned_frac",
            "ratio",
            Some(if candidates == 0 {
                0.0
            } else {
                pruned as f64 / candidates as f64
            }),
            decisions as usize,
        ),
        timing("lynceus.decision_self_ms_p50", "ms", self_gaps, 50.0),
        timing("lynceus.decision_self_ms_p90", "ms", self_gaps, 90.0),
        count("oracle.calls", calls as u64),
        count("oracle.faults", faults as u64),
        Metric::new("oracle.run_us_mean", "us", mean(&run_us), run_us.len()),
    ]
}

/// Replays the surrogate's work on each session's final training set (its
/// own explorations): a fresh fit, a one-row `refit_with` onto a fit of
/// all rows but the last, and one `predict_rows` sweep over every
/// candidate. Each is repeated `reps` times per session.
#[must_use]
pub fn learners_layer(cases: &[(TrainingSet, FeatureMatrix)], reps: u64) -> Vec<Metric> {
    let (mut fit_ms, mut refit_us, mut predict_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Vec::new();
    for (data, matrix) in cases.iter().filter(|(data, _)| data.len() >= 2) {
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        let mut prefix = TrainingSet::new(data.dims());
        for i in 0..data.len() - 1 {
            let (features, target) = data.observation(i);
            prefix.push_row(features, target);
        }
        let last = data.observation(data.len() - 1);
        for rep in 0..reps {
            let start = Instant::now();
            let mut model = BaggingEnsemble::with_seed(10, 7 + rep);
            model.fit(black_box(data));
            fit_ms.push(start.elapsed().as_secs_f64() * 1e3);

            let mut base = BaggingEnsemble::with_seed(10, 7 + rep);
            base.fit(&prefix);
            let start = Instant::now();
            black_box(base.refit_with(black_box(&[last])));
            refit_us.push(start.elapsed().as_secs_f64() * 1e6);

            let start = Instant::now();
            model.predict_rows(black_box(matrix), black_box(&rows), &mut out);
            black_box(&out);
            predict_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    vec![
        timing("learners.fit_ms", "ms", &fit_ms, 50.0),
        timing("learners.refit_with_us", "us", &refit_us, 50.0),
        timing("learners.predict_rows_us", "us", &predict_us, 50.0),
    ]
}

/// A session's final training set and the feature matrix of every
/// candidate of its oracle.
#[must_use]
pub fn training_case(
    oracle: &dyn CostOracle,
    report: &OptimizationReport,
) -> (TrainingSet, FeatureMatrix) {
    let space = oracle.space();
    let mut data = TrainingSet::new(space.dims());
    for exploration in &report.explorations {
        data.push(
            space.features_of(exploration.id),
            exploration.observation.cost,
        );
    }
    let matrix = FeatureMatrix::from_rows(
        space.dims(),
        oracle
            .candidates()
            .into_iter()
            .map(|id| space.features_of(id)),
    );
    (data, matrix)
}

/// Checkpoint and knowledge store metrics. Zero counts for workloads that
/// attach no store; the timings read "n/a" there.
#[must_use]
pub fn store_layers(checkpoints: &StoreStats, knowledge: &StoreStats) -> Vec<Metric> {
    let per_save = |s: &StoreStats| (s.saves > 0).then(|| s.saved_bytes as f64 / s.saves as f64);
    let mut decode_us = Vec::new();
    for blob in &checkpoints.blobs {
        let start = Instant::now();
        let decoded = SessionCheckpoint::decode(black_box(blob));
        let us = start.elapsed().as_secs_f64() * 1e6;
        // Only decodes that succeed count: a failing one stops early.
        if black_box(decoded).is_ok() {
            decode_us.push(us);
        }
    }
    let prior_obs: Vec<f64> = knowledge
        .loaded
        .iter()
        .map(|bytes| {
            lynceus_core::JobKnowledge::decode(bytes).map_or(0.0, |k| k.observations.len() as f64)
        })
        .chain(std::iter::repeat_n(
            0.0,
            (knowledge.loads as usize).saturating_sub(knowledge.loaded.len()),
        ))
        .collect();
    vec![
        count("checkpoint.saves", checkpoints.saves),
        count("checkpoint.loads", checkpoints.loads),
        Metric::new(
            "checkpoint.bytes_per_save",
            "bytes",
            per_save(checkpoints),
            checkpoints.saves as usize,
        ),
        timing("checkpoint.save_us_p50", "us", &checkpoints.save_us, 50.0),
        timing("checkpoint.save_us_p90", "us", &checkpoints.save_us, 90.0),
        timing("checkpoint.decode_us", "us", &decode_us, 50.0),
        count("transfer.loads", knowledge.loads),
        count("transfer.saves", knowledge.saves),
        Metric::new(
            "transfer.bytes_per_save",
            "bytes",
            per_save(knowledge),
            knowledge.saves as usize,
        ),
        timing("transfer.save_us_p50", "us", &knowledge.save_us, 50.0),
        Metric::new(
            "transfer.prior_obs_mean",
            "count",
            mean(&prior_obs),
            prior_obs.len(),
        ),
    ]
}

/// `traced ÷ untraced − 1` of the measured rounds' wall time per round.
#[must_use]
pub fn trace_overhead(untraced: &[Round], traced: &[Round]) -> Metric {
    let per_round = |rounds: &[Round]| {
        rounds.iter().map(|r| r.wall_s).sum::<f64>() / rounds.len().max(1) as f64
    };
    let (u, t) = (per_round(untraced), per_round(traced));
    Metric::new(
        "trace_overhead_frac",
        "ratio",
        (u > 0.0).then(|| t / u - 1.0),
        traced.len(),
    )
}
