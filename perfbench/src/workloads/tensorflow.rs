//! `tune-tensorflow`: the decision engine under load.
//!
//! The three TensorFlow datasets (384 candidates each) × session seeds
//! {1, 2}, Lynceus at LA = 2 with 2 Gauss–Hermite nodes, budget multiplier
//! 2 and the `BoundAndPrune` engine, served in-process by a 2-lane
//! `TuningService` with no stores and no wire. The workload seed sets the
//! submission order.

use super::{
    common_layers, end_to_end, learners_layer, repeat_setup, run_rounds, trace_overhead,
    training_case, Round, Session,
};
use crate::digest::permutation;
use crate::probe::{CallLog, TimedOracle};
use crate::report::Outcome;
use crate::stats::RunShape;
use lynceus_core::{
    CostOracle, LynceusOptimizer, OptimizationReport, Optimizer, OptimizerSettings, PathEngine,
    SessionSpec, TuningService,
};
use lynceus_datasets::{catalog, LookupDataset};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "tune-tensorflow";
const LANES: usize = 2;
const SEEDS: [u64; 2] = [1, 2];
/// Setups timed before the measured rounds; `setup_s` is their median.
const SETUPS: usize = 25;

/// One session spec: a dataset and a session seed.
pub struct Spec {
    /// Digest key, e.g. `cnn-s1`.
    pub key: String,
    /// The dataset (oracle and ground truth).
    pub dataset: LookupDataset,
    /// Session seed.
    pub seed: u64,
}

impl Spec {
    /// The optimizer settings of the workload for this dataset.
    #[must_use]
    pub fn settings(&self) -> OptimizerSettings {
        let defaults = OptimizerSettings::default();
        let bootstrap = defaults.bootstrap_count(self.dataset.len(), self.dataset.space().dims());
        OptimizerSettings {
            budget: self.dataset.budget_for(bootstrap, 2.0),
            tmax_seconds: self.dataset.tmax_seconds(),
            lookahead: 2,
            gauss_hermite_nodes: 2,
            ..defaults
        }
    }
}

/// The six specs, in canonical order.
#[must_use]
pub fn specs() -> Vec<Spec> {
    let mut specs = Vec::new();
    for dataset in catalog::tensorflow_datasets() {
        let kind = dataset.name().trim_start_matches("tensorflow/").to_owned();
        for seed in SEEDS {
            specs.push(Spec {
                key: format!("{kind}-s{seed}"),
                dataset: dataset.clone(),
                seed,
            });
        }
    }
    specs
}

struct Setup {
    specs: Vec<Spec>,
    service: TuningService,
}

fn build(seed: u64) -> Setup {
    let canonical = specs();
    let order = permutation(canonical.len(), seed);
    let mut slots: Vec<Option<Spec>> = canonical.into_iter().map(Some).collect();
    let specs = order
        .into_iter()
        .map(|i| {
            slots[i]
                .take()
                .expect("a permutation visits each spec once")
        })
        .collect();
    Setup {
        specs,
        service: TuningService::with_threads(LANES),
    }
}

fn round(setup: &Setup, index: usize, traced: bool) -> Round {
    let start = Instant::now();
    let mut sessions = Vec::new();
    let mut by_id = HashMap::new();
    for spec in &setup.specs {
        let log = Arc::new(CallLog::default());
        let oracle = TimedOracle::new(spec.dataset.clone(), Arc::clone(&log));
        let session_spec = SessionSpec::new(
            format!("{}-round{index}", spec.key),
            spec.settings(),
            Box::new(oracle),
            spec.seed,
        )
        .with_engine(PathEngine::BoundAndPrune);
        let mut session = Session::new(spec.key.clone(), Instant::now(), log);
        let id = setup.service.submit(session_spec);
        if traced {
            session
                .submit_us
                .push(session.submitted.elapsed().as_secs_f64() * 1e6);
        }
        by_id.insert(id.0, sessions.len());
        sessions.push(session);
    }
    for _ in 0..sessions.len() {
        let outcome = setup
            .service
            .take_next_outcome()
            .expect("the service is running");
        let index = by_id[&outcome.id.0];
        sessions[index].deliver(outcome);
    }
    let wall_s = start.elapsed().as_secs_f64();
    for (session, spec) in sessions.iter_mut().zip(&setup.specs) {
        judge(session, &spec.dataset);
    }
    Round {
        sessions,
        wall_s,
        requests: Vec::new(),
    }
}

/// Ground truth of a lookup dataset: feasibility and CNO of the
/// recommended configuration.
pub fn judge(session: &mut Session, dataset: &LookupDataset) {
    if let Some(report) = &session.report {
        session.feasible = report.recommended.map(|id| dataset.is_feasible(id));
        session.cno = report.recommended_cost.and_then(|cost| dataset.cno(cost));
    }
}

/// Runs every spec solo through `LynceusOptimizer::optimize`, returning
/// each report with its oracle's call log.
#[must_use]
pub fn solo(specs: &[Spec]) -> Vec<(OptimizationReport, Arc<CallLog>)> {
    specs
        .iter()
        .map(|spec| {
            let log = Arc::new(CallLog::default());
            let oracle = TimedOracle::new(spec.dataset.clone(), Arc::clone(&log));
            let report = LynceusOptimizer::new(spec.settings())
                .with_engine(PathEngine::BoundAndPrune)
                .optimize(&oracle, spec.seed);
            (report, log)
        })
        .collect()
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Outcome, RunShape, usize) {
    let shape = RunShape::new(LANES, 0);
    let (setup_s, setup) = repeat_setup(SETUPS, || build(seed));
    // A traced run measures one untraced and one traced round, so its
    // counts are per round and repeat exactly.
    let untraced = run_rounds(if trace { 0.0 } else { seconds }, |i| {
        round(&setup, i, false)
    });
    if !trace {
        let rounds = untraced.len();
        return (
            end_to_end(NAME, &untraced, &setup_s, Vec::new()),
            shape,
            rounds,
        );
    }
    let traced = vec![round(&setup, 1, true)];
    let mut outcome = end_to_end(NAME, &traced, &setup_s, Vec::new());
    outcome.metrics.clear();

    let solo_runs = solo(&setup.specs);
    let self_gaps: Vec<f64> = solo_runs
        .iter()
        .zip(&traced[0].sessions)
        .flat_map(|((_, log), session)| log.decision_gaps(&session.receipts))
        .collect();
    let cases: Vec<_> = setup
        .specs
        .iter()
        .zip(&solo_runs)
        .map(|(spec, (report, _))| training_case(&spec.dataset, report))
        .collect();
    outcome.metrics.extend(common_layers(&traced, &self_gaps));
    outcome.metrics.extend(learners_layer(&cases, 5));
    outcome.metrics.extend(super::store_layers(
        &Default::default(),
        &Default::default(),
    ));
    outcome.metrics.extend(super::wire::idle_serve_layer());
    outcome.metrics.push(trace_overhead(&untraced, &traced));
    (outcome, shape, traced.len())
}
