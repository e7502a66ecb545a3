//! `recurring-durable`: the service and durability layers of a
//! long-running recurring tuner.
//!
//! The 18 Scout and 5 CherryPick datasets are recurring jobs; each job key
//! gets `RUNS` chained runs (run k+1 is submitted once run k's outcome is
//! in hand). Lynceus at LA = 2 with the paper-default 3 Gauss–Hermite nodes
//! and budget multiplier 3. A traced run keeps checkpoints and job knowledge
//! in `DirStore`s under the checkout's work directory, so the store layer is
//! timed on a real file system; the untraced run keeps them in the in-memory
//! stores, so its end-to-end figures do not swing with other disk traffic on
//! the host. Both encode and save a checkpoint at every decision boundary.
//! Every oracle is a seeded `TurbulentOracle` (revocations, transient
//! errors, mid-step panics, no price shocks) under a retrying policy with no
//! surcharge, so every report equals its storm-free solo run. One session in
//! four is suspended with a step limit and resumed with `restore`. The
//! workload seed sets the fault plans, which sessions are suspended and
//! where, and the submission order.

use super::{
    common_layers, end_to_end, learners_layer, repeat_setup, run_rounds, store_layers,
    tensorflow::judge, trace_overhead, training_case, Round, Session,
};
use crate::digest::{mix, permutation};
use crate::probe::{CallLog, TimedOracle, TimedStore};
use crate::report::Outcome;
use crate::stats::RunShape;
use lynceus_core::faults::{FaultPlan, FaultProfile};
use lynceus_core::{
    transfer, CheckpointStore, CostOracle, DecisionReceipt, DirStore, KnowledgeStore, MemoryStore,
    OptimizationReport, OptimizerSettings, PathEngine, RetryPolicy, SessionSpec, SessionStatus,
    TuningService,
};
use lynceus_datasets::{catalog, LookupDataset};
use lynceus_sim::TurbulentOracle;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "recurring-durable";
const LANES: usize = 2;
/// Chained runs per job key.
pub const RUNS: u64 = 5;
/// Setups timed before the measured rounds; `setup_s` is their median.
const SETUPS: usize = 25;
/// Oracle calls a fault plan covers.
const HORIZON: u64 = 512;

/// A recurring job: its dataset and its settings.
pub struct Job {
    /// The dataset (oracle and ground truth).
    pub dataset: LookupDataset,
    /// Optimizer settings shared by every run of the job.
    pub settings: OptimizerSettings,
}

/// The 23 jobs, in canonical order.
#[must_use]
pub fn jobs() -> Vec<Job> {
    let mut datasets = catalog::scout_datasets();
    datasets.extend(catalog::cherrypick_datasets());
    datasets
        .into_iter()
        .map(|dataset| {
            let defaults = OptimizerSettings::default();
            let bootstrap = defaults.bootstrap_count(dataset.len(), dataset.space().dims());
            let settings = OptimizerSettings {
                budget: dataset.budget_for(bootstrap, 3.0),
                tmax_seconds: dataset.tmax_seconds(),
                lookahead: 2,
                gauss_hermite_nodes: 3,
                ..defaults
            };
            Job { dataset, settings }
        })
        .collect()
}

/// Session seed of run `run` of job `job`.
#[must_use]
pub fn session_seed(job: usize, run: u64) -> u64 {
    1_000 + 37 * job as u64 + run
}

/// Digest key of run `run` of job `job`.
#[must_use]
pub fn key(job: &Job, run: u64) -> String {
    format!("{}-k{run}", job.dataset.name().replace('/', "."))
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        backoff_steps: 1,
        retry_cost: 0.0,
    }
}

fn storm() -> FaultProfile {
    FaultProfile {
        revocation: 0.05,
        transient: 0.05,
        panic: 0.01,
        price_shock: 0.0,
        shock_range: (1.0, 1.0),
    }
}

struct Setup {
    jobs: Vec<Job>,
    order: Vec<usize>,
    dir: Option<PathBuf>,
    checkpoints: Arc<TimedStore<dyn CheckpointStore>>,
    knowledge: Arc<TimedStore<dyn KnowledgeStore>>,
    service: TuningService,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            // Ignore errors: the directory is scratch space.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the jobs, the stores and the service. `on_disk` puts the stores
/// in `DirStore`s under a fresh work directory, else in memory.
fn build(seed: u64, traced: bool, on_disk: bool, attempt: usize) -> Setup {
    let jobs = jobs();
    let order = permutation(jobs.len(), seed);
    let dir = on_disk.then(|| crate::work_dir(&format!("recurring-{attempt}")));
    let (checkpoint_store, knowledge_store): (Arc<dyn CheckpointStore>, Arc<dyn KnowledgeStore>) =
        match &dir {
            Some(dir) => (
                Arc::new(
                    DirStore::new(dir.join("checkpoints")).expect("checkpoint dir is writable"),
                ),
                Arc::new(
                    transfer::DirStore::new(dir.join("knowledge"))
                        .expect("knowledge dir is writable"),
                ),
            ),
            None => (
                Arc::new(MemoryStore::new()),
                Arc::new(transfer::MemoryStore::new()),
            ),
        };
    let checkpoints = Arc::new(TimedStore::new(checkpoint_store, traced));
    let knowledge = Arc::new(TimedStore::new(knowledge_store, traced));
    let service = TuningService::with_threads(LANES)
        .with_checkpoints(Arc::clone(&checkpoints) as Arc<dyn CheckpointStore>)
        .with_knowledge_store(Arc::clone(&knowledge) as Arc<dyn KnowledgeStore>);
    Setup {
        jobs,
        order,
        dir,
        checkpoints,
        knowledge,
        service,
    }
}

/// Where run `run` of job `job` suspends, if it is one of the quarter that
/// does.
fn suspend_at(seed: u64, job: usize, run: u64) -> Option<u64> {
    let draw = mix(seed ^ 0x5eed, job as u64 * RUNS + run);
    draw.is_multiple_of(4).then_some(2 + (draw >> 8) % 4)
}

struct Live {
    job: usize,
    run: u64,
    session: usize,
}

fn round(setup: &Setup, seed: u64, index: usize, traced: bool) -> Round {
    let service = &setup.service;
    let spec = |job: usize, run: u64, log: &Arc<CallLog>, limit: Option<u64>| {
        let plan = FaultPlan::seeded(mix(seed, job as u64 * RUNS + run), &storm(), HORIZON);
        let data = &setup.jobs[job];
        let oracle = TimedOracle::new(
            TurbulentOracle::new(data.dataset.clone(), plan),
            Arc::clone(log),
        );
        let name = format!("{}-round{index}", key(data, run));
        let mut spec = SessionSpec::new(
            name,
            data.settings.clone(),
            Box::new(oracle),
            session_seed(job, run),
        )
        .with_engine(PathEngine::BoundAndPrune)
        .with_retry_policy(retry())
        .with_job_key(format!("{}-round{index}", data.dataset.name()));
        if let Some(limit) = limit {
            spec = spec.with_step_limit(limit);
        }
        spec
    };

    let start = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut live: HashMap<usize, Live> = HashMap::new();
    let submit = |job: usize, run: u64, sessions: &mut Vec<Session>| {
        let log = Arc::new(CallLog::default());
        let spec = spec(job, run, &log, suspend_at(seed, job, run));
        let mut session = Session::new(key(&setup.jobs[job], run), Instant::now(), log);
        session.warm = run > 0;
        let id = service.submit(spec);
        if traced {
            session
                .submit_us
                .push(session.submitted.elapsed().as_secs_f64() * 1e6);
        }
        sessions.push(session);
        (
            id.0,
            Live {
                job,
                run,
                session: sessions.len() - 1,
            },
        )
    };
    for &job in &setup.order {
        let (id, entry) = submit(job, 0, &mut sessions);
        live.insert(id, entry);
    }
    let total = setup.jobs.len() * RUNS as usize;
    let mut done = 0;
    while done < total {
        let outcome = service.take_next_outcome().expect("the service is running");
        let entry = live
            .remove(&outcome.id.0)
            .expect("every outcome was submitted");
        if let SessionStatus::Suspended { .. } = outcome.status {
            let session = &mut sessions[entry.session];
            session.log.mark_resume();
            let resumed = spec(entry.job, entry.run, &session.log, None);
            let call = Instant::now();
            let id = service.restore(resumed);
            if traced {
                session.submit_us.push(call.elapsed().as_secs_f64() * 1e6);
            }
            live.insert(id.0, entry);
            continue;
        }
        sessions[entry.session].deliver(outcome);
        judge(&mut sessions[entry.session], &setup.jobs[entry.job].dataset);
        done += 1;
        if entry.run + 1 < RUNS {
            let (id, next) = submit(entry.job, entry.run + 1, &mut sessions);
            live.insert(id, next);
        }
    }
    Round {
        sessions,
        wall_s: start.elapsed().as_secs_f64(),
        requests: Vec::new(),
    }
}

/// One storm-free solo session of a chain.
pub struct SoloRun {
    /// Digest key.
    pub key: String,
    /// Index of its job.
    pub job: usize,
    /// Its report.
    pub report: OptimizationReport,
    /// Its oracle calls.
    pub log: Arc<CallLog>,
    /// Its receipts.
    pub receipts: Vec<DecisionReceipt>,
}

/// Runs every chain solo and storm-free: one session at a time through a
/// 2-lane service with an in-memory knowledge store.
#[must_use]
pub fn solo(jobs: &[Job]) -> Vec<SoloRun> {
    let service = TuningService::with_threads(LANES)
        .with_knowledge_store(Arc::new(transfer::MemoryStore::new()));
    let mut out = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        for run in 0..RUNS {
            let log = Arc::new(CallLog::default());
            let oracle = TimedOracle::new(job.dataset.clone(), Arc::clone(&log));
            let spec = SessionSpec::new(
                key(job, run),
                job.settings.clone(),
                Box::new(oracle),
                session_seed(j, run),
            )
            .with_engine(PathEngine::BoundAndPrune)
            .with_job_key(job.dataset.name());
            service.submit(spec);
            let outcome = service.take_next_outcome().expect("the service is running");
            let report = outcome
                .report()
                .cloned()
                .expect("a storm-free solo run finishes");
            out.push(SoloRun {
                key: key(job, run),
                job: j,
                report,
                log,
                receipts: outcome.receipts,
            });
        }
    }
    out
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Outcome, RunShape, usize) {
    let shape = RunShape::new(LANES, 0);
    let mut attempt = 0;
    let (setup_s, setup) = repeat_setup(SETUPS, || {
        attempt += 1;
        build(seed, false, trace, attempt)
    });
    // A traced run measures one untraced and one traced round, so its
    // counts are per round and repeat exactly.
    let untraced = run_rounds(if trace { 0.0 } else { seconds }, |i| {
        round(&setup, seed, i, false)
    });
    if !trace {
        let rounds = untraced.len();
        return (
            end_to_end(NAME, &untraced, &setup_s, Vec::new()),
            shape,
            rounds,
        );
    }
    drop(setup);
    let setup = build(seed, true, true, 0);
    let traced = vec![round(&setup, seed, 0, true)];
    let mut outcome = end_to_end(NAME, &traced, &setup_s, Vec::new());
    outcome.metrics.clear();

    let solo_runs = solo(&setup.jobs);
    let self_gaps: Vec<f64> = solo_runs
        .iter()
        .flat_map(|run| run.log.decision_gaps(&run.receipts))
        .collect();
    let cases: Vec<_> = solo_runs
        .iter()
        .map(|run| training_case(&setup.jobs[run.job].dataset, &run.report))
        .collect();
    outcome.metrics.extend(common_layers(&traced, &self_gaps));
    outcome.metrics.extend(learners_layer(&cases, 1));
    outcome.metrics.extend(store_layers(
        &setup.checkpoints.stats(),
        &setup.knowledge.stats(),
    ));
    outcome.metrics.extend(super::wire::idle_serve_layer());
    outcome.metrics.push(trace_overhead(&untraced, &traced));
    (outcome, shape, traced.len())
}
