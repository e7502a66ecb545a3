//! The timing wrapper must be invisible to the program: sessions profiled
//! through `TimedOracle` give bit-identical reports and receipts to the same
//! sessions profiled through the bare oracle, under a fault storm (faults
//! reach the retry path, price shocks ride in checkpoints) and across a
//! suspend/restore. A wrapper that forwards only the infallible methods is
//! caught by the same comparison.

use lynceus_core::faults::{FaultPlan, FaultProfile};
use lynceus_core::{
    CostOracle, MemoryStore, Observation, OptimizerSettings, RetryPolicy, SessionOutcome,
    SessionSpec, SessionStatus, TableOracle, TuningService,
};
use lynceus_perfbench::probe::{CallLog, TimedOracle};
use lynceus_sim::TurbulentOracle;
use lynceus_space::{ConfigId, ConfigSpace, SpaceBuilder};
use std::sync::Arc;

const SESSIONS: u64 = 6;

fn valley(shift: f64) -> TableOracle {
    let space = SpaceBuilder::new()
        .numeric("x", (0..8).map(f64::from))
        .numeric("y", (0..3).map(f64::from))
        .build();
    TableOracle::from_fn(space, 1.0, move |f| {
        20.0 + (f[0] - shift).powi(2) * 3.0 + (f[1] - 1.0).powi(2) * 5.0
    })
}

/// A storm with every fault kind, price shocks included, dense enough that
/// each session meets several faults.
fn storm(session: u64) -> FaultPlan {
    let profile = FaultProfile {
        revocation: 0.1,
        transient: 0.1,
        panic: 0.05,
        price_shock: 0.1,
        shock_range: (0.5, 1.5),
    };
    FaultPlan::seeded(77 + session, &profile, 200)
}

fn turbulent(session: u64) -> TurbulentOracle<TableOracle> {
    TurbulentOracle::new(valley(1.0 + (session % 4) as f64), storm(session))
}

fn spec(session: u64, oracle: Box<dyn CostOracle>, limit: Option<u64>) -> SessionSpec {
    let settings = OptimizerSettings {
        budget: 400.0,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(3),
        lookahead: (session % 2) as usize,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    };
    let spec = SessionSpec::new(format!("session-{session}"), settings, oracle, session)
        .with_retry_policy(RetryPolicy {
            max_attempts: 64,
            backoff_steps: 1,
            retry_cost: 0.0,
        });
    match limit {
        Some(steps) => spec.with_step_limit(steps),
        None => spec,
    }
}

/// Runs every session; with `suspend`, each first stops after 4 steps and
/// is resumed from its checkpoint with a fresh oracle.
fn run(make: &dyn Fn(u64) -> Box<dyn CostOracle>, suspend: bool) -> Vec<SessionOutcome> {
    let service = TuningService::with_threads(2).with_checkpoints(Arc::new(MemoryStore::new()));
    for session in 0..SESSIONS {
        service.submit(spec(session, make(session), suspend.then_some(4)));
    }
    let mut finished = Vec::new();
    while finished.len() < SESSIONS as usize {
        let outcome = service.take_next_outcome().expect("the service is running");
        if let SessionStatus::Suspended { .. } = outcome.status {
            let session: u64 = outcome.name["session-".len()..].parse().unwrap();
            service.restore(spec(session, make(session), None));
        } else {
            finished.push(outcome);
        }
    }
    finished.sort_by(|a, b| a.name.cmp(&b.name));
    finished
}

fn assert_same(reference: &[SessionOutcome], candidate: &[SessionOutcome]) {
    assert_eq!(reference.len(), candidate.len());
    for (a, b) in reference.iter().zip(candidate) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.status, b.status, "{} diverged", a.name);
        assert_eq!(a.receipts, b.receipts, "{} receipts diverged", a.name);
    }
}

fn bare(session: u64) -> Box<dyn CostOracle> {
    Box::new(turbulent(session))
}

fn timed(session: u64) -> Box<dyn CostOracle> {
    Box::new(TimedOracle::new(
        turbulent(session),
        Arc::new(CallLog::default()),
    ))
}

#[test]
fn the_storm_reaches_the_recovery_paths() {
    let outcomes = run(&bare, false);
    let faults: u32 = outcomes
        .iter()
        .flat_map(|o| &o.receipts)
        .map(|r| r.faults_observed)
        .sum();
    assert!(faults > 0, "the storm injected no recoverable fault");
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o.status, SessionStatus::Finished(_))),
        "every session recovers"
    );
}

#[test]
fn wrapped_sessions_match_bare_ones_under_the_storm() {
    assert_same(&run(&bare, false), &run(&timed, false));
}

#[test]
fn wrapped_sessions_match_bare_ones_across_suspend_and_restore() {
    let reference = run(&bare, false);
    assert_same(&reference, &run(&bare, true));
    assert_same(&reference, &run(&timed, true));
}

#[test]
fn the_wrapper_logs_every_call_including_faults() {
    let log = Arc::new(CallLog::default());
    let service = TuningService::with_threads(1);
    let oracle = TimedOracle::new(turbulent(3), Arc::clone(&log));
    service.submit(spec(3, Box::new(oracle), None));
    let outcome = service.take_next_outcome().expect("the service is running");
    let runs = outcome.report().expect("finished").explorations.len();
    let faults: u32 = outcome.receipts.iter().map(|r| r.faults_observed).sum();
    let calls = log.calls();
    assert_eq!(calls.iter().filter(|c| c.ok).count(), runs);
    assert!(log.faults() >= faults as usize);
    assert_eq!(log.run_us().len(), runs);
}

/// Forwards only the required methods: faults and durable state fall back
/// to the trait defaults.
struct Forgetful<O>(O);

impl<O: CostOracle> CostOracle for Forgetful<O> {
    fn space(&self) -> &ConfigSpace {
        self.0.space()
    }

    fn candidates(&self) -> Vec<ConfigId> {
        self.0.candidates()
    }

    fn run(&self, id: ConfigId) -> Observation {
        self.0.run(id)
    }

    fn price_rate(&self, id: ConfigId) -> f64 {
        self.0.price_rate(id)
    }
}

#[test]
fn a_wrapper_that_drops_methods_is_caught() {
    let reference = run(&bare, true);
    let forgetful = run(&|session| Box::new(Forgetful(turbulent(session))), true);
    let differs = reference
        .iter()
        .zip(&forgetful)
        .any(|(a, b)| a.status != b.status || a.receipts != b.receipts);
    assert!(differs, "the comparison cannot see a dropped method");
}
