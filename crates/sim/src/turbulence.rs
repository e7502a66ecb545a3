//! Deterministic turbulence: wraps any [`CostOracle`] in a seeded storm.
//!
//! [`TurbulentOracle`] consumes a [`FaultPlan`] (see [`lynceus_core::faults`])
//! and injects its scheduled failures into the oracle's fallible channel:
//! revocations and transient errors surface as [`OracleFault`]s for the
//! service's retry policy, panics unwind mid-step to exercise checkpoint
//! recovery, and price shocks multiply every later run's realized cost.
//! Faults are keyed by **oracle call index** — the only clock the wrapper
//! knows — so the same `(oracle, plan)` pair produces the same storm under
//! any scheduler interleave, thread count, or kill-and-resume split.
//!
//! Two pieces of state with deliberately different lifetimes:
//!
//! * the **durable cursor** (call count, accumulated price multiplier) rides
//!   inside session checkpoints via [`CostOracle::durable_state`], so a
//!   restored session replays prices bit-identically;
//! * the **fired set** is in-memory only: when the service restores a
//!   panicked session from its checkpoint, the cursor rewinds to the
//!   decision boundary and the panicking call index is re-issued — the fired
//!   set is what makes the planned panic a *one-shot* fault instead of an
//!   infinite crash loop.

use lynceus_core::codec::{Decoder, Encoder};
use lynceus_core::faults::{FaultKind, FaultPlan, FaultProfile, OracleFault};
use lynceus_core::{CostOracle, Observation};
use lynceus_space::{ConfigId, ConfigSpace};
// Planned panics poison the wrapper's mutexes by design; the state under
// them is always consistent (updated before the unwind), so every lock
// recovers the guard.
use lynceus_core::poison::lock;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The checkpointed part of the wrapper's state.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// Calls the wrapped oracle has received (faulted calls included).
    calls: u64,
    /// Product of every price shock fired so far.
    price_multiplier: f64,
}

/// A [`CostOracle`] wrapper that injects the faults of a [`FaultPlan`].
/// See the [module docs](self) for the determinism contract.
pub struct TurbulentOracle<O> {
    inner: O,
    plan: FaultPlan,
    cursor: Mutex<Cursor>,
    /// Call indices whose fault already fired in this process (one-shot
    /// semantics; intentionally *not* durable — see the module docs).
    fired: Mutex<BTreeSet<u64>>,
}

impl<O: CostOracle> TurbulentOracle<O> {
    /// Wraps an oracle with a fault plan.
    #[must_use]
    pub fn new(inner: O, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            cursor: Mutex::new(Cursor {
                calls: 0,
                price_multiplier: 1.0,
            }),
            fired: Mutex::new(BTreeSet::new()),
        }
    }

    /// Wraps an oracle with a seeded storm ([`FaultPlan::seeded`]).
    #[must_use]
    pub fn seeded(inner: O, seed: u64, profile: &FaultProfile, horizon: u64) -> Self {
        Self::new(inner, FaultPlan::seeded(seed, profile, horizon))
    }

    /// The fault schedule.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Calls received so far (faulted calls included).
    #[must_use]
    pub fn calls(&self) -> u64 {
        lock(&self.cursor).calls
    }

    /// The accumulated spot-price multiplier.
    #[must_use]
    pub fn price_multiplier(&self) -> f64 {
        lock(&self.cursor).price_multiplier
    }

    /// Unwraps the inner oracle.
    #[must_use]
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: CostOracle> CostOracle for TurbulentOracle<O> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn candidates(&self) -> Vec<ConfigId> {
        self.inner.candidates()
    }

    /// Infallible channel: turbulence is meaningless without a retry path,
    /// so planned faults reaching `run` escalate to a panic (which the
    /// service still contains to the session).
    fn run(&self, id: ConfigId) -> Observation {
        self.try_run(id)
            .unwrap_or_else(|fault| panic!("unrecoverable turbulence: {fault}"))
    }

    fn try_run(&self, id: ConfigId) -> Result<Observation, OracleFault> {
        let call = {
            let mut cursor = lock(&self.cursor);
            let call = cursor.calls;
            cursor.calls += 1;
            call
        };
        // `insert` is false when this index already fired: the fault is
        // spent and the call proceeds clean.
        let fault = self
            .plan
            .fault_at(call)
            .filter(|_| lock(&self.fired).insert(call));
        if let Some(kind) = fault {
            match kind {
                FaultKind::Revocation => return Err(OracleFault::Revoked),
                FaultKind::TransientError => {
                    return Err(OracleFault::Transient(format!(
                        "injected turbulence at oracle call {call}"
                    )));
                }
                FaultKind::Panic => panic!("injected mid-step panic at oracle call {call}"),
                FaultKind::PriceShock(factor) => {
                    lock(&self.cursor).price_multiplier *= factor;
                }
            }
        }
        let mut observation = self.inner.try_run(id)?;
        observation.cost *= lock(&self.cursor).price_multiplier;
        Ok(observation)
    }

    fn durable_state(&self) -> Option<Vec<u8>> {
        let cursor = *lock(&self.cursor);
        let mut enc = Encoder::new();
        enc.put_u64(cursor.calls);
        enc.put_f64(cursor.price_multiplier);
        Some(enc.finish())
    }

    fn restore_durable_state(&self, bytes: &[u8]) -> bool {
        let mut dec = Decoder::new(bytes);
        let (Ok(calls), Ok(price_multiplier)) = (dec.get_u64(), dec.get_f64()) else {
            return false;
        };
        if !(dec.is_finished() && price_multiplier.is_finite() && price_multiplier > 0.0) {
            return false;
        }
        *lock(&self.cursor) = Cursor {
            calls,
            price_multiplier,
        };
        true
    }

    /// The quoted on-demand rate is forwarded unshocked: shocks hit the
    /// *realized* cost of later runs, not the constraint arithmetic.
    fn price_rate(&self, id: ConfigId) -> f64 {
        self.inner.price_rate(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_core::TableOracle;
    use lynceus_space::SpaceBuilder;

    fn flat_oracle() -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("x", (0..4).map(f64::from))
            .build();
        TableOracle::from_fn(space, 1.0, |f| 10.0 + f[0])
    }

    fn any_id(oracle: &TableOracle) -> ConfigId {
        oracle.candidates()[0]
    }

    #[test]
    fn faults_fire_at_their_call_indices_and_counting_includes_faulted_calls() {
        let plan = FaultPlan::new()
            .with_fault(1, FaultKind::Revocation)
            .with_fault(2, FaultKind::TransientError);
        let oracle = TurbulentOracle::new(flat_oracle(), plan);
        let id = any_id(&flat_oracle());
        assert!(oracle.try_run(id).is_ok()); // call 0
        assert_eq!(oracle.try_run(id), Err(OracleFault::Revoked)); // call 1
        let transient = oracle.try_run(id); // call 2
        assert!(
            matches!(&transient, Err(OracleFault::Transient(m)) if m.contains("call 2")),
            "unexpected: {transient:?}"
        );
        assert!(oracle.try_run(id).is_ok()); // call 3: skies clear
        assert_eq!(oracle.calls(), 4);
    }

    #[test]
    fn price_shocks_multiply_every_later_cost() {
        let plan = FaultPlan::new().with_fault(1, FaultKind::PriceShock(2.0));
        let oracle = TurbulentOracle::new(flat_oracle(), plan);
        let id = any_id(&flat_oracle());
        let before = oracle.try_run(id).unwrap().cost;
        let shocked = oracle.try_run(id).unwrap().cost; // the shocked call completes
        let after = oracle.try_run(id).unwrap().cost;
        assert!((shocked - 2.0 * before).abs() < 1e-12);
        assert!((after - 2.0 * before).abs() < 1e-12);
        assert_eq!(oracle.price_multiplier(), 2.0);
        // The quoted rate is unshocked.
        assert_eq!(oracle.price_rate(id), 1.0);
    }

    #[test]
    fn planned_panics_are_one_shot() {
        let plan = FaultPlan::new().with_fault(0, FaultKind::Panic);
        let oracle = TurbulentOracle::new(flat_oracle(), plan);
        let id = any_id(&flat_oracle());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = oracle.try_run(id);
        }));
        assert!(unwound.is_err(), "call 0 must panic as planned");
        // The service rewinds the durable cursor on restore; re-issuing the
        // same call index must now run clean instead of crash-looping.
        assert!(oracle.restore_durable_state(&oracle_state_with_calls(&oracle, 0)));
        assert!(oracle.try_run(id).is_ok());
    }

    /// Durable state with the call counter rewound (what a checkpoint
    /// restore effectively does).
    fn oracle_state_with_calls<O: CostOracle>(oracle: &TurbulentOracle<O>, calls: u64) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(calls);
        enc.put_f64(lock(&oracle.cursor).price_multiplier);
        enc.finish()
    }

    #[test]
    fn durable_state_round_trips_and_garbage_is_rejected() {
        let plan = FaultPlan::new().with_fault(1, FaultKind::PriceShock(1.5));
        let oracle = TurbulentOracle::new(flat_oracle(), plan.clone());
        let id = any_id(&flat_oracle());
        let _ = oracle.try_run(id);
        let _ = oracle.try_run(id);
        let state = oracle.durable_state().expect("turbulence is stateful");

        let twin = TurbulentOracle::new(flat_oracle(), plan);
        assert!(twin.restore_durable_state(&state));
        assert_eq!(twin.calls(), 2);
        assert_eq!(twin.price_multiplier(), 1.5);

        assert!(!twin.restore_durable_state(&[1, 2, 3]), "truncated");
        let mut enc = Encoder::new();
        enc.put_u64(0);
        enc.put_f64(-1.0);
        assert!(
            !twin.restore_durable_state(&enc.finish()),
            "non-positive multipliers are rejected"
        );
        assert_eq!(twin.calls(), 2, "rejected restores leave the cursor alone");
    }

    #[test]
    fn same_plan_same_storm() {
        let profile = FaultProfile::default();
        let a = TurbulentOracle::seeded(flat_oracle(), 9, &profile, 100);
        let b = TurbulentOracle::seeded(flat_oracle(), 9, &profile, 100);
        assert_eq!(a.plan(), b.plan());
        let id = any_id(&flat_oracle());
        for _ in 0..100 {
            // Skip planned panics for the comparison: catching both sides
            // keeps the call counters in lock-step.
            let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.try_run(id)));
            let rb = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.try_run(id)));
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => assert_eq!(ra, rb),
                (Err(_), Err(_)) => {}
                _ => panic!("the storms diverged"),
            }
        }
        assert_eq!(a.calls(), b.calls());
        assert_eq!(a.price_multiplier(), b.price_multiplier());
    }

    #[test]
    fn the_infallible_channel_escalates_faults_to_panics() {
        let plan = FaultPlan::new().with_fault(0, FaultKind::Revocation);
        let oracle = TurbulentOracle::new(flat_oracle(), plan);
        let id = any_id(&flat_oracle());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| oracle.run(id)));
        assert!(unwound.is_err());
        assert_eq!(oracle.into_inner().price_rate(id), 1.0);
    }
}
