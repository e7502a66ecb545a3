//! Bounded-queue admission control.
//!
//! A [`lynceus_core::TuningService`] accepts every submission and
//! interleaves them over one worker pool; with thousands of tenants that
//! is exactly wrong — each extra live session stretches every other
//! session's scheduling latency, and an unbounded registry grows without
//! limit under a misbehaving client. The admission layer in front of the
//! wire decides, *before* a spec is built or a session registered, whether
//! the pool can usefully take one more; past the cap it **sheds**: the
//! client gets `503` plus a `Retry-After` hint and nothing server-side
//! changed.
//!
//! Accounting is a hard invariant — every submission is either admitted or
//! shed (`admitted + shed == submitted`), and shedding is deterministic:
//! the decision depends only on the live count at the time of the call, so
//! a sequential burst against a paused service admits exactly
//! [`AdmissionPolicy::max_live`] sessions and sheds the rest, every time.
//! `bench_check` gates the published bench numbers on the same invariant.

use std::sync::Mutex;

/// When to shed and what to tell the shed client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum admitted-but-not-finished sessions. A submission arriving
    /// at the cap is shed. The default (4096) targets thousands of
    /// concurrent sessions on one box while bounding registry growth.
    pub max_live: usize,
    /// Advisory `Retry-After` (seconds) sent with a shed response.
    pub retry_after_seconds: u32,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            max_live: 4096,
            retry_after_seconds: 1,
        }
    }
}

/// A consistent snapshot of the admission counters.
/// `admitted + shed == submitted` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Submissions that reached admission (admitted + shed).
    pub submitted: u64,
    /// Submissions accepted into the service.
    pub admitted: u64,
    /// Submissions rejected at the cap.
    pub shed: u64,
    /// Admitted sessions not yet observed finished.
    pub live: usize,
}

/// The admission gate: a policy plus counters behind one mutex.
#[derive(Debug)]
pub struct Admission {
    policy: AdmissionPolicy,
    counters: Mutex<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    admitted: u64,
    shed: u64,
    finished: u64,
}

impl Admission {
    /// An admission gate with the given policy.
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            policy,
            counters: Mutex::new(Counters::default()),
        }
    }

    /// The policy this gate enforces.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Decides one submission: `Ok(())` admits it (the caller *must* later
    /// call [`Admission::finish`] exactly once for it), `Err(seconds)`
    /// sheds it with the advisory retry delay.
    pub fn try_admit(&self) -> Result<(), u32> {
        let mut counters = lynceus_core::poison::lock(&self.counters);
        let live = counters.admitted.saturating_sub(counters.finished);
        if live >= self.policy.max_live as u64 {
            counters.shed += 1;
            return Err(self.policy.retry_after_seconds);
        }
        counters.admitted += 1;
        Ok(())
    }

    /// Records that one admitted session reached a terminal state (or was
    /// cancelled before starting), freeing its admission slot.
    pub fn finish(&self) {
        let mut counters = lynceus_core::poison::lock(&self.counters);
        counters.finished += 1;
        debug_assert!(counters.finished <= counters.admitted);
    }

    /// A consistent snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        let counters = lynceus_core::poison::lock(&self.counters);
        AdmissionStats {
            submitted: counters.admitted + counters.shed,
            admitted: counters.admitted,
            shed: counters.shed,
            live: counters.admitted.saturating_sub(counters.finished) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sequential_burst_sheds_deterministically_at_the_cap() {
        let gate = Admission::new(AdmissionPolicy {
            max_live: 16,
            retry_after_seconds: 3,
        });
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for _ in 0..2000 {
            match gate.try_admit() {
                Ok(()) => admitted += 1,
                Err(retry_after) => {
                    assert_eq!(retry_after, 3);
                    shed += 1;
                }
            }
        }
        // With nothing finishing, exactly max_live are admitted — no more,
        // no fewer, on every run.
        assert_eq!(admitted, 16);
        assert_eq!(shed, 2000 - 16);
        let stats = gate.stats();
        assert_eq!(stats.submitted, 2000);
        assert_eq!(stats.admitted + stats.shed, stats.submitted);
        assert_eq!(stats.live, 16);
    }

    #[test]
    fn finishing_a_session_frees_its_slot() {
        let gate = Admission::new(AdmissionPolicy {
            max_live: 1,
            retry_after_seconds: 1,
        });
        assert!(gate.try_admit().is_ok());
        assert!(gate.try_admit().is_err());
        gate.finish();
        assert_eq!(gate.stats().live, 0);
        assert!(gate.try_admit().is_ok());
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed, stats.submitted), (2, 1, 3));
    }

    #[test]
    fn the_accounting_invariant_survives_concurrent_submitters() {
        let gate = std::sync::Arc::new(Admission::new(AdmissionPolicy {
            max_live: 64,
            retry_after_seconds: 1,
        }));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let gate = std::sync::Arc::clone(&gate);
                // lint: allow(thread-spawn) -- test-only concurrent submitters hammering the gate
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if gate.try_admit().is_ok() {
                            gate.finish();
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("submitter thread exited cleanly");
        }
        let stats = gate.stats();
        assert_eq!(stats.submitted, 2000);
        assert_eq!(stats.admitted + stats.shed, stats.submitted);
        assert_eq!(stats.live, 0);
    }
}
