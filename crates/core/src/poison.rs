//! Poison-tolerant lock acquisition for the panic-containment paths.
//!
//! The pool and the service scheduler contain user panics with
//! `catch_unwind`, so a panicking oracle never unwinds through scheduler
//! code while a lock is held. But *defense in depth*: if a bug ever did
//! panic a thread mid-critical-section, `Mutex::lock().expect(...)` at every
//! other site would cascade that single failure into a service-wide poison
//! panic — exactly the blast radius the per-session isolation exists to
//! prevent. Every lock in the containment paths therefore recovers the
//! guard from a poisoned lock instead of panicking: the protected state is
//! plain data (queues, counters, registries) whose invariants are restored
//! or checked by the next holder, and a possibly-stale view is strictly
//! better than taking down every unrelated session.
//!
//! (The `lynceus-lint` `no-panic` rule enforces this: `unwrap()`/`expect()`
//! are banned in `core::{pool,service,lynceus}` outside `#[cfg(test)]`.)
//!
//! The module is public so the other containment boundaries share this one
//! helper: the HTTP server (a handler that panicked mid-request must not
//! take down the registry or admission locks) and the fault-injecting
//! oracle wrapper (whose planned panics poison its locks by design).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar`, recovering the reacquired guard if a holder panicked
/// while the waiter was parked.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_a_poisoned_mutex() {
        let mutex = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&mutex);
        // lint: allow(thread-spawn) -- the test needs a raw thread to poison the lock; joined before any assertion
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7);
        *lock(&mutex) = 8;
        assert_eq!(*lock(&mutex), 8);
    }
}
