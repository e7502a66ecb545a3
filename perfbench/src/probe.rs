//! Timing wrappers around the seams the program already exposes.
//!
//! Nothing here changes what the program computes: every wrapper forwards
//! each trait method to the wrapped value and only reads the clock and
//! counts around the call. `tests/wrapper_fidelity.rs` holds the oracle
//! wrapper to that under a fault storm and across suspend/restore.

use lynceus_core::faults::OracleFault;
use lynceus_core::{CheckpointStore, CostOracle, DecisionReceipt, KnowledgeStore, Observation};
use lynceus_serve::{Client, ClientError, ClientResponse};
use lynceus_space::{ConfigId, ConfigSpace};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Locks a mutex whose data stays valid at every step (plain pushes and
/// counter bumps), so a panic elsewhere cannot leave it half-updated.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Milliseconds between two instants.
#[must_use]
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// One call into an oracle.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// When the call started.
    pub start: Instant,
    /// When it returned; `None` if it unwound (an injected panic).
    pub end: Option<Instant>,
    /// True when it returned an observation.
    pub ok: bool,
}

/// The calls one session made into its oracle, in order. Shared by every
/// oracle instance the session uses, so a restored session keeps appending.
#[derive(Debug)]
pub struct CallLog {
    /// When the oracle was handed to the program (the wire workload builds
    /// oracles inside the server's submit handler).
    pub created: Instant,
    calls: Mutex<Vec<Call>>,
    resumes: Mutex<Vec<usize>>,
}

impl Default for CallLog {
    fn default() -> Self {
        Self {
            created: Instant::now(),
            calls: Mutex::new(Vec::new()),
            resumes: Mutex::new(Vec::new()),
        }
    }
}

impl CallLog {
    /// Marks that the next call follows a suspend/restore, so the wait
    /// before it is not a decision.
    pub fn mark_resume(&self) {
        let next = lock(&self.calls).len();
        lock(&self.resumes).push(next);
    }

    /// The calls recorded so far.
    #[must_use]
    pub fn calls(&self) -> Vec<Call> {
        lock(&self.calls).clone()
    }

    fn resumes(&self) -> Vec<usize> {
        lock(&self.resumes).clone()
    }

    fn timed<T>(&self, ok: impl Fn(&T) -> bool, call: impl FnOnce() -> T) -> T {
        let index = {
            let mut calls = lock(&self.calls);
            calls.push(Call {
                start: Instant::now(),
                end: None,
                ok: false,
            });
            calls.len() - 1
        };
        // If `call` unwinds, the record keeps `end: None`.
        let result = call();
        let end = Instant::now();
        let mut calls = lock(&self.calls);
        calls[index].end = Some(end);
        calls[index].ok = ok(&result);
        result
    }

    /// Gaps in ms before each non-bootstrap profiling run: the start of a
    /// call minus the end of the call before it. The successful calls map
    /// one to one onto `receipts` (step order); a faulted call belongs to the
    /// step of the next successful one. Gaps after an unwound call or across
    /// a suspend/restore are skipped: they are recovery, not decisions.
    #[must_use]
    pub fn decision_gaps(&self, receipts: &[DecisionReceipt]) -> Vec<f64> {
        self.gaps_after_bootstrap(|step| receipts.get(step).map(|r| r.bootstrap))
    }

    /// [`CallLog::decision_gaps`] for a session whose receipts are not at
    /// hand but whose bootstrap is known to be its first `bootstrap` steps.
    #[must_use]
    pub fn decision_gaps_after(&self, bootstrap: usize) -> Vec<f64> {
        self.gaps_after_bootstrap(|step| Some(step < bootstrap))
    }

    fn gaps_after_bootstrap(&self, is_bootstrap: impl Fn(usize) -> Option<bool>) -> Vec<f64> {
        let calls = self.calls();
        let resumes = self.resumes();
        let mut gaps = Vec::new();
        let mut step = 0usize;
        for (i, call) in calls.iter().enumerate() {
            let bootstrap = is_bootstrap(step);
            if i > 0 && bootstrap == Some(false) && !resumes.contains(&i) {
                if let Some(previous_end) = calls[i - 1].end {
                    gaps.push(ms(previous_end, call.start));
                }
            }
            if call.ok {
                step += 1;
            }
        }
        gaps
    }

    /// Calls that faulted: an `Err` return or an unwind.
    #[must_use]
    pub fn faults(&self) -> usize {
        lock(&self.calls).iter().filter(|c| !c.ok).count()
    }

    /// Durations in µs of the calls that returned an observation.
    #[must_use]
    pub fn run_us(&self) -> Vec<f64> {
        lock(&self.calls)
            .iter()
            .filter(|c| c.ok)
            .filter_map(|c| c.end.map(|end| ms(c.start, end) * 1e3))
            .collect()
    }
}

/// A [`CostOracle`] that forwards every method to `inner` and logs the
/// start and end of each profiling run.
pub struct TimedOracle<O> {
    inner: O,
    log: Arc<CallLog>,
}

impl<O: CostOracle> TimedOracle<O> {
    /// Wraps `inner`, appending to `log`.
    pub fn new(inner: O, log: Arc<CallLog>) -> Self {
        Self { inner, log }
    }
}

impl<O: CostOracle> CostOracle for TimedOracle<O> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn candidates(&self) -> Vec<ConfigId> {
        self.inner.candidates()
    }

    fn run(&self, id: ConfigId) -> Observation {
        self.log.timed(|_| true, || self.inner.run(id))
    }

    fn try_run(&self, id: ConfigId) -> Result<Observation, OracleFault> {
        self.log.timed(Result::is_ok, || self.inner.try_run(id))
    }

    fn durable_state(&self) -> Option<Vec<u8>> {
        self.inner.durable_state()
    }

    fn restore_durable_state(&self, bytes: &[u8]) -> bool {
        self.inner.restore_durable_state(bytes)
    }

    fn price_rate(&self, id: ConfigId) -> f64 {
        self.inner.price_rate(id)
    }
}

/// What a [`TimedStore`] saw.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// `save` calls.
    pub saves: u64,
    /// `load` calls.
    pub loads: u64,
    /// Bytes passed to `save`.
    pub saved_bytes: u64,
    /// Duration of each `save` in µs (traced runs only).
    pub save_us: Vec<f64>,
    /// Every fourth saved blob, for decode replays (traced runs only).
    pub blobs: Vec<Vec<u8>>,
    /// Blobs returned by `load` (traced runs only).
    pub loaded: Vec<Vec<u8>>,
}

/// A traced store keeps every `BLOB_STRIDE`-th saved blob, up to
/// `BLOB_SAMPLE` of them, for decode replays.
const BLOB_STRIDE: u64 = 4;
const BLOB_SAMPLE: usize = 512;

/// A checkpoint or knowledge store that forwards to `inner` and counts,
/// sizes and (when traced) times each call.
pub struct TimedStore<S: ?Sized> {
    inner: Arc<S>,
    traced: bool,
    stats: Mutex<StoreStats>,
}

impl<S: ?Sized> TimedStore<S> {
    /// Wraps `inner`; with `traced`, also reads the clock around saves and
    /// keeps a sample of blobs.
    pub fn new(inner: Arc<S>, traced: bool) -> Self {
        Self {
            inner,
            traced,
            stats: Mutex::new(StoreStats::default()),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        lock(&self.stats).clone()
    }

    fn save_with(&self, bytes: &[u8], save: impl FnOnce()) {
        let start = self.traced.then(Instant::now);
        save();
        let elapsed = start.map(|s| s.elapsed().as_secs_f64() * 1e6);
        let mut stats = lock(&self.stats);
        stats.saves += 1;
        stats.saved_bytes += bytes.len() as u64;
        if let Some(us) = elapsed {
            stats.save_us.push(us);
            if stats.saves.is_multiple_of(BLOB_STRIDE) && stats.blobs.len() < BLOB_SAMPLE {
                stats.blobs.push(bytes.to_vec());
            }
        }
    }

    fn load_with(&self, load: impl FnOnce() -> Option<Vec<u8>>) -> Option<Vec<u8>> {
        let bytes = load();
        let mut stats = lock(&self.stats);
        stats.loads += 1;
        if let (true, Some(bytes)) = (self.traced, &bytes) {
            stats.loaded.push(bytes.clone());
        }
        bytes
    }
}

impl CheckpointStore for TimedStore<dyn CheckpointStore> {
    fn save(&self, name: &str, bytes: &[u8]) {
        self.save_with(bytes, || self.inner.save(name, bytes));
    }

    fn load(&self, name: &str) -> Option<Vec<u8>> {
        self.load_with(|| self.inner.load(name))
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name);
    }
}

impl KnowledgeStore for TimedStore<dyn KnowledgeStore> {
    fn save(&self, job_key: &str, bytes: &[u8]) {
        self.save_with(bytes, || self.inner.save(job_key, bytes));
    }

    fn load(&self, job_key: &str) -> Option<Vec<u8>> {
        self.load_with(|| self.inner.load(job_key))
    }

    fn remove(&self, job_key: &str) {
        self.inner.remove(job_key);
    }
}

/// The kind of a wire request, for the per-layer breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `POST /v1/sessions`.
    Submit,
    /// `GET /v1/sessions/{id}?wait=1`.
    Poll,
    /// `GET /v1/sessions/{id}/report`.
    Report,
    /// `GET /v1/stats`.
    Stats,
    /// Any other request.
    Other,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// What it was.
    pub kind: RequestKind,
    /// Client-side time from the first byte written to the last byte read.
    pub ms: f64,
    /// The status code; 0 for a transport error.
    pub status: u16,
    /// Request plus response body bytes.
    pub bytes: usize,
}

/// A [`Client`] that times every request.
pub struct TimedClient {
    client: Client,
    /// Every request sent so far.
    pub requests: Vec<RequestRecord>,
}

impl TimedClient {
    /// Wraps a connected client.
    #[must_use]
    pub fn new(client: Client) -> Self {
        Self {
            client,
            requests: Vec::new(),
        }
    }

    /// Sends one request and records it.
    ///
    /// # Errors
    ///
    /// Returns the client's transport or protocol error (recorded with
    /// status 0).
    pub fn send(
        &mut self,
        kind: RequestKind,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let start = Instant::now();
        let result = self.client.request(method, target, body);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let sent = body.map_or(0, str::len);
        let (status, received) = result
            .as_ref()
            .map_or((0, 0), |response| (response.status, response.body.len()));
        self.requests.push(RequestRecord {
            kind,
            ms,
            status,
            bytes: sent + received,
        });
        result
    }
}
