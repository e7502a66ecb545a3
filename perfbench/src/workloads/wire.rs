//! `wire-light`: the HTTP front-end with the decision engine nearly idle.
//!
//! A closed loop against an in-process `Server` with 2 service lanes: 2
//! client connections each run half of `SESSIONS` small valley-oracle
//! sessions (LA 1 and, one in four, LA 0; the `service_http` engine mix)
//! as submit →
//! `?wait=1` → `/report`, then a held-mode burst of `BURST` submissions
//! past `max_live = MAX_LIVE`. Client connections close before every
//! server shutdown. The workload seed sets which connection runs which
//! session, and in what order.

use super::{
    common_layers, count, end_to_end, learners_layer, repeat_setup, run_rounds, store_layers,
    timing, trace_overhead, training_case, Round, Session,
};
use crate::digest::permutation;
use crate::probe::{lock, ms, CallLog, RequestKind, RequestRecord, TimedClient, TimedOracle};
use crate::report::{Check, Metric, Outcome};
use crate::stats::RunShape;
use lynceus_core::{
    CostOracle, LynceusOptimizer, OptimizationReport, Optimizer, OptimizerSettings, PathEngine,
    TableOracle,
};
use lynceus_serve::wire::{self, SpecRequest};
use lynceus_serve::{AdmissionPolicy, Client, OracleFactory, Server, ServerConfig};
use lynceus_space::SpaceBuilder;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "wire-light";
const LANES: usize = 2;
const CONNECTIONS: usize = 2;
/// Sessions per closed-loop round.
pub const SESSIONS: u64 = 100;
const BURST: usize = 40;
const MAX_LIVE: usize = 8;
const STATS_PROBES: usize = 30;
/// Setups timed before the measured rounds; `setup_s` is their median.
const SETUPS: usize = 51;

/// The valley landscape of session `i`'s oracle.
fn shift(i: u64) -> f64 {
    1.0 + (i % 5) as f64
}

/// A 40-configuration valley whose minimum sits at `x = shift, y = 1`.
#[must_use]
pub fn valley_oracle(shift: f64) -> TableOracle {
    let space = SpaceBuilder::new()
        .numeric("x", (0..10).map(f64::from))
        .numeric("y", (0..4).map(f64::from))
        .build();
    TableOracle::from_fn(space, 1.0, move |f| {
        20.0 + (f[0] - shift).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 8.0
    })
}

/// Settings of session `i`: three sessions in four look ahead (LA 1), the
/// rest are myopic (LA 0). The median decision gap then falls inside the
/// LA 1 mode; with a 1:1 mix it would sit between the two modes and jump
/// with every run.
#[must_use]
pub fn settings_for(i: u64) -> OptimizerSettings {
    OptimizerSettings {
        budget: 320.0 + 30.0 * (i % 4) as f64,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(3),
        lookahead: usize::from(!i.is_multiple_of(4)),
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    }
}

/// Engine of session `i`: the three engines in turn.
#[must_use]
pub fn engine_for(i: u64) -> PathEngine {
    match i % 3 {
        0 => PathEngine::BoundAndPrune,
        1 => PathEngine::Batched,
        _ => PathEngine::NaiveReference,
    }
}

/// Digest key of session `i`.
#[must_use]
pub fn key(i: u64) -> String {
    format!("valley-{i}")
}

/// Session `i` run solo, through `LynceusOptimizer::optimize`.
#[must_use]
pub fn solo(i: u64, log: Arc<CallLog>) -> OptimizationReport {
    let oracle = TimedOracle::new(valley_oracle(shift(i)), log);
    LynceusOptimizer::new(settings_for(i))
        .with_engine(engine_for(i))
        .optimize(&oracle, i)
}

/// Oracle logs by oracle name, filled by the server-side factory.
type Registry = Arc<Mutex<HashMap<String, Arc<CallLog>>>>;

/// Resolves `valley-{shift}-{tag}` to a timed valley oracle and registers
/// its log under the full name.
fn factory(registry: &Registry) -> OracleFactory {
    let registry = Arc::clone(registry);
    Arc::new(move |name: &str| -> Option<Box<dyn CostOracle>> {
        let (shift, _tag) = name.strip_prefix("valley-")?.split_once('-')?;
        let shift: f64 = shift.parse().ok()?;
        let log = Arc::new(CallLog::default());
        lock(&registry).insert(name.to_owned(), Arc::clone(&log));
        Some(Box::new(TimedOracle::new(valley_oracle(shift), log)))
    })
}

fn oracle_name(i: u64, round: usize) -> String {
    format!("valley-{}-r{round}s{i}", shift(i))
}

fn spec_body(i: u64, round: usize) -> String {
    let mut spec = SpecRequest::new(
        format!("load-{round}-{i}"),
        oracle_name(i, round),
        settings_for(i),
        i,
    );
    spec.engine = engine_for(i);
    wire::encode_spec(&spec).to_json()
}

struct Setup {
    // Field order is drop order: clients close before servers shut down.
    clients: Vec<TimedClient>,
    server: Server,
    burst_server: Server,
    registry: Registry,
    /// Session indices per connection.
    plan: Vec<Vec<u64>>,
}

fn build(seed: u64) -> Setup {
    let registry: Registry = Arc::default();
    let config = ServerConfig {
        service_threads: LANES,
        ..ServerConfig::default()
    };
    let server = Server::start(config.clone(), factory(&registry)).expect("server starts");
    let burst_server = Server::start(
        ServerConfig {
            hold_sessions: true,
            admission: AdmissionPolicy {
                max_live: MAX_LIVE,
                retry_after_seconds: 1,
            },
            ..config
        },
        factory(&registry),
    )
    .expect("burst server starts");
    let clients = (0..CONNECTIONS)
        .map(|_| TimedClient::new(Client::connect(server.addr()).expect("client connects")))
        .collect();
    let order = permutation(SESSIONS as usize, seed);
    let plan = (0..CONNECTIONS)
        .map(|c| {
            order
                .iter()
                .skip(c)
                .step_by(CONNECTIONS)
                .map(|&i| i as u64)
                .collect()
        })
        .collect();
    Setup {
        clients,
        server,
        burst_server,
        registry,
        plan,
    }
}

/// A wire session as one connection saw it.
struct WireSession {
    index: u64,
    wire_id: Option<usize>,
    submitted: Instant,
    outcome_at: Instant,
    delivered: Instant,
    report: Option<OptimizationReport>,
    error: Option<String>,
    decode_us: Option<f64>,
}

/// Runs one session over one connection: submit, long-poll, report.
fn drive(client: &mut TimedClient, i: u64, round: usize, traced: bool) -> WireSession {
    let submitted = Instant::now();
    let mut session = WireSession {
        index: i,
        wire_id: None,
        submitted,
        outcome_at: submitted,
        delivered: submitted,
        report: None,
        error: None,
        decode_us: None,
    };
    let body = spec_body(i, round);
    let accepted = client.send(RequestKind::Submit, "POST", "/v1/sessions", Some(&body));
    let id = match accepted {
        Ok(r) if r.status == 202 => r.json().ok().and_then(|v| v.get("id")?.as_usize()),
        Ok(r) => {
            session.error = Some(format!("submit answered {}", r.status));
            None
        }
        Err(e) => {
            session.error = Some(e.to_string());
            None
        }
    };
    let Some(id) = id else {
        session
            .error
            .get_or_insert_with(|| "no id in the accept body".to_owned());
        return session;
    };
    session.wire_id = Some(id);
    let polled = client.send(
        RequestKind::Poll,
        "GET",
        &format!("/v1/sessions/{id}?wait=1"),
        None,
    );
    session.outcome_at = Instant::now();
    if !matches!(&polled, Ok(r) if r.status == 200) {
        session.error = Some("long-poll failed".to_owned());
        return session;
    }
    let fetched = client.send(
        RequestKind::Report,
        "GET",
        &format!("/v1/sessions/{id}/report"),
        None,
    );
    match fetched {
        Ok(response) if response.status == 200 => {
            let start = traced.then(Instant::now);
            let report = response
                .json()
                .ok()
                .and_then(|body| wire::decode_report(body.get("report")?).ok());
            session.decode_us = start.map(|s| s.elapsed().as_secs_f64() * 1e6);
            session.delivered = Instant::now();
            match report {
                Some(report) => session.report = Some(report),
                None => session.error = Some("report does not decode".to_owned()),
            }
        }
        _ => session.error = Some("report fetch failed".to_owned()),
    }
    session
}

struct WireRound {
    round: Round,
    wire_ids: Vec<Option<usize>>,
    decode_us: Vec<f64>,
}

fn round(setup: &mut Setup, index: usize, traced: bool) -> WireRound {
    let start = Instant::now();
    let marks: Vec<usize> = setup.clients.iter().map(|c| c.requests.len()).collect();
    let plan = &setup.plan;
    let driven: Vec<WireSession> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .zip(plan)
            .map(|(client, indices)| {
                scope.spawn(move || {
                    indices
                        .iter()
                        .map(|&i| drive(client, i, index, traced))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let requests: Vec<RequestRecord> = setup
        .clients
        .iter()
        .zip(marks)
        .flat_map(|(c, mark)| c.requests[mark..].to_vec())
        .collect();
    let logs = lock(&setup.registry).clone();
    let mut wire_ids = Vec::new();
    let mut decode_us = Vec::new();
    let sessions = driven
        .into_iter()
        .map(|d| {
            let log = logs
                .get(&oracle_name(d.index, index))
                .cloned()
                .unwrap_or_default();
            let mut session = Session::new(key(d.index), d.submitted, log);
            session.outcome_at = d.outcome_at;
            session.bootstrap = settings_for(d.index).bootstrap_samples;
            session.delivered = d.delivered;
            session.error = d.error;
            if let Some(report) = d.report {
                let oracle = valley_oracle(shift(d.index));
                session.feasible = report
                    .recommended
                    .map(|id| oracle.runtime(id) <= report.tmax_seconds);
                session.cno = report.recommended_cost.and_then(|cost| {
                    oracle
                        .optimum_cost(report.tmax_seconds)
                        .map(|best| cost / best)
                });
                session.report = Some(report);
            }
            wire_ids.push(d.wire_id);
            decode_us.extend(d.decode_us);
            session
        })
        .collect();
    WireRound {
        round: Round {
            sessions,
            wall_s,
            requests,
        },
        wire_ids,
        decode_us,
    }
}

/// The held-mode burst: `BURST` submissions against `max_live = MAX_LIVE`
/// over one fresh connection, closed before returning. Returns the
/// requests, the burst's wall time and the admission checks.
fn burst(setup: &Setup) -> (Vec<RequestRecord>, f64, Vec<Check>) {
    let mut client = TimedClient::new(
        Client::connect(setup.burst_server.addr()).expect("burst client connects"),
    );
    let body = spec_body(0, usize::MAX);
    let start = Instant::now();
    for _ in 0..BURST {
        // Failures are recorded with the request and counted as failed.
        let _ = client.send(RequestKind::Submit, "POST", "/v1/sessions", Some(&body));
    }
    let wall = start.elapsed().as_secs_f64();
    let requests = std::mem::take(&mut client.requests);
    drop(client);
    let mut accounted = 0;
    for server in [&setup.server, &setup.burst_server] {
        let stats = server.admission_stats();
        accounted += u64::from(stats.admitted + stats.shed == stats.submitted);
    }
    let held = setup.burst_server.admission_stats();
    let exact = held.admitted == MAX_LIVE as u64 && held.shed == (BURST - MAX_LIVE) as u64;
    let checks = vec![
        Check::gate("admitted+shed==submitted", accounted, 2),
        Check::gate("burst-admits-max-live", u64::from(exact), 1),
    ];
    (requests, wall, checks)
}

/// Serve-layer metrics of a workload that runs no server: zero counts and
/// timings without samples.
#[must_use]
pub fn idle_serve_layer() -> Vec<Metric> {
    let none = |name: &str, unit: &'static str| Metric::new(name, unit, None, 0);
    vec![
        none("serve.stats_ms_p50", "ms"),
        none("serve.submit_ms_p50", "ms"),
        none("serve.poll_ms_p50", "ms"),
        none("serve.report_ms_p50", "ms"),
        none("serve.client_decode_us_p50", "us"),
        none("serve.bytes_per_session", "bytes"),
        none("serve.burst_req_per_s", "1/s"),
        count("serve.admitted", 0),
        count("serve.shed", 0),
        none("serve.shutdown_ms", "ms"),
    ]
}

/// Time `Server::shutdown` takes with one idle keep-alive connection open
/// at the default read timeout.
fn shutdown_with_idle_connection(registry: &Registry) -> f64 {
    let server = Server::start(ServerConfig::default(), factory(registry)).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let answered = client.get("/v1/stats").map(|r| r.status);
    assert_eq!(answered.ok(), Some(200), "the stats endpoint answers");
    let start = Instant::now();
    server.shutdown();
    let elapsed = ms(start, Instant::now());
    drop(client);
    elapsed
}

/// Fetches the receipt trail of every session of a traced round (outside
/// the measured wall time).
fn fetch_receipts(setup: &mut Setup, traced: &mut [WireRound]) {
    let client = &mut setup.clients[0];
    for wire_round in traced {
        for (session, id) in wire_round
            .round
            .sessions
            .iter_mut()
            .zip(&wire_round.wire_ids)
        {
            let Some(id) = id else { continue };
            let Ok(response) = client.send(
                RequestKind::Other,
                "GET",
                &format!("/v1/sessions/{id}/receipts"),
                None,
            ) else {
                continue;
            };
            let receipts = response.json().ok().and_then(|body| {
                body.get("receipts")?
                    .as_arr()?
                    .iter()
                    .map(|r| wire::decode_receipt(r).ok())
                    .collect::<Option<Vec<_>>>()
            });
            session.receipts = receipts.unwrap_or_default();
        }
    }
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Outcome, RunShape, usize) {
    let shape = RunShape::new(LANES, CONNECTIONS);
    let (setup_s, mut setup) = repeat_setup(SETUPS, || build(seed));
    // A traced run measures one untraced and one traced round, so its
    // counts are per round and repeat exactly.
    let untraced = run_rounds(if trace { 0.0 } else { seconds }, |i| {
        round(&mut setup, i, false)
    });
    if !trace {
        let (requests, _, checks) = burst(&setup);
        let mut rounds: Vec<Round> = untraced.into_iter().map(|w| w.round).collect();
        let count = rounds.len();
        rounds.push(Round {
            requests,
            ..Round::default()
        });
        return (end_to_end(NAME, &rounds, &setup_s, checks), shape, count);
    }
    let mut traced = vec![round(&mut setup, 1, true)];
    let mut stats_ms = Vec::new();
    for client in &mut setup.clients {
        for _ in 0..STATS_PROBES {
            let _ = client.send(RequestKind::Stats, "GET", "/v1/stats", None);
        }
        stats_ms.extend(
            client
                .requests
                .iter()
                .filter(|r| r.kind == RequestKind::Stats)
                .map(|r| r.ms),
        );
    }
    fetch_receipts(&mut setup, &mut traced);
    let (burst_requests, burst_wall, checks) = burst(&setup);
    let statuses = traced
        .iter()
        .flat_map(|w| &w.round.requests)
        .chain(&burst_requests)
        .filter(|r| r.kind == RequestKind::Submit);
    let (admitted, shed) = statuses.fold((0, 0), |(a, s), r| {
        (
            a + u64::from(r.status == 202),
            s + u64::from(r.status == 503),
        )
    });
    let shutdown_ms = shutdown_with_idle_connection(&setup.registry);

    let decode_us: Vec<f64> = traced.iter().flat_map(|w| w.decode_us.clone()).collect();
    let untraced_rounds: Vec<Round> = untraced.into_iter().map(|w| w.round).collect();
    let traced_rounds: Vec<Round> = traced.into_iter().map(|w| w.round).collect();
    let by_kind = |kind: RequestKind| -> Vec<f64> {
        traced_rounds
            .iter()
            .flat_map(|r| &r.requests)
            .filter(|r| r.kind == kind)
            .map(|r| r.ms)
            .collect()
    };
    let sessions: usize = traced_rounds.iter().map(|r| r.sessions.len()).sum();
    let session_bytes: usize = traced_rounds
        .iter()
        .flat_map(|r| &r.requests)
        .map(|r| r.bytes)
        .sum();
    let serve = vec![
        timing("serve.stats_ms_p50", "ms", &stats_ms, 50.0),
        timing(
            "serve.submit_ms_p50",
            "ms",
            &by_kind(RequestKind::Submit),
            50.0,
        ),
        timing("serve.poll_ms_p50", "ms", &by_kind(RequestKind::Poll), 50.0),
        timing(
            "serve.report_ms_p50",
            "ms",
            &by_kind(RequestKind::Report),
            50.0,
        ),
        timing("serve.client_decode_us_p50", "us", &decode_us, 50.0),
        Metric::new(
            "serve.bytes_per_session",
            "bytes",
            (sessions > 0).then(|| session_bytes as f64 / sessions as f64),
            sessions,
        ),
        Metric::new(
            "serve.burst_req_per_s",
            "1/s",
            (burst_wall > 0.0).then(|| BURST as f64 / burst_wall),
            burst_requests.len(),
        ),
        count("serve.admitted", admitted),
        count("serve.shed", shed),
        Metric::new("serve.shutdown_ms", "ms", Some(shutdown_ms), 1),
    ];

    let mut all = traced_rounds;
    let trace_metric = trace_overhead(&untraced_rounds, &all);
    all.push(Round {
        requests: burst_requests,
        ..Round::default()
    });
    let mut outcome = end_to_end(NAME, &all, &setup_s, checks);
    all.pop();
    outcome.metrics.clear();

    let mut self_gaps = Vec::new();
    let mut cases = Vec::new();
    for session in &all[0].sessions {
        let i: u64 = session.key["valley-".len()..]
            .parse()
            .expect("wire keys end in an index");
        let log = Arc::new(CallLog::default());
        let report = solo(i, Arc::clone(&log));
        self_gaps.extend(log.decision_gaps(&session.receipts));
        cases.push(training_case(&valley_oracle(shift(i)), &report));
    }
    outcome.metrics.extend(common_layers(&all, &self_gaps));
    outcome.metrics.extend(learners_layer(&cases, 1));
    outcome
        .metrics
        .extend(store_layers(&Default::default(), &Default::default()));
    outcome.metrics.extend(serve);
    outcome.metrics.push(trace_metric);
    (outcome, shape, all.len())
}
