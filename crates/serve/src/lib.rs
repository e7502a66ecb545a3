//! # lynceus-serve — the tuner as a service
//!
//! A std-only HTTP/1.1 + JSON front-end over
//! [`lynceus_core::TuningService`]: submit a session spec over the wire,
//! poll or long-poll its status, fetch the report and decision-receipt
//! trail, cancel it — from any client that can open a TCP socket.
//!
//! Everything here is hand-rolled on `std` alone, the same discipline as
//! `core::codec`: no HTTP framework, no serde, no registry access. The
//! [`http`] module parses requests byte-by-byte with hard limits; the
//! [`json`] module is a strict parser/printer whose `f64` round-trip is
//! bit-exact (shortest-decimal form) and whose `u64` literals survive
//! untouched; the [`wire`] module defines versioned, unknown-field-
//! rejecting JSON forms for every core type that crosses the wire.
//!
//! ## Determinism over the wire
//!
//! The load-bearing guarantee: a session submitted over HTTP produces the
//! **bit-identical** report and receipt trail of the same spec run solo
//! in-process, at any thread count. The wire moves plain data only —
//! oracles are resolved server-side through an [`server::OracleFactory`],
//! floats travel in shortest-decimal form, and seeds above 2^53 ride as
//! raw decimal literals. `tests/http_conformance.rs` holds the line with
//! golden transcripts and wire-vs-solo diffs.
//!
//! ## Admission control
//!
//! The [`admission`] gate bounds live sessions *before* anything is
//! built: past [`admission::AdmissionPolicy::max_live`] a submission is
//! shed with `503` + `Retry-After` and zero server-side effect, and
//! `admitted + shed == submitted` is a hard invariant. Shedding is
//! deterministic — a burst against a held service admits exactly
//! `max_live` and sheds the rest, every run.
//!
//! ## Quick start
//!
//! ```no_run
//! use lynceus_core::{CostOracle, OptimizerSettings, TableOracle};
//! use lynceus_serve::client::Client;
//! use lynceus_serve::server::{OracleFactory, Server, ServerConfig};
//! use lynceus_serve::wire::{self, SpecRequest};
//! use lynceus_space::SpaceBuilder;
//! use std::sync::Arc;
//!
//! let factory: OracleFactory = Arc::new(|name: &str| {
//!     (name == "valley").then(|| {
//!         let space = SpaceBuilder::new().numeric("x", (0..8).map(f64::from)).build();
//!         let oracle = TableOracle::from_fn(space, 1.0, |f| 20.0 + (f[0] - 3.0).powi(2));
//!         Box::new(oracle) as Box<dyn CostOracle>
//!     })
//! });
//! let server = Server::start(ServerConfig::default(), factory)?;
//!
//! let mut client = Client::connect(server.addr())?;
//! let spec = SpecRequest::new("job-0", "valley", OptimizerSettings::default(), 42);
//! let accepted = client.post("/v1/sessions", &wire::encode_spec(&spec).to_json())?;
//! assert_eq!(accepted.status, 202);
//! let done = client.get("/v1/sessions/0?wait=1")?;
//! let report = client.get("/v1/sessions/0/report")?;
//! # let _ = (done, report);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmissionPolicy, AdmissionStats};
pub use client::{Client, ClientError, ClientResponse};
pub use http::{HttpError, HttpLimits, Request, Response};
pub use json::Value;
pub use server::{OracleFactory, Server, ServerConfig};
pub use wire::{SpecRequest, WireError, WIRE_VERSION};
