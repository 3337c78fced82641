//! `frapp-service` — an asynchronous, sharded privacy-collection and
//! reconstruction server for the FRAPP framework.
//!
//! The FRAPP paper (Agrawal & Haritsa, ICDE 2005) is a *deployment*
//! story as much as a mathematical one: millions of clients each
//! perturb their own record with a known Markov matrix and submit it;
//! the miner reconstructs aggregate distributions from the stream. The
//! rest of this workspace exercises that pipeline offline; this crate
//! is the online half:
//!
//! * [`session::CollectionSession`] — one schema + privacy mechanism +
//!   the perturbed counts collected so far, split across independently
//!   locked [`shard::Shard`]s so concurrent batches never contend on a
//!   single counter vector. The perturbation sampler is built once per
//!   session and shared by every shard.
//! * [`session::SessionRegistry`] — the server's table of live
//!   sessions, keyed by id and bounded by an LRU cap
//!   (`max_sessions`): a long-lived server evicts the
//!   least-recently-used session — spilling it to the persistence
//!   directory first, when configured — instead of growing without
//!   bound.
//! * [`persist`] — versioned JSON session snapshots: on demand (the
//!   `persist` op), on LRU eviction and on clean shutdown, plus
//!   *incremental* periodic flushes that, after one full base, append
//!   sparse per-shard delta lines instead of rewriting whole count
//!   vectors. Only those flushes turn on per-shard delta tracking, and
//!   any failed flush turns it off. `Server::bind`
//!   recovers them, restoring each shard's native RNG state words in
//!   O(1) so deterministic replay holds across restarts.
//! * [`metrics`] — per-session counters (ingest rate, reconstruction
//!   count, query-latency histogram) behind the `metrics` op.
//! * Reconstruction queries snapshot the merged counts and solve
//!   `A X̂ = Y` with either the O(n) gamma-diagonal closed form or a
//!   dense LU factorization cached per session
//!   (`frapp_linalg::LuDecomposition`), so repeated queries cost
//!   `O(n²)` instead of `O(n³)`. The `counts` op ships the merged
//!   counts with `n` and γ instead, and the shipped clients solve the
//!   closed form from them themselves, to the server's bits.
//! * [`server::Server`] / [`client::Client`] — a line-delimited JSON
//!   protocol over TCP ([`protocol`]), with the `frapp-serve` and
//!   `frapp-client` binaries on top. The line protocol supports
//!   *pipelined* submits: `"ack":"deferred"` batches are ingested
//!   without a per-batch response, and a `flush` op returns the
//!   cumulative accepted watermark — decoupling ingest throughput from
//!   round-trip latency while preserving the partial-batch retry
//!   contract.
//! * [`http`] — a hand-rolled HTTP/1.1 front-end over the same
//!   transport-agnostic dispatch core ([`dispatch`]): `POST /sessions`,
//!   `POST /sessions/{id}/records`, `GET /sessions/{id}/reconstruct`
//!   and friends, with JSON bodies identical to the line protocol
//!   (enabled by `ServiceConfig::http_addr`; [`client::HttpClient`]
//!   speaks it). Request bodies may be `Content-Length` or
//!   `Transfer-Encoding: chunked`.
//! * [`fed`] — the federated multi-node collection tier (`frapp-serve
//!   --peers a:1,b:2 --replication 2`): sessions replicate
//!   cluster-wide under consistent-hash placement (`frapp_fed`),
//!   ingest partitions across a session's owner nodes with
//!   `(origin, seq)`-stamped forwards that are idempotent on
//!   redelivery, and reconstruction/counts/stats fan out to the owners
//!   and merge their disjoint partitions before solving once — for
//!   pre-perturbed streams, bit-identical to a single-node run.
//!   Inter-node links pipeline through the same deferred-ack
//!   watermark contract and catch peers up from persisted watermarks
//!   after a restart.
//! * [`reactor`] — an optional nonblocking epoll/kqueue front-end
//!   (`frapp-serve --async`, `ServiceConfig::async_reactor`) serving
//!   *both* wire protocols from a fixed set of event-loop threads
//!   instead of a thread per connection: bit-identical responses, far
//!   higher concurrent-connection fan-in.
//!
//! The normative wire specification lives in `docs/PROTOCOL.md`;
//! [`wire`] declares every op, route and counter it names, once, for
//! the modules above to read; `docs/ARCHITECTURE.md` maps the whole
//! workspace.
//!
//! ## In-process quickstart
//!
//! ```
//! use frapp_service::client::{Client, SessionSpec};
//! use frapp_service::config::ServiceConfig;
//! use frapp_service::server::Server;
//! use frapp_service::session::ReconstructionMethod;
//!
//! let handle = Server::bind(ServiceConfig::default()).unwrap().spawn().unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! let spec = SessionSpec::deterministic(vec![("color".into(), 3), ("size".into(), 2)], 19.0);
//! let session = client.create_session(&spec).unwrap();
//! client.submit_batch(session, &[vec![2, 1], vec![0, 0]], false).unwrap();
//! let rec = client.reconstruct(session, ReconstructionMethod::ClosedForm, true).unwrap();
//! assert_eq!(rec.estimates.len(), 6);
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod dispatch;
pub mod error;
pub mod fault;
pub mod fed;
pub mod framing;
pub mod http;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod order;
pub mod persist;
mod pool;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod session;
pub mod shard;
pub mod wire;

pub use client::{Client, HttpClient, SessionSpec};
pub use config::ServiceConfig;
pub use error::{Result, ServiceError};
pub use fault::{FaultAction, FaultPlan, FaultSite};
pub use fed::FedState;
pub use jobs::{JobManager, JobState, MineAlgo, MineSpec};
pub use metrics::{
    MetricsReport, PeerHealth, PeerReplReport, SessionMetrics, TransportMetrics, TransportReport,
};
pub use server::{Server, ServerHandle};
pub use session::{
    CollectionSession, Mechanism, ReconstructionMethod, SessionRegistry, SessionSummary,
};
