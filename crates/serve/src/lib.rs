//! srtw-serve: the resilient analysis service behind `srtw serve`.
//!
//! A long-running, zero-dependency (std `TcpListener`) HTTP service that
//! answers `POST /analyze` with the exact same JSON document as
//! `srtw analyze --json`, wired for robustness at every layer:
//!
//! - **Bounded admission** ([`gate`]): a fixed-capacity queue; overflow is
//!   shed with `503` + an adaptive `Retry-After` instead of buffered, so a
//!   traffic spike can never grow memory without bound.
//! - **Multiplexed I/O** ([`mux`] over [`sys`]'s `poll(2)` shim): one
//!   acceptor thread owns every connection until a complete request is
//!   buffered, with per-connection deadlines (`408`), a head cap (`431`),
//!   a connection cap, and a global body-buffer budget — a slow-loris
//!   flood costs pollfds, not workers, and memory stays O(queue+conns).
//! - **Keep-alive** : connections cycle back to the acceptor between
//!   requests instead of pinning a worker; pipelined bytes carry over.
//! - **Deadline propagation** ([`server`]): `X-Deadline-Ms` becomes a
//!   wall-clock [`srtw_minplus::Budget`] plus a [`srtw_minplus::CancelToken`],
//!   so an over-deadline request *degrades soundly to the RTC bound* —
//!   monotone truncation guarantees exact ≤ degraded ≤ RTC — rather than
//!   timing out with nothing.
//! - **Crash isolation** ([`pool`] + [`srtw_supervisor::contain`]): each
//!   analysis runs on its pool worker behind `catch_unwind`, so a panic
//!   becomes a typed `500` and the worker serves on; a panic in the
//!   server's own code kills only its worker, and the pool self-heals by
//!   respawn.
//! - **Hardened parsing** ([`http`] + `srtw_core::textfmt`): explicit caps
//!   on the request head and body, and the same 11-kind typed parse errors
//!   as the CLI (`400`/`413` with `parse_kind` in the error body).
//! - **Graceful drain** ([`server::Server::shutdown`]): stop accepting,
//!   let in-flight work finish up to the drain window, then cancel
//!   stragglers through their tokens — they still answer, degraded.
//! - **Durable streaming batch** (`POST /batch`): a manifest body runs
//!   through the same batch runner as `srtw batch`, streaming one ndjson
//!   line per job (HTTP/1.1 chunked) in manifest order; a client hangup
//!   cancels the remaining jobs, and with a journal configured every
//!   outcome is fsync'd before it is streamed, so a replica killed
//!   mid-batch replays completed jobs instead of recomputing them.
//! - **Content-addressed caching** (`cache` + `delta`): `POST /analyze`
//!   results are cached under a hash of the parsed system as presented
//!   (its presentation code, compared in full on every hit), and
//!   `POST /analyze/delta` applies an edit script to a base system and
//!   answers as `/analyze` of the edited system would, cache included —
//!   byte-identical to a cold run of it.
//! - **Crash-safe persistence** ([`srtw_persist`] wired through
//!   [`server`] and `batch`): `--persist DIR` spills every cached
//!   result to an append-only, CRC-framed shard file (written before the
//!   response, synced after it by the store's syncer) and warm-loads the
//!   cache on startup (LRU order preserved, every record re-verified
//!   against its key before it can answer); replicas share the
//!   directory — each writes only its own shard files but warm-loads
//!   from all, so a respawned replica inherits the fleet's
//!   cache. Any persistence failure (`ENOSPC`, `EACCES`, torn or
//!   corrupt spill bytes) degrades to a cold in-memory cache with a
//!   typed `srtw-persist:` warning — never to a changed response.
//!
//! Status codes mirror the CLI exit contract (`200`↔0, `400`/`413`↔2,
//! `500`↔3, `503`↔shed/draining), so a batch driver can treat the service
//! exactly like a pool of `srtw analyze` processes.

#![deny(unsafe_code)] // `signal` and `sys` opt back in for the C bindings.
#![warn(missing_docs)]

mod batch;
mod cache;
mod delta;
pub mod fault;
pub mod gate;
pub mod http;
pub mod mux;
pub mod pool;
pub mod replica;
pub mod report;
pub mod server;
pub mod signal;
pub mod stats;
pub mod sys;

pub use fault::{ProcessFault, ProcessFaultKind};
pub use srtw_persist::{PersistError, PersistErrorKind};
pub use replica::{ReplicaConfig, Supervisor};
pub use report::{fifo_report, FifoReport};
pub use server::{DrainReport, ServeConfig, Server};
