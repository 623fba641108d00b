//! Snapshot-serving query service over BATMAP corpora.
//!
//! Everything before this crate answered queries by re-running a batch
//! binary; this is the long-running half of the paper's pitch — the
//! batmap layout exists to make set-intersection counting fast enough
//! to *serve*. The service loads one or more preprocessed corpora
//! ([`pairminer::Preprocessed`] snapshots), shards their sets across
//! worker threads by a deterministic set-id range map, and answers
//! concurrent queries over a length-prefixed binary protocol on a TCP
//! or Unix socket — std-only, no async runtime.
//!
//! The pipeline, stage by stage:
//!
//! 1. **Wire protocol** ([`proto`]) — typed [`Request`]/[`Response`]
//!    enums with a versioned little-endian encoding, shared verbatim by
//!    the [`client`] module and the bench load generator (one encoder,
//!    no drift).
//! 2. **Shard map** ([`shard`]) — contiguous, deterministic ranges of
//!    sorted set positions, one range per worker. Contiguity matters:
//!    a shard's candidates are a dense run of the width-sorted arena,
//!    exactly the access pattern the one-vs-many sweeps like.
//! 3. **Admission queues** ([`engine`]) — each shard worker owns a
//!    queue; a drain takes *everything* pending and coalesces count
//!    probes against the same set into one
//!    [`batmap::intersect::count_mixed_one_vs_many_into`] sweep, so the
//!    probe's fingerprint check happens once and its slot bytes stay
//!    hot in registers across candidates. Coalesced answers are
//!    byte-identical to a pairwise replay; at equal concurrency the
//!    throughput gain over batching off is still within noise
//!    (`perf_suite` prints it as `serve.coalesced`, ungated).
//! 4. **Exactness** — stored payloads under-count when cuckoo
//!    insertions failed at preprocessing time; every query path applies
//!    the same failed-element corrections the mining pipeline uses, so
//!    served counts equal brute force exactly, whatever the storage
//!    representation.
//! 5. **Failure containment** — per-connection read/write deadlines
//!    with idle eviction ([`server::ServerConfig`]), bounded admission
//!    queues that shed with a typed [`Response::Overloaded`] instead of
//!    growing without limit, shard workers whose panics are contained
//!    (`catch_unwind`), answered with typed errors, and survived via a
//!    supervisor restart, and a reconnecting, retrying [`Client`]. The
//!    invariant, pinned by the chaos suite under injected faults
//!    (`BATMAP_FAULTPOINTS`): every *delivered* answer is exact; the
//!    server always shuts down cleanly.
//!
//! ```no_run
//! use batmap_server::{EngineConfig, QueryEngine, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! # let corpus: pairminer::Preprocessed = unimplemented!();
//! let engine = QueryEngine::new(vec![corpus], EngineConfig::default());
//! let handle = Server::bind_tcp("127.0.0.1:0")?.serve(engine);
//! println!("serving on {}", handle.tcp_addr().unwrap());
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;
pub mod shard;

pub use client::{Client, RetryPolicy};
pub use engine::{EngineConfig, QueryEngine};
pub use proto::{
    CorpusInfo, ItemsetEntry, LevelSummary, MineSummary, Probe, ProtoError, Request, Response,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shard::ShardMap;
