#![warn(missing_docs)]

//! Online inference service for the Adv & HSC-MoE ranker.
//!
//! The crate is both a library (embed a [`Server`] in tests or a
//! larger process) and a binary (`amoe-serve`) exposing the service
//! over TCP. Like the rest of the workspace it uses **no external
//! dependencies** — the protocol, queue and threading are all std.
//!
//! # Architecture
//!
//! ```text
//!  client ══frames══▶ reader thread ──Pending──▶ queue[shard_of(id)] ─┐
//!     ▲   (pipelined:      │                                          ▼
//!     ║    many SCOREs     │ admin            batcher shard 0 ── predict
//!     ║    in flight)      ▼                  batcher shard 1 ── predict
//!     ╚══════════════ writer thread ◀──ScoreDone (any order)──── ...
//! ```
//!
//! * **Protocol** ([`protocol`]): one version of length-prefixed
//!   binary frames over TCP, 11 tags in all; `SCORE`, `RELOAD`,
//!   `SHUTDOWN`, `STATS`, `TRACE_DUMP` requests. Every connection is
//!   pipelined: scores carry correlation ids, a connection may have
//!   many in flight, and replies arrive in completion order. A peer
//!   offering another version is answered with the server's hello and
//!   disconnected.
//! * **Batcher shards** ([`batcher`], [`ServeConfig::shards`]): each
//!   shard owns a bounded queue and flush loop; requests hash to a
//!   shard by request id ([`shard_of`]). Concurrently queued requests
//!   coalesce into one model call per shard (scores stay bit-identical
//!   at any shard count — every model path is row-independent).
//! * **Backpressure** ([`queue`], [`ServeConfig::overload`]): a full
//!   shard queue rejects with a correlated `SCORE_ERROR` flagged as
//!   overload, or blocks with a deadline under
//!   [`OverloadPolicy::Block`]. Admission is per shard.
//! * **Hot-swap** ([`client::Client::reload`]): `RELOAD <path>` builds
//!   a fresh model from an `AMOE` checkpoint off the serving path and
//!   swaps it atomically; in-flight batches finish on the old weights.
//! * **Graceful drain**: `SHUTDOWN` closes every shard's queue,
//!   answers every admitted request on every shard, then exits.
//!
//! All stages are instrumented through `amoe-obs` (queue-depth gauge,
//! batch-size / queue-wait / latency histograms, `serve_request` and
//! `serve_batch` JSONL events) when `AMOE_OBS` is set.
//!
//! Independent of `AMOE_OBS`, the server keeps **always-on
//! sliding-window stage histograms** (queue wait, compute, reply
//! write, end-to-end latency, queue depth) reported as p50/p95/p99
//! through the `STATS` reply (alongside per-shard batch/overload
//! counters and queue depths), and supports **request-scoped
//! tracing** (`AMOE_TRACE=path`, sampled via `AMOE_TRACE_SAMPLE=1/N`)
//! exportable as Chrome trace-event JSON through `TRACE_DUMP` or at
//! drain.

pub mod batcher;
pub mod client;
pub mod config;
pub mod http;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, Completion, ServeError};
pub use config::{ModelSpec, OverloadPolicy, ServeConfig};
pub use http::http_get;
pub use protocol::{FeatureRow, QuantileSummary, ShardStats, StatsSnapshot, WindowedStats};
pub use server::{shard_of, Server};
