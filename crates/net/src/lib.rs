//! # scaddar-net — the networked serving layer
//!
//! The paper's deployment target is a continuous-media *server*
//! answering block-location queries for many concurrent clients while
//! scaling operations commit online (§1, AO1). Everything below this
//! crate — [`cmsim::SharedServer`], the CLI, the harness — is
//! in-process; this crate puts the lookup path behind a real socket
//! with real backpressure, deadlines, and per-endpoint telemetry:
//!
//! * [`wire`] — the versioned, length-prefixed binary protocol
//!   ([`Frame`], [`FrameError`]): a zero-copy encoder and a hardened
//!   decoder that answers truncated/oversized/garbage input with typed
//!   errors, never a panic.
//! * [`server`] — `scaddard` ([`Scaddard`]): the serving daemon over a
//!   [`cmsim::SharedServer`] with a bounded accept policy (max
//!   connections, per-request read/write deadlines, graceful drain on
//!   shutdown) and per-endpoint `obs` counters/latency histograms plus
//!   `net.*` spans, served by the event-loop core below.
//! * [`reactor`] — the event-loop core: nonblocking sockets driven by
//!   epoll/poll(2) (via the vendored `polling` shim), a slab of
//!   per-connection states with reusable buffers, cross-connection
//!   request coalescing into single [`cmsim::SharedServer`] read-lock
//!   acquisitions, batched writes with graceful EAGAIN handling, and
//!   the deadline/backpressure policy of [`server`].
//! * [`client`] — [`NetClient`]: connection pooling, request
//!   pipelining, and deadline-aware retry-on-reconnect.
//! * [`cluster`] — the sharded-topology layer: the versioned
//!   [`ClusterMap`] with jump-consistent-hash object routing, the
//!   server-side [`ShardRuntime`] handoff gates, and the shard-aware
//!   [`ClusterClient`] that chases `WrongShard`/`StaleMap` redirects by
//!   refreshing the map.
//!
//! The crate is std-only (`std::net` + threads), consistent with the
//! workspace's vendored-shim policy: no async runtime, no serde.
//!
//! ## The invariant that crosses the wire
//!
//! Every response that depends on placement carries the scaling epoch
//! it was served at (`Located`, `BatchLocated`, `Scaled`, even `Pong`),
//! and every batch is served under **one** lock acquisition
//! ([`cmsim::SharedServer::locate_batch_read`]) — so a remote client
//! observes the same "entirely pre-op or entirely post-op, never torn"
//! guarantee that `cmsim`'s in-process tests pin down, now across the
//! socket boundary (`tests/loopback_concurrent.rs` holds the line with
//! 64 concurrent clients through mid-run `Scale` commits).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, CompactionStatus, NetClient};
pub use cluster::{
    fetch_map, ClusterAnswer, ClusterBatchAnswer, ClusterClient, ClusterClientStats, ClusterMap,
    RouteDecision, ShardRuntime,
};
pub use server::{depth_bucket, NetServerConfig, PhaseStats, Scaddard, ENGINE_DEPTH_BUCKETS};
pub use wire::{
    decode_frame, decode_frame_limited, ErrorCode, Frame, FrameError, StatsFormat,
    MAX_PROFILE_STATES,
};
