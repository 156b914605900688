//! `scaddard`: the serving daemon.
//!
//! Accepted connections are driven by the event-loop core in
//! [`crate::reactor`]: nonblocking sockets on a few readiness-polled
//! worker threads, with cross-connection request coalescing. Every
//! worker shares one [`cmsim::SharedServer`] — reads take its shared
//! lock, `Scale`/`Tick` its exclusive lock, so the epoch-consistency
//! guarantee the in-process tests pin down holds unchanged for remote
//! clients.
//!
//! Backpressure and robustness policy:
//!
//! * **Bounded accept**: at most
//!   [`max_connections`](NetServerConfig::max_connections) registered
//!   sockets; a connection over the limit receives one `Error{Busy}`
//!   frame and is closed (counted in
//!   `net_server_connections_rejected_total`).
//! * **Per-request deadlines**: once the first byte of a request
//!   arrives, the rest must arrive within
//!   [`read_timeout`](NetServerConfig::read_timeout); responses must
//!   flush within [`write_timeout`](NetServerConfig::write_timeout).
//!   Idle connections may sit forever.
//! * **Graceful drain**: [`Scaddard::shutdown`] stops the acceptor,
//!   lets every worker flush what it owes, and joins them.
//! * **Hostile input**: an undecodable frame earns a typed
//!   `Error{Protocol}` reply (best effort) and a close — the decoder
//!   never panics, so neither does the server.

use crate::cluster::{RouteDecision, ShardRuntime};
use crate::wire::{ErrorCode, Frame, StatsFormat};
use cmsim::SharedServer;
use scaddar_compact::CompactionController;
use scaddar_monitor::{HealthMonitor, MonitorConfig, Severity};
use scaddar_obs::{
    Counter, Gauge, Histogram, Profiler, Registry, StateHandle, TraceContext, Tracer,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning knobs for [`Scaddard`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Event-loop worker threads; `0` means one per available core.
    pub workers: usize,
    /// Connection ceiling (registered sockets); connections beyond it
    /// are rejected with `Error{Busy}`.
    pub max_connections: usize,
    /// Deadline for the remainder of a request once its first byte has
    /// arrived.
    pub read_timeout: Duration,
    /// Deadline for flushing a response.
    pub write_timeout: Duration,
    /// Largest accepted frame (both directions).
    pub max_frame_len: u32,
    /// When false, per-request histograms/spans are skipped — the bare
    /// baseline the `BENCH_net.json` overhead ratio divides by.
    pub instrument: bool,
    /// Phase-decomposition sampling mask: a request's lifecycle phases
    /// are clock-timed when a weak counter increment ANDed with this
    /// mask is zero — `0` times every request, `63` one in 64 (the
    /// default, keeping the 1.10× overhead gate comfortable). The
    /// phase *state words* the profiler samples are always published;
    /// only the nanosecond histograms are sampled. Ignored when
    /// `instrument` is false.
    pub phase_sample_mask: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            workers: 0,
            max_connections: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame_len: 1 << 20,
            instrument: true,
            phase_sample_mask: 63,
        }
    }
}

/// Per-endpoint request counters/latency histograms plus the
/// connection- and byte-level counters, all registered against the
/// composition root's [`Registry`] (`net_server_*` namespace).
#[derive(Debug)]
pub struct NetStats {
    requests: BTreeMap<&'static str, Counter>,
    request_ns: BTreeMap<&'static str, Histogram>,
    /// Requests answered with an `Error` frame.
    pub errors: Counter,
    /// Frames that failed to decode (connection then closed).
    pub protocol_errors: Counter,
    /// Connections accepted into a worker.
    pub conns_opened: Counter,
    /// Connections turned away by the backpressure limit.
    pub conns_rejected: Counter,
    /// Connections closed (peer close, error, or drain).
    pub conns_closed: Counter,
    /// Live connections.
    pub connections: Gauge,
    /// Request bytes read off sockets.
    pub bytes_rx: Counter,
    /// Response bytes written to sockets.
    pub bytes_tx: Counter,
}

/// The endpoints with dedicated request counters/histograms.
pub const ENDPOINTS: [&str; 11] = [
    "locate",
    "locate-batch",
    "scale",
    "tick",
    "health",
    "stats",
    "ping",
    "fetch-map",
    "scrape-stats",
    "profile",
    "compact",
];

impl NetStats {
    /// Registers every `net_server_*` metric against `registry`.
    pub fn register(registry: &Registry) -> Arc<NetStats> {
        let mut requests = BTreeMap::new();
        let mut request_ns = BTreeMap::new();
        for ep in ENDPOINTS {
            requests.insert(
                ep,
                registry.counter(
                    &format!("net_server_requests_total{{endpoint=\"{ep}\"}}"),
                    "Requests served, by endpoint",
                ),
            );
            request_ns.insert(
                ep,
                registry.histogram(
                    &format!("net_server_request_ns{{endpoint=\"{ep}\"}}"),
                    "Server-side request handling latency, by endpoint",
                ),
            );
        }
        Arc::new(NetStats {
            requests,
            request_ns,
            errors: registry.counter(
                "net_server_errors_total",
                "Requests answered with an Error frame",
            ),
            protocol_errors: registry.counter(
                "net_server_protocol_errors_total",
                "Frames that failed to decode",
            ),
            conns_opened: registry.counter(
                "net_server_connections_opened_total",
                "Connections accepted into a worker",
            ),
            conns_rejected: registry.counter(
                "net_server_connections_rejected_total",
                "Connections rejected by the backpressure limit",
            ),
            conns_closed: registry
                .counter("net_server_connections_closed_total", "Connections closed"),
            connections: registry.gauge("net_server_connections", "Live connections"),
            bytes_rx: registry.counter("net_server_bytes_rx_total", "Request bytes read"),
            bytes_tx: registry.counter("net_server_bytes_tx_total", "Response bytes written"),
        })
    }

    pub(crate) fn record(&self, endpoint: &str, ns: u64, instrument: bool) {
        if let Some(c) = self.requests.get(endpoint) {
            c.inc();
        }
        if instrument {
            if let Some(h) = self.request_ns.get(endpoint) {
                h.record(ns);
            }
        }
    }
}

/// REMAP chain-depth label values for the `engine` phase histogram:
/// the engine epoch *is* the worst-case chain length a lookup may
/// walk, so residency is bucketed by it.
pub const ENGINE_DEPTH_BUCKETS: [&str; 4] = ["0", "1-4", "5-16", "17+"];

/// The [`ENGINE_DEPTH_BUCKETS`] index for an engine epoch.
pub fn depth_bucket(epoch: u64) -> usize {
    match epoch {
        0 => 0,
        1..=4 => 1,
        5..=16 => 2,
        _ => 3,
    }
}

/// Request-lifecycle phase histograms (`net_phase_ns{phase=...}`),
/// one log-scale [`Histogram`] per phase of the reactor's anatomy:
///
/// | phase | covers |
/// |---|---|
/// | `decode` | socket readable → frame decoded |
/// | `coalesce-wait` | decoded → lookup wave dispatched |
/// | `lock-wait` | wave dispatched → engine read lock held |
/// | `engine` | lock held → answers computed (labelled by REMAP chain depth) |
/// | `encode` | answers → response frames in the write buffer |
/// | `write-flush` | write buffer → kernel accepted the bytes |
///
/// Recording is sampled 1-in-N ([`NetServerConfig::phase_sample_mask`])
/// via the weak-counter idiom so the instrumented path stays inside
/// the 1.10× overhead gate.
pub struct PhaseStats {
    /// Weak 1-in-N decision counter; its running value drives the
    /// mask, so it counts *decisions*, not hits.
    sample: Counter,
    mask: u64,
    /// Socket readable → frame decoded.
    pub decode: Histogram,
    /// Frame decoded → its lookup wave dispatched.
    pub coalesce_wait: Histogram,
    /// Wave dispatched → engine read lock acquired.
    pub lock_wait: Histogram,
    /// Lock held → answers computed, by [`ENGINE_DEPTH_BUCKETS`].
    pub engine: [Histogram; 4],
    /// Answers computed → responses encoded.
    pub encode: Histogram,
    /// One connection's buffered responses → kernel took the bytes.
    pub write_flush: Histogram,
}

impl PhaseStats {
    /// Registers the `net_phase_ns` family against `registry`.
    pub fn register(registry: &Registry, mask: u64) -> Arc<PhaseStats> {
        let phase = |name: &str| {
            registry.histogram(
                &format!("net_phase_ns{{phase=\"{name}\"}}"),
                "Request lifecycle phase latency",
            )
        };
        Arc::new(PhaseStats {
            sample: registry.counter(
                "net_phase_decisions_total",
                "Phase-sampling decisions taken (1 in mask+1 of them time the phases)",
            ),
            mask,
            decode: phase("decode"),
            coalesce_wait: phase("coalesce-wait"),
            lock_wait: phase("lock-wait"),
            engine: ENGINE_DEPTH_BUCKETS.map(|depth| {
                registry.histogram(
                    &format!("net_phase_ns{{phase=\"engine\",depth=\"{depth}\"}}"),
                    "Engine execute phase latency, by REMAP chain depth",
                )
            }),
            encode: phase("encode"),
            write_flush: phase("write-flush"),
        })
    }

    /// One 1-in-N sampling decision: true when this request's (or
    /// flush's) phases should pay for clock reads.
    pub(crate) fn sample_hit(&self) -> bool {
        self.sample.inc_weak() & self.mask == 0
    }
}

/// Everything the serving threads share.
pub(crate) struct Shared {
    pub(crate) server: Arc<SharedServer>,
    pub(crate) config: NetServerConfig,
    pub(crate) stats: Arc<NetStats>,
    pub(crate) tracer: Tracer,
    pub(crate) monitor: Mutex<HealthMonitor>,
    /// The generation manager: fires the engine-config auto-compaction
    /// policy on the tick path and serves manual `Compact` requests.
    pub(crate) controller: Mutex<CompactionController>,
    pub(crate) registry: Registry,
    pub(crate) shutdown: AtomicBool,
    /// Cluster-mode routing state; `None` for a standalone daemon.
    pub(crate) shard: Option<Arc<ShardRuntime>>,
    /// Request-lifecycle phase histograms (sampled 1-in-N).
    pub(crate) phases: Arc<PhaseStats>,
    /// The always-on cooperative profiler; reactor workers and offload
    /// threads register state words against it, `ProfileDump` reads it.
    pub(crate) profiler: Arc<Profiler>,
    /// Shared state word for the short-lived `scaddard-op` offload
    /// threads (one row; concurrent ops share it, which is the
    /// documented approximation).
    pub(crate) op_state: StateHandle,
}

/// The `scaddard` daemon: a bound listener plus its event-loop core.
///
/// ```no_run
/// use std::sync::Arc;
/// use cmsim::{CmServer, ServerConfig, SharedServer};
/// use scaddar_net::{NetServerConfig, Scaddard};
/// use scaddar_obs::{MonotonicClock, Registry, Tracer};
///
/// let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(7)).unwrap();
/// server.add_object(100_000).unwrap();
/// let registry = Registry::new();
/// let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 256);
/// let daemon = Scaddard::bind(
///     "127.0.0.1:0",
///     Arc::new(SharedServer::new(server)),
///     NetServerConfig::default(),
///     &registry,
///     tracer,
/// )
/// .unwrap();
/// println!("serving on {}", daemon.local_addr());
/// daemon.shutdown();
/// ```
pub struct Scaddard {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: crate::reactor::Reactor,
    /// Stops the `obs-sampler` thread on shutdown.
    sampler_shutdown: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scaddard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scaddard")
            .field("local_addr", &self.local_addr)
            .field("connections", &self.shared.stats.connections.get())
            .finish()
    }
}

impl Scaddard {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and
    /// starts the event-loop core. The health monitor is seeded from the
    /// engine's current state and mirrored into `registry` alongside
    /// the `net_server_*` metrics. Those series are per daemon: the
    /// live-connection gauge is also the `max_connections` count, so
    /// each daemon needs a `registry` of its own.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<SharedServer>,
        config: NetServerConfig,
        registry: &Registry,
        tracer: Tracer,
    ) -> std::io::Result<Scaddard> {
        Scaddard::bind_inner(addr, server, config, registry, tracer, None)
    }

    /// Binds a **cluster shard**: identical to [`bind`](Self::bind),
    /// plus a [`ShardRuntime`] every `Locate`/`LocateBatch` consults
    /// before touching the engine. Requests for objects the map routes
    /// elsewhere answer `WrongShard`; requests landing on a drained
    /// shard answer `StaleMap`; `FetchMap` serves the shard's current
    /// map.
    pub fn bind_sharded(
        addr: impl ToSocketAddrs,
        server: Arc<SharedServer>,
        config: NetServerConfig,
        registry: &Registry,
        tracer: Tracer,
        shard: Arc<ShardRuntime>,
    ) -> std::io::Result<Scaddard> {
        Scaddard::bind_inner(addr, server, config, registry, tracer, Some(shard))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        server: Arc<SharedServer>,
        config: NetServerConfig,
        registry: &Registry,
        tracer: Tracer,
        shard: Option<Arc<ShardRuntime>>,
    ) -> std::io::Result<Scaddard> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let monitor = server.with_read(|s| {
            let mut m = HealthMonitor::for_engine(
                MonitorConfig::default(),
                tracer.clock().clone(),
                s.engine(),
            );
            m.attach_registry(registry);
            m.evaluate_budget();
            m
        });
        let controller = server.with_read(|s| CompactionController::from_config(s.config()));
        let stats = NetStats::register(registry);
        // Stamp the bucket-layout fingerprint so fleet aggregation can
        // refuse to merge histograms from a peer built with different
        // bucket boundaries.
        registry.mark_bucket_layout();
        let phases = PhaseStats::register(registry, config.phase_sample_mask);
        let profiler = Profiler::new(tracer.clock().clone());
        let op_state = profiler.register("scaddard-op");
        let shared = Arc::new(Shared {
            server,
            config,
            stats,
            tracer,
            monitor: Mutex::new(monitor),
            controller: Mutex::new(controller),
            registry: registry.clone(),
            shutdown: AtomicBool::new(false),
            shard,
            phases,
            profiler: Arc::clone(&profiler),
            op_state,
        });
        let reactor = crate::reactor::Reactor::start(listener, Arc::clone(&shared))?;
        // ~1 kHz wall-clock sampler; tests and the harness that need
        // determinism drive `Profiler::sample_once` directly instead.
        let sampler_shutdown = Arc::new(AtomicBool::new(false));
        let sampler =
            profiler.spawn_sampler(Duration::from_millis(1), Arc::clone(&sampler_shutdown));
        Ok(Scaddard {
            local_addr,
            shared,
            reactor,
            sampler_shutdown,
            sampler: Some(sampler),
        })
    }

    /// The bound address (the ephemeral port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connections right now.
    pub fn active_connections(&self) -> usize {
        usize::try_from(self.shared.stats.connections.get()).unwrap_or(0)
    }

    /// The server's metric handles (benches read these directly).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.shared.stats
    }

    /// The daemon's cooperative profiler (tests and benches sample or
    /// snapshot it directly; remote callers use `ProfileDump`).
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.shared.profiler
    }

    /// The shard routing state, when bound via
    /// [`bind_sharded`](Self::bind_sharded).
    pub fn shard_runtime(&self) -> Option<&Arc<ShardRuntime>> {
        self.shared.shard.as_ref()
    }

    /// Severity of the server's current health report — what
    /// `serve --check` maps to an exit code.
    pub fn health_verdict(&self) -> Severity {
        let mut monitor = self
            .shared
            .monitor
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        self.shared.server.with_read(|s| {
            monitor.observe_engine(s.engine());
            monitor.observe_census(&s.load_census());
        });
        monitor.report().verdict()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// join every thread. Idempotent-by-construction (consumes self).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        self.reactor.shutdown();
        self.sampler_shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scaddard {
    fn drop(&mut self) {
        if !self.reactor.is_shut_down() {
            self.shutdown_inner();
        }
    }
}

/// Encodes and writes one frame, counting the bytes.
pub(crate) fn reply(mut stream: &TcpStream, shared: &Shared, frame: &Frame) -> std::io::Result<()> {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let bytes = frame.to_bytes();
    stream.write_all(&bytes)?;
    shared.stats.bytes_tx.add(bytes.len() as u64);
    Ok(())
}

/// Dispatches one request, appending the response to `out`. Returns
/// false when the connection must close (a response frame arrived where
/// a request belongs — direction violation).
///
/// When the request carried a sampled [`TraceContext`], the handler
/// continues the distributed trace: a child span (salted with the
/// shard id, so sibling shards touched by one client hop stay
/// distinct) is recorded in this process's flight recorder, parented
/// to the client's span, with routing verdicts attached as events.
pub(crate) fn handle_request(
    frame: Frame,
    shared: &Shared,
    out: &mut Vec<u8>,
    ctx: Option<TraceContext>,
) -> bool {
    let instrument = shared.config.instrument;
    if !frame.is_request() {
        shared.stats.protocol_errors.inc();
        Frame::Error {
            code: ErrorCode::BadRequest,
            message: format!("{} is a response frame", frame.endpoint()),
        }
        .encode(out);
        return false;
    }
    let endpoint = frame.endpoint();
    let mut span = match &ctx {
        Some(c) if instrument && c.sampled => {
            let salt = shared.shard.as_ref().map_or(0, |s| u64::from(s.self_id()));
            let child = c.child(salt);
            Some(
                shared
                    .tracer
                    .span_in(&format!("serve.{endpoint}"), &child, c.span_id),
            )
        }
        _ => None,
    };
    let start = instrument.then(|| shared.tracer.clock().now_ns());
    let response = dispatch(frame, shared, instrument);
    let ns = start.map_or(0, |s| shared.tracer.clock().now_ns().saturating_sub(s));
    shared.stats.record(endpoint, ns, instrument);
    if matches!(response, Frame::Error { .. }) {
        shared.stats.errors.inc();
    }
    if let Some(span) = span.as_mut() {
        // The per-request critical-path record: sampled traces carry
        // the server-side dispatch cost alongside the phase histograms'
        // aggregate view.
        span.event("critical-path-ns", ns);
        match &response {
            Frame::WrongShard { owner, .. } => span.event("wrong-shard", owner),
            Frame::StaleMap { map_version } => span.event("stale-map", map_version),
            Frame::Error { code, .. } => span.event("error", code.label()),
            _ => {}
        }
    }
    response.encode(out);
    true
}

pub(crate) fn engine_error(e: impl std::fmt::Display) -> Frame {
    Frame::Error {
        code: ErrorCode::Engine,
        message: e.to_string(),
    }
}

/// Cluster routing gate: `Ok` carries the engine-facing object id (the
/// shard-local translation in cluster mode, the wire id standalone);
/// `Err` is the routing response that must go back instead of touching
/// the engine.
fn shard_gate(shared: &Shared, object: u64) -> Result<u64, Frame> {
    let Some(shard) = &shared.shard else {
        return Ok(object);
    };
    match shard.decide(object) {
        RouteDecision::Serve(local) => Ok(local),
        RouteDecision::WrongShard { map_version, owner } => {
            Err(Frame::WrongShard { map_version, owner })
        }
        RouteDecision::StaleMap { map_version } => Err(Frame::StaleMap { map_version }),
        RouteDecision::UnknownObject => Err(engine_error(format!(
            "unknown object {object} (owned by this shard)"
        ))),
    }
}

fn dispatch(frame: Frame, shared: &Shared, instrument: bool) -> Frame {
    match frame {
        Frame::Locate { object, block } => {
            let local = match shard_gate(shared, object) {
                Ok(local) => local,
                Err(response) => return response,
            };
            match shared.server.locate(scaddar_core::ObjectId(local), block) {
                Ok(read) => Frame::Located {
                    epoch: read.epoch as u64,
                    disks: read.disks,
                    disk: read.disk.0 as u64,
                },
                Err(e) => engine_error(e),
            }
        }
        Frame::LocateBatch { object, blocks } => {
            if blocks.is_empty() {
                return Frame::Error {
                    code: ErrorCode::BadRequest,
                    message: "empty batch".into(),
                };
            }
            let local = match shard_gate(shared, object) {
                Ok(local) => local,
                Err(response) => return response,
            };
            match shared
                .server
                .locate_batch_read(scaddar_core::ObjectId(local), &blocks)
            {
                Ok(read) => Frame::BatchLocated {
                    epoch: read.epoch as u64,
                    disks: read.disks,
                    locations: read.locations.into_iter().map(|d| d.0).collect(),
                },
                Err(e) => engine_error(e),
            }
        }
        Frame::Scale { op } => {
            let mut span = instrument.then(|| shared.tracer.span("net.scale"));
            let result = shared.server.scale_read(op);
            match result {
                Ok((epoch, disks, queued)) => {
                    if let Some(span) = span.as_mut() {
                        span.event("epoch", epoch);
                        span.event("queued", queued);
                    }
                    // Feed the monitor the op's movement data (RO1 +
                    // budget probes). The census is deliberately NOT
                    // observed here: redistribution is asynchronous, so
                    // the post-commit census is transiently unbalanced
                    // by design — it is sampled when an operator asks
                    // for `Health`, where it reflects current reality.
                    let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
                    shared
                        .server
                        .with_read(|s| monitor.observe_engine(s.engine()));
                    Frame::Scaled {
                        epoch: epoch as u64,
                        disks,
                        queued,
                    }
                }
                Err(e) => engine_error(e),
            }
        }
        Frame::Tick { rounds } => {
            for _ in 0..rounds {
                shared.server.tick();
            }
            // The generation manager rides the tick path: it syncs the
            // monitor's budget probe, fires the engine-config auto
            // policy when the §4.3 budget runs dry, and notes the
            // compaction-complete event after a flip.
            {
                let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
                let mut controller = shared.controller.lock().unwrap_or_else(|e| e.into_inner());
                controller.step_shared(&shared.server, &mut monitor);
            }
            Frame::Ticked {
                rounds,
                backlog: shared.server.backlog(),
            }
        }
        Frame::Compact => {
            let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
            let mut controller = shared.controller.lock().unwrap_or_else(|e| e.into_inner());
            // Re-issuing `compact` mid-migration joins the in-flight
            // compaction (answers its progress) instead of queueing a
            // second one behind it.
            if !shared.server.with_read(|s| s.compaction_active()) {
                controller.request();
            }
            let events = controller.step_shared(&shared.server, &mut monitor);
            let deferred = events.iter().find_map(|e| match e {
                scaddar_compact::ControllerEvent::Deferred { reason } => Some(reason.clone()),
                _ => None,
            });
            if let Some(reason) = deferred {
                return engine_error(reason);
            }
            shared.server.with_read(|s| match s.compaction_progress() {
                Some(p) => Frame::CompactStatus {
                    active: 1,
                    generation: p.from_generation,
                    target_generation: p.to_generation,
                    migrated: p.migrated_blocks,
                    total: p.total_blocks,
                    backlog: p.backlog,
                },
                None => Frame::CompactStatus {
                    active: 0,
                    generation: s.generation(),
                    target_generation: s.generation(),
                    migrated: 0,
                    total: 0,
                    backlog: 0,
                },
            })
        }
        Frame::Health => {
            let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
            shared.server.with_read(|s| {
                monitor.observe_engine(s.engine());
                monitor.observe_census(&s.load_census());
            });
            let report = monitor.report();
            Frame::HealthStatus {
                verdict: match report.verdict() {
                    Severity::Ok => 0,
                    Severity::Warn => 1,
                    Severity::Crit => 2,
                },
                alerts: monitor.alerts_emitted() as u64,
                report: report.render(),
            }
        }
        Frame::Stats { format } => Frame::StatsText {
            format,
            text: match format {
                StatsFormat::Prometheus => shared.registry.render_prometheus(),
                StatsFormat::Json => shared.registry.snapshot_json(),
            },
        },
        Frame::Ping => Frame::Pong {
            epoch: shared.server.epoch_view().0 as u64,
        },
        Frame::ScrapeStats => {
            // One RPC carries everything the fleet aggregator needs:
            // the structured registry snapshot plus the epoch and the
            // health verdict it would otherwise fetch separately.
            let verdict = {
                let mut monitor = shared.monitor.lock().unwrap_or_else(|e| e.into_inner());
                shared.server.with_read(|s| {
                    monitor.observe_engine(s.engine());
                    monitor.observe_census(&s.load_census());
                });
                match monitor.report().verdict() {
                    Severity::Ok => 0,
                    Severity::Warn => 1,
                    Severity::Crit => 2,
                }
            };
            Frame::StatsReply {
                epoch: shared.server.epoch_view().0 as u64,
                verdict,
                snapshot: shared.registry.snapshot(),
            }
        }
        Frame::ProfileDump => {
            // Mirror the tallies into the registry (so plain scrapes
            // see them too), then ship the structured snapshot.
            shared.profiler.publish(&shared.registry);
            Frame::ProfileReply {
                profile: shared.profiler.snapshot(),
            }
        }
        Frame::FetchMap { have_version: _ } => match &shared.shard {
            Some(shard) => shard.map().to_frame(),
            None => Frame::Error {
                code: ErrorCode::BadRequest,
                message: "standalone daemon: no cluster map".into(),
            },
        },
        // is_request() filtered responses out before dispatch.
        _ => unreachable!("dispatch only sees request frames"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameError;
    use cmsim::{CmServer, ServerConfig};
    use scaddar_core::ScalingOp;
    use scaddar_obs::MonotonicClock;
    use std::io::Read;

    fn boot(blocks: u64) -> (Scaddard, Registry) {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(11)).unwrap();
        server.add_object(blocks).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .unwrap();
        (daemon, registry)
    }

    fn roundtrip(addr: SocketAddr, request: &Frame) -> Frame {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&request.to_bytes()).unwrap();
        read_one(&mut stream)
    }

    fn read_one(stream: &mut TcpStream) -> Frame {
        read_buffered(stream, &mut Vec::new())
    }

    /// Reads one frame, keeping bytes past it in `buf` — pipelined
    /// responses can land in a single `read`, so the buffer must
    /// persist across calls.
    fn read_buffered(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Frame {
        let mut chunk = [0u8; 1024];
        loop {
            match crate::wire::decode_frame(buf) {
                Ok((frame, used)) => {
                    buf.drain(..used);
                    return frame;
                }
                Err(FrameError::Incomplete { .. }) => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "server closed mid-frame");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("bad response: {e}"),
            }
        }
    }

    #[test]
    fn locate_scale_tick_health_roundtrip() {
        let (daemon, _registry) = boot(5_000);
        let addr = daemon.local_addr();

        let located = roundtrip(
            addr,
            &Frame::Locate {
                object: 0,
                block: 7,
            },
        );
        let Frame::Located { epoch, disks, disk } = located else {
            panic!("expected Located, got {located:?}");
        };
        assert_eq!((epoch, disks), (0, 4));
        assert!(disk < 4);

        let scaled = roundtrip(
            addr,
            &Frame::Scale {
                op: ScalingOp::Add { count: 2 },
            },
        );
        let Frame::Scaled { epoch, disks, .. } = scaled else {
            panic!("expected Scaled, got {scaled:?}");
        };
        assert_eq!((epoch, disks), (1, 6));

        let ticked = roundtrip(addr, &Frame::Tick { rounds: 1_000 });
        assert!(matches!(ticked, Frame::Ticked { backlog: 0, .. }));

        let health = roundtrip(addr, &Frame::Health);
        let Frame::HealthStatus {
            verdict, report, ..
        } = health
        else {
            panic!("expected HealthStatus, got {health:?}");
        };
        assert_eq!(verdict, 0, "{report}");
        assert!(report.starts_with("health: OK"), "{report}");
        daemon.shutdown();
    }

    #[test]
    fn batches_are_served_at_one_epoch_and_stats_render() {
        let (daemon, _registry) = boot(2_000);
        let addr = daemon.local_addr();
        let batch = roundtrip(
            addr,
            &Frame::LocateBatch {
                object: 0,
                blocks: (0..64).collect(),
            },
        );
        let Frame::BatchLocated {
            epoch,
            disks,
            locations,
        } = batch
        else {
            panic!("expected BatchLocated, got {batch:?}");
        };
        assert_eq!(epoch, 0);
        assert_eq!(locations.len(), 64);
        assert!(locations.iter().all(|d| *d < disks as u64));

        let stats = roundtrip(
            addr,
            &Frame::Stats {
                format: StatsFormat::Prometheus,
            },
        );
        let Frame::StatsText { text, .. } = stats else {
            panic!("expected StatsText, got {stats:?}");
        };
        assert!(text.contains("net_server_requests_total{endpoint=\"locate-batch\"} 1"));
        assert!(text.contains("# TYPE net_server_connections gauge"));
        daemon.shutdown();
    }

    #[test]
    fn garbage_earns_a_protocol_error_and_a_close() {
        let (daemon, registry) = boot(100);
        let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
        // A valid header claiming an unknown tag.
        stream.write_all(&[4, 0, 0, 0, 1, 0x42, 0, 0]).unwrap();
        let response = read_one(&mut stream);
        assert!(
            matches!(
                &response,
                Frame::Error { code: ErrorCode::Protocol, message } if message.contains("0x42")
            ),
            "{response:?}"
        );
        // Connection is closed afterwards.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty());
        daemon.shutdown();
        assert!(matches!(
            registry.value("net_server_protocol_errors_total"),
            Some(scaddar_obs::MetricValue::Counter(1))
        ));
    }

    #[test]
    fn empty_batches_and_bad_objects_are_typed_errors() {
        let (daemon, _registry) = boot(100);
        let addr = daemon.local_addr();
        let empty = roundtrip(
            addr,
            &Frame::LocateBatch {
                object: 0,
                blocks: vec![],
            },
        );
        assert!(matches!(
            empty,
            Frame::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        let missing = roundtrip(
            addr,
            &Frame::Locate {
                object: 99,
                block: 0,
            },
        );
        assert!(matches!(
            missing,
            Frame::Error {
                code: ErrorCode::Engine,
                ..
            }
        ));
        daemon.shutdown();
    }

    #[test]
    fn connection_limit_rejects_with_busy() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(3)).unwrap();
        server.add_object(100).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 16);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig {
                max_connections: 1,
                ..NetServerConfig::default()
            },
            &registry,
            tracer,
        )
        .unwrap();
        let addr = daemon.local_addr();
        // First connection occupies the only slot...
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(&Frame::Ping.to_bytes()).unwrap();
        assert!(matches!(read_one(&mut first), Frame::Pong { .. }));
        // ...so the second is turned away with Busy.
        let mut second = TcpStream::connect(addr).unwrap();
        let rejection = read_one(&mut second);
        assert!(
            matches!(
                rejection,
                Frame::Error {
                    code: ErrorCode::Busy,
                    ..
                }
            ),
            "{rejection:?}"
        );
        drop(first);
        drop(second);
        daemon.shutdown();
    }

    #[test]
    fn pipelined_requests_get_ordered_responses() {
        let (daemon, _registry) = boot(1_000);
        let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut batch = Vec::new();
        for block in [1u64, 2, 3] {
            Frame::Locate { object: 0, block }.encode(&mut batch);
        }
        Frame::Ping.encode(&mut batch);
        stream.write_all(&batch).unwrap();
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert!(matches!(
                read_buffered(&mut stream, &mut buf),
                Frame::Located { .. }
            ));
        }
        assert!(matches!(
            read_buffered(&mut stream, &mut buf),
            Frame::Pong { epoch: 0 }
        ));
        daemon.shutdown();
    }

    #[test]
    fn profile_dump_and_phase_histograms_cover_the_anatomy() {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(11)).unwrap();
        server.add_object(5_000).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        let daemon = Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig {
                // Time every request's phases — no sampling noise.
                phase_sample_mask: 0,
                ..NetServerConfig::default()
            },
            &registry,
            tracer,
        )
        .unwrap();
        let addr = daemon.local_addr();
        // Pipelined lookups so coalescing waves form and every phase
        // of the anatomy fires.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        for round in 0..50u64 {
            let mut batch = Vec::new();
            for block in 0..8u64 {
                Frame::Locate {
                    object: 0,
                    block: round * 8 + block,
                }
                .encode(&mut batch);
            }
            stream.write_all(&batch).unwrap();
            for _ in 0..8 {
                assert!(matches!(
                    read_buffered(&mut stream, &mut buf),
                    Frame::Located { .. }
                ));
            }
        }
        // ProfileDump over the wire: worker rows present, conservation
        // invariant exact, and the ~1 kHz sampler has run.
        let mut profile = None;
        for _ in 0..200 {
            let reply = roundtrip(addr, &Frame::ProfileDump);
            let Frame::ProfileReply { profile: p } = reply else {
                panic!("expected ProfileReply, got {reply:?}");
            };
            if p.rounds > 0 {
                profile = Some(p);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let profile = profile.expect("sampler never ran");
        assert!(profile
            .threads
            .iter()
            .any(|t| t.name.starts_with("scaddard-worker-")));
        assert!(profile.threads.iter().any(|t| t.name == "scaddard-op"));
        assert!(profile.threads.iter().all(|t| t.conserves()), "{profile:?}");
        // The dump also mirrored the tallies into the registry.
        assert!(registry
            .render_prometheus()
            .contains("# TYPE profiler_rounds gauge"));
        daemon.shutdown();
        let snap = registry.snapshot();
        let phase = |name: &str| {
            snap.histogram(&format!("net_phase_ns{{phase=\"{name}\"}}"))
                .unwrap_or_else(|| panic!("missing phase histogram {name}"))
        };
        for name in [
            "decode",
            "coalesce-wait",
            "lock-wait",
            "encode",
            "write-flush",
        ] {
            assert!(phase(name).count > 0, "phase {name} never recorded");
        }
        let engine = snap
            .histogram("net_phase_ns{phase=\"engine\",depth=\"0\"}")
            .expect("missing engine depth-0 histogram");
        assert!(engine.count > 0, "engine phase never recorded");
        // Sum-consistency: medians are not additive across distinct
        // histograms, but the serve-side phases (lock-wait + engine +
        // encode, which together span one wave) cannot collectively
        // dwarf the end-to-end latency. The envelope is deliberately
        // generous — 10× the per-request p50 (a wave of up to 8 frames
        // splits its wall time 8 ways) plus 100 µs of scheduling noise
        // and log-bucket overshoot.
        let e2e = snap
            .histogram("net_server_request_ns{endpoint=\"locate\"}")
            .expect("missing locate histogram");
        let phase_sum = phase("lock-wait").quantile(0.5).unwrap()
            + engine.quantile(0.5).unwrap()
            + phase("encode").quantile(0.5).unwrap();
        let envelope = 10 * e2e.quantile(0.5).unwrap() + 100_000;
        assert!(
            phase_sum <= envelope,
            "phase p50 sum {phase_sum}ns exceeds envelope {envelope}ns"
        );
    }

    #[test]
    fn shutdown_drains_idle_connections() {
        let (daemon, registry) = boot(100);
        let stream = TcpStream::connect(daemon.local_addr()).unwrap();
        // Give the acceptor a moment to hand the connection off.
        while daemon.active_connections() == 0 {
            std::thread::yield_now();
        }
        daemon.shutdown(); // the worker closes the idle connection on drain
        drop(stream);
        assert!(matches!(
            registry.value("net_server_connections"),
            Some(scaddar_obs::MetricValue::Gauge(0))
        ));
    }
}
