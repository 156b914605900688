//! Boots the real `scaddard` daemon in-process on loopback, exactly as
//! `scaddar serve` does, and times each setup step.

use crate::gen::Spec;
use cmsim::{CmServer, ServerConfig, ServerStats, SharedServer};
use scaddar_net::{NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// A running daemon and the engine it serves.
pub struct Daemon {
    /// The engine behind the daemon's lock (shared, in-process).
    pub shared: Arc<SharedServer>,
    /// The bound daemon.
    pub daemon: Scaddard,
}

impl Daemon {
    /// The daemon's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// Graceful drain; joins every daemon thread.
    pub fn shutdown(self) {
        self.daemon.shutdown();
    }
}

/// How long one setup took, step by step.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// Catalog build + setup history + bind, seconds.
    pub total_s: f64,
    /// `CmServer::add_object` calls, seconds.
    pub add_object_s: f64,
    /// `Scaddard::bind`, milliseconds.
    pub bind_ms: f64,
}

/// Builds the catalog, applies the setup history offline and binds the
/// daemon. `phase_sample_mask` overrides the default sampling mask (the
/// traced run times every request's phases with `Some(0)`).
pub fn setup(spec: &Spec, phase_sample_mask: Option<u64>) -> (Daemon, SetupTiming) {
    let start = Instant::now();
    let mut server =
        CmServer::new(ServerConfig::new(spec.initial_disks).with_catalog_seed(spec.catalog_seed))
            .expect("engine config");
    let registry = Registry::new();
    server.attach_stats(ServerStats::register_monotonic(&registry));
    let add_start = Instant::now();
    for _ in 0..spec.objects {
        server
            .add_object(spec.blocks_per_object)
            .expect("unbounded disk capacity");
    }
    let add_object_s = add_start.elapsed().as_secs_f64();
    for op in &spec.history {
        server
            .scale_offline(op.clone())
            .expect("generated op valid");
    }
    let shared = Arc::new(SharedServer::new(server));
    let mut config = NetServerConfig::default();
    if let Some(mask) = phase_sample_mask {
        config.phase_sample_mask = mask;
    }
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 256);
    let bind_start = Instant::now();
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::clone(&shared),
        config,
        &registry,
        tracer,
    )
    .expect("bind loopback");
    let bind_ms = bind_start.elapsed().as_secs_f64() * 1e3;
    let timing = SetupTiming {
        total_s: start.elapsed().as_secs_f64(),
        add_object_s,
        bind_ms,
    };
    (Daemon { shared, daemon }, timing)
}
