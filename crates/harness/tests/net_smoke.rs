//! Net-facing smoke scenario: boot a `scaddard` daemon on an ephemeral
//! loopback port, drive it with a fixed locate/batch mix from several
//! client threads while one of them commits `Scale` + `Tick` twice
//! mid-run, and assert the run was clean — zero protocol errors, zero
//! epoch-consistency violations, scaling observed mid-traffic — and
//! that the engine behind the socket still satisfies the in-process
//! invariants the harness pins down (residency consistent, zero stream
//! hiccups). The closed loop runs with the default per-core workers and
//! with a single worker; a third case keeps whole windows of frames
//! pipelined on each connection while the scale commits land.
//! `perfbench` drives the same daemon at length, oracle-checking every
//! reply.

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_core::ScalingOp;
use scaddar_net::{Frame, NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{Histogram, MonotonicClock, Registry, Tracer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const BLOCKS: u64 = 10_000;
/// Every 8th request is a 16-block `LocateBatch`.
const BATCH_EVERY: u64 = 8;
const BATCH_LEN: u64 = 16;
/// `Scale` commits spread across the run: add one disk, then remove it.
const SCALE_OPS: u64 = 2;

/// Request `i` of client `c`: a fixed sequence spread over the object.
fn request(c: u64, i: u64) -> Frame {
    let block = (c * 7_919 + i * 104_729) % BLOCKS;
    if i % BATCH_EVERY == BATCH_EVERY - 1 {
        let first = block.min(BLOCKS - BATCH_LEN);
        Frame::LocateBatch {
            object: 0,
            blocks: (first..first + BATCH_LEN).collect(),
        }
    } else {
        Frame::Locate { object: 0, block }
    }
}

/// One client sending windows of `window` frames back to back on one
/// connection (a window of 1 is a closed loop of single round trips).
/// Any transport error, error reply or torn epoch fails the test.
/// Client 0 doubles as the operator: it commits each scale op once it
/// is that far through its run, while the other clients keep sending,
/// and drains it with `Tick`.
fn client(addr: SocketAddr, c: u64, requests: u64, window: u64, run: &Run) {
    let client = NetClient::connect(addr);
    let mut ops = 0;
    for first in (0..requests).step_by(window as usize) {
        if c == 0 && ops < SCALE_OPS && first >= requests * (ops + 1) / (SCALE_OPS + 1) {
            let op = if ops % 2 == 0 {
                ScalingOp::Add { count: 1 }
            } else {
                ScalingOp::Remove { disks: vec![4] }
            };
            client.scale(op).expect("scale over loopback");
            while client.tick(1_000).expect("tick over loopback") > 0 {}
            ops += 1;
        }
        let frames: Vec<Frame> = (first..(first + window).min(requests))
            .map(|i| request(c, i))
            .collect();
        let t0 = Instant::now();
        let replies = client.pipeline(&frames).expect("round trip over loopback");
        run.latency.record(t0.elapsed().as_nanos() as u64);
        for reply in replies {
            let (served, epoch, disks, locations) = match reply {
                Frame::Located { epoch, disks, disk } => (&run.locates, epoch, disks, vec![disk]),
                Frame::BatchLocated {
                    epoch,
                    disks,
                    locations,
                } => (&run.batches, epoch, disks, locations),
                other => panic!("error or unexpected reply over loopback: {other:?}"),
            };
            assert!(
                locations.iter().all(|&d| d < u64::from(disks)),
                "torn epoch across the socket: {locations:?} under {disks} disks"
            );
            served.fetch_add(1, Ordering::Relaxed);
            run.epochs.fetch_or(1 << (epoch % 64), Ordering::Relaxed);
        }
    }
}

/// What the clients saw, summed over all of them.
#[derive(Default)]
struct Run {
    locates: AtomicU64,
    batches: AtomicU64,
    /// Bit `e % 64` set for every epoch a reply was served at.
    epochs: AtomicU64,
    latency: Histogram,
}

fn smoke(workers: usize, clients: u64, requests: u64, window: u64) {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(0x5E6E)).unwrap();
    server.add_object(BLOCKS).unwrap();
    let shared = Arc::new(SharedServer::new(server));
    let registry = Registry::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 128);
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::clone(&shared),
        NetServerConfig {
            workers,
            ..NetServerConfig::default()
        },
        &registry,
        tracer,
    )
    .unwrap();

    let addr = daemon.local_addr();
    let run = Run::default();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let run = &run;
            scope.spawn(move || client(addr, c, requests, window, run));
        }
    });

    assert!(
        run.epochs.load(Ordering::Relaxed).count_ones() > 1,
        "scale commits never landed mid-traffic"
    );
    let locates = run.locates.load(Ordering::Relaxed);
    let batches = run.batches.load(Ordering::Relaxed);
    assert_eq!(locates + batches, clients * requests);
    assert!(locates > 0 && batches > 0);
    let latency = run.latency.snapshot();
    assert!(latency.quantile(0.999) >= latency.quantile(0.5));

    // The server-side ledger agrees with the client-side run.
    let text = registry.render_prometheus();
    assert!(text.contains("net_server_requests_total{endpoint=\"locate\"}"));
    assert!(text.contains("net_server_requests_total{endpoint=\"scale\"} 2"));
    assert!(text.contains("# TYPE net_server_request_ns histogram"));

    // Serving over a socket must not have bent the in-process story:
    // drain any leftover backlog, then the harness-grade invariants hold.
    daemon.shutdown();
    shared.with_write(|s| {
        while s.backlog() > 0 {
            s.tick();
        }
    });
    shared.with_read(|s| {
        assert!(
            s.residency_consistent(),
            "residency diverged from placement"
        );
        assert_eq!(s.metrics().total_hiccups(), 0, "streams hiccuped");
    });
}

#[test]
fn seeded_loopback_load_is_clean_and_preserves_engine_invariants() {
    smoke(0, 8, 120, 1);
}

/// One worker puts every connection in one coalescing wave, which the
/// default per-core config does not force.
#[test]
fn seeded_loopback_load_is_clean_on_the_threaded_reference() {
    smoke(1, 8, 120, 1);
}

/// Windows of 32 frames on the wire per connection while both scale
/// commits land: the reactor answers whole waves across an epoch change
/// and no reply in a window is torn.
#[test]
fn pipelined_load_under_scale_is_clean() {
    smoke(0, 4, 250, 32);
}
