//! Extends `cmsim::concurrent`'s in-process guarantee across the
//! socket boundary: 64 client threads hammer `LocateBatch` over
//! loopback while an operator thread commits `Scale` ops mid-run, and
//! every response must be epoch-consistent — each batch served entirely
//! at one epoch, each epoch mapping to exactly one disk count, every
//! location a member of that epoch's *physical* disk set (ids are
//! stable across removals, so the set is not `0..disks`), and
//! per-connection epochs never running backwards.
//!
//! The event-loop reactor's cross-connection coalescing must not
//! reorder a connection's responses around a `Scale` barrier; the test
//! runs with the default per-core workers and with a single worker.

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_core::ScalingOp;
use scaddar_net::{NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 64;
const BATCHES_PER_CLIENT: u64 = 24;
const BATCH_LEN: u64 = 16;
const OBJECT_BLOCKS: u64 = 20_000;
const SCALE_OPS: u64 = 2;

/// Physical disk ids live at each epoch of the fixed schedule: 4
/// initial disks, then `Add {count: 2}`, then `Remove {disks: [1]}`.
/// Additions mint fresh ids; removals drop the victim's *stable* id,
/// so epoch 2 is `{0, 2, 3, 4, 5}` — five disks whose max id is 5.
fn physical_set_at(epoch: u64) -> HashSet<u64> {
    match epoch {
        0 => (0..4).collect(),
        1 => (0..6).collect(),
        2 => [0, 2, 3, 4, 5].into_iter().collect(),
        _ => panic!("schedule has only {SCALE_OPS} ops, saw epoch {epoch}"),
    }
}

fn no_torn_epochs_through_scale_commits(workers: usize) {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(0xD15C)).unwrap();
    server.add_object(OBJECT_BLOCKS).unwrap();
    let registry = Registry::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::new(SharedServer::new(server)),
        NetServerConfig {
            workers,
            ..NetServerConfig::default()
        },
        &registry,
        tracer,
    )
    .unwrap();
    let addr = daemon.local_addr();

    let progress = AtomicU64::new(0);
    let total = CLIENTS as u64 * BATCHES_PER_CLIENT;
    // (epoch, disks, locations) per response, gathered per thread.
    let observations: Vec<Vec<(u64, u32, Vec<u64>)>> = std::thread::scope(|scope| {
        let progress = &progress;
        let operator = scope.spawn(move || {
            // Commit each op once a slice of the run has completed, so
            // scaling genuinely lands mid-traffic.
            let client = NetClient::connect(addr);
            for i in 0..SCALE_OPS {
                let gate = total * (i + 1) / (SCALE_OPS + 1);
                while progress.load(Ordering::Relaxed) < gate {
                    std::thread::yield_now();
                }
                let op = if i % 2 == 0 {
                    ScalingOp::Add { count: 2 }
                } else {
                    ScalingOp::Remove { disks: vec![1] }
                };
                client.scale(op).expect("scale commit");
                while client.tick(500).expect("tick") > 0 {}
            }
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let client = NetClient::connect(addr);
                    let mut seen = Vec::with_capacity(BATCHES_PER_CLIENT as usize);
                    for i in 0..BATCHES_PER_CLIENT {
                        let start = (c as u64 * 131 + i * 17) % (OBJECT_BLOCKS - BATCH_LEN);
                        let blocks: Vec<u64> = (start..start + BATCH_LEN).collect();
                        let (epoch, disks, locations) =
                            client.locate_batch(0, &blocks).expect("batch");
                        assert_eq!(locations.len(), blocks.len());
                        seen.push((epoch, disks, locations));
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    seen
                })
            })
            .collect();
        let result = handles.into_iter().map(|h| h.join().unwrap()).collect();
        operator.join().unwrap();
        result
    });

    // Every location is a live physical disk of the epoch it was
    // served at — a torn batch would leak a location from the wrong
    // epoch's array (e.g. the removed disk, or an id past the old max).
    for (epoch, _, locations) in observations.iter().flatten() {
        let live = physical_set_at(*epoch);
        for loc in locations {
            assert!(
                live.contains(loc),
                "epoch {epoch}: location {loc} outside live set {live:?}"
            );
        }
    }
    // One epoch, one array shape — a torn batch would pair an epoch
    // with the wrong disk count.
    let mut shape: HashMap<u64, u32> = HashMap::new();
    for (epoch, disks, _) in observations.iter().flatten() {
        assert_eq!(
            *disks,
            physical_set_at(*epoch).len() as u32,
            "epoch {epoch} served with {disks} disks"
        );
        let entry = shape.entry(*epoch).or_insert(*disks);
        assert_eq!(
            entry, disks,
            "epoch {epoch} served with both {entry} and {disks} disks"
        );
    }
    // Per connection, the serving epoch never runs backwards (requests
    // on one connection are answered in order, even when the event loop
    // coalesces lookups across connections).
    for per_client in &observations {
        for pair in per_client.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0,
                "epoch ran backwards on one connection: {:?} then {:?}",
                (pair[0].0, pair[0].1),
                (pair[1].0, pair[1].1),
            );
        }
    }
    // The scaling really happened mid-run: multiple epochs observed.
    assert!(
        shape.len() > 1,
        "only epochs {:?} observed — scale ops never landed mid-traffic",
        shape.keys().collect::<Vec<_>>()
    );
    daemon.shutdown();
}

#[test]
fn sixty_four_clients_see_no_torn_epochs_event_loop() {
    no_torn_epochs_through_scale_commits(0);
}

/// One worker puts every connection in one coalescing wave, which the
/// default per-core config does not force.
#[test]
fn sixty_four_clients_see_no_torn_epochs_threaded() {
    no_torn_epochs_through_scale_commits(1);
}
