//! E21 — the price of the socket: wire codec throughput and the
//! loopback request path.
//!
//! Three layers, so a regression is attributable:
//!
//! 1. `net_codec` — encode/decode of the hot frames in isolation (the
//!    pure CPU cost a request pays before/after the kernel);
//! 2. `net_request` — one `locate` round-trip over a real loopback
//!    socket through `scaddard` (syscalls + framing + dispatch);
//! 3. `net_pipeline` — 16 pipelined locates per wakeup, the client
//!    library's batching path (amortizes the per-write syscall cost).
//!
//! `net_locate_overhead` prices the serving telemetry: the
//! `locate_roundtrip` of layer 2 against a bare (`instrument: false`)
//! daemon and an instrumented one, in 5 interleaved pairs so host drift
//! lands on both sides alike. `bench_report --gate net` gates the median
//! pair ratio at 1.10. End-to-end latency under load is `perfbench`'s.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
use scaddar_net::{decode_frame, Frame, NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::hint::black_box;
use std::sync::Arc;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_codec");
    let locate = Frame::Locate {
        object: 3,
        block: 31_337,
    };
    let batch = Frame::BatchLocated {
        epoch: 4,
        disks: 10,
        locations: (0..64).map(|i| i % 10).collect(),
    };
    group.bench_function(BenchmarkId::from_parameter("encode_locate"), |b| {
        let mut buf = Vec::with_capacity(64);
        b.iter(|| {
            buf.clear();
            black_box(locate.encode(&mut buf))
        });
    });
    group.bench_function(BenchmarkId::from_parameter("encode_batch64"), |b| {
        let mut buf = Vec::with_capacity(1024);
        b.iter(|| {
            buf.clear();
            black_box(batch.encode(&mut buf))
        });
    });
    let locate_bytes = locate.to_bytes();
    let batch_bytes = batch.to_bytes();
    group.bench_function(BenchmarkId::from_parameter("decode_locate"), |b| {
        b.iter(|| black_box(decode_frame(black_box(&locate_bytes)).unwrap()));
    });
    group.bench_function(BenchmarkId::from_parameter("decode_batch64"), |b| {
        b.iter(|| black_box(decode_frame(black_box(&batch_bytes)).unwrap()));
    });
    group.finish();
}

fn boot(instrument: bool) -> Scaddard {
    let mut server =
        cmsim::CmServer::new(cmsim::ServerConfig::new(4).with_catalog_seed(0xBE)).unwrap();
    server.add_object(10_000).unwrap();
    let registry = Registry::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
    Scaddard::bind(
        "127.0.0.1:0",
        Arc::new(cmsim::SharedServer::new(server)),
        NetServerConfig {
            instrument,
            ..NetServerConfig::default()
        },
        &registry,
        tracer,
    )
    .unwrap()
}

fn locate_roundtrip(b: &mut Bencher, client: &NetClient) {
    let mut i = 0u64;
    b.iter(|| {
        i = (i + 1) % 10_000;
        black_box(client.locate(0, black_box(i)).expect("locate"))
    });
}

fn bench_request_path(c: &mut Criterion) {
    // Each daemon hands its first connection to worker 0, pinned to CPU
    // 0. Pinning the client there too fixes where every round trip
    // wakes up; a floating client alternates between same-core and
    // cross-core wakeups, which moved single rows here by up to 2.5x.
    let _ = polling::pin_current_thread_to_cpu(0);
    let daemon = boot(true);
    let client = NetClient::connect(daemon.local_addr());
    let mut group = c.benchmark_group("net_request");
    group.bench_function(BenchmarkId::from_parameter("locate_roundtrip"), |b| {
        locate_roundtrip(b, &client)
    });
    group.finish();

    let mut group = c.benchmark_group("net_pipeline");
    let requests: Vec<Frame> = (0..16)
        .map(|i| Frame::Locate {
            object: 0,
            block: i * 131,
        })
        .collect();
    group.bench_function(BenchmarkId::from_parameter("locate_x16"), |b| {
        b.iter(|| black_box(client.pipeline(black_box(&requests)).expect("pipeline")));
    });
    group.finish();

    let bare_daemon = boot(false);
    let bare = NetClient::connect(bare_daemon.local_addr());
    let mut group = c.benchmark_group("net_locate_overhead");
    for pair in 0..5 {
        for (side, client) in [("bare", &bare), ("instrumented", &client)] {
            group.bench_function(BenchmarkId::new(side, pair), |b| {
                locate_roundtrip(b, client)
            });
        }
    }
    group.finish();
    drop((client, bare));
    daemon.shutdown();
    bare_daemon.shutdown();
}

criterion_group!(benches, bench_codec, bench_request_path);
criterion_main!(benches);
