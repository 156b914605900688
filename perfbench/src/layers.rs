//! Per-layer measurements for the traced run: the benchmark's own timed
//! calls into each layer's public functions (each call batch inside a
//! span), and the daemon's telemetry scraped through `ScrapeStats`.

use crate::gen::{Spec, PREFETCH_BLOCKS};
use crate::load::Sample;
use crate::report::{Samples, Spans};
use crate::wire_conn::Conn;
use cmsim::SharedServer;
use scaddar_core::{EngineStats, ObjectId, ScalingOp};
use scaddar_net::{decode_frame, Frame};
use scaddar_obs::{HistogramSnapshot, Registry, RegistrySnapshot};
use std::net::SocketAddr;
use std::time::Instant;

/// Replayed calls per span.
const CHUNK: usize = 4096;

/// The reactor phases as `net_phase_ns{phase=...}` labels, in the
/// order of the `net.reactor.*` metrics.
pub const PHASES: [&str; 6] = [
    "decode",
    "coalesce-wait",
    "lock-wait",
    "engine",
    "encode",
    "write-flush",
];

/// One phase's scraped histogram: `(p50 ns, mean ns, count)`.
pub fn phase(snapshot: &RegistrySnapshot, label: &str) -> (f64, f64, u64) {
    // The engine phase is split by REMAP chain depth; merge the split
    // bucket-wise (never percentile-wise).
    let mut merged: Option<HistogramSnapshot> = None;
    for h in &snapshot.histograms {
        let matches = h.name == format!("net_phase_ns{{phase=\"{label}\"}}")
            || h.name
                .starts_with(&format!("net_phase_ns{{phase=\"{label}\","));
        if !matches {
            continue;
        }
        match merged.as_mut() {
            None => merged = Some(h.snapshot.clone()),
            Some(m) => {
                for (a, b) in m.buckets.iter_mut().zip(h.snapshot.buckets.iter()) {
                    *a += b;
                }
                m.count += h.snapshot.count;
                m.sum = m.sum.wrapping_add(h.snapshot.sum);
                m.max = m.max.max(h.snapshot.max);
            }
        }
    }
    match merged {
        Some(m) if m.count > 0 => (
            m.quantile(0.5).unwrap_or(0) as f64,
            m.sum as f64 / m.count as f64,
            m.count,
        ),
        _ => (f64::NAN, f64::NAN, 0),
    }
}

/// Mean of a scraped histogram, or NaN when absent or empty.
pub fn hist_mean(snapshot: &RegistrySnapshot, name: &str) -> f64 {
    snapshot
        .histogram(name)
        .filter(|h| h.count > 0)
        .map_or(f64::NAN, |h| h.sum as f64 / h.count as f64)
}

/// Sum of every counter whose name starts with `prefix`.
pub fn counter_sum(snapshot: &RegistrySnapshot, prefix: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with(prefix))
        .map(|c| c.value)
        .sum()
}

/// Median bare `Ping` round trip over `count` pings, µs.
pub fn ping_rtt_us(addr: SocketAddr, count: usize) -> f64 {
    let Ok(mut conn) = Conn::connect(addr) else {
        return f64::NAN;
    };
    let mut rtt = Samples::default();
    for _ in 0..count {
        let start = Instant::now();
        if conn
            .send(&[Frame::Ping])
            .and_then(|()| conn.recv())
            .is_err()
        {
            return f64::NAN;
        }
        rtt.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    rtt.sort();
    rtt.median()
}

/// The codec replay: the run's own request frames and sampled replies,
/// encoded and decoded again.
pub struct Codec {
    /// Mean `Frame::encode` ns per frame.
    pub encode_ns: f64,
    /// Mean `decode_frame` ns per frame.
    pub decode_ns: f64,
    /// Request plus reply bytes per block located.
    pub bytes_per_block: f64,
}

/// Replays the workload's frames through the codec.
pub fn codec(spec: &Spec, samples: &[Sample], spans: &mut Spans) -> Codec {
    let mut frames = Vec::new();
    let mut blocks = 0u64;
    for s in samples {
        let n = s.answers.len() as u64;
        blocks += n;
        if n > 1 {
            frames.push(Frame::LocateBatch {
                object: s.object,
                blocks: (s.block..s.block + n).collect(),
            });
            frames.push(Frame::BatchLocated {
                epoch: s.epoch,
                disks: s.disks,
                locations: s.answers.clone(),
            });
        } else {
            frames.push(Frame::Locate {
                object: s.object,
                block: s.block,
            });
            frames.push(Frame::Located {
                epoch: s.epoch,
                disks: s.disks,
                disk: s.answers[0],
            });
        }
    }
    if frames.is_empty() {
        // No sample (a failed run): fall back to generated requests.
        for r in spec.requests(0).take(1024) {
            blocks += r.len;
            frames.push(Frame::Locate {
                object: r.object,
                block: r.block,
            });
        }
    }
    let mut encode = Samples::default();
    let mut decode = Samples::default();
    let mut buf = Vec::with_capacity(1 << 20);
    // Several passes, so the timed spans are long against clock reads.
    for pass in 0..8u64 {
        for (c, chunk) in frames.chunks(CHUNK).enumerate() {
            let id = pass << 32 | c as u64;
            buf.clear();
            encode.push(
                spans.time(id, "net.wire.encode", "replay", chunk.len() as u64, || {
                    for f in chunk {
                        f.encode(&mut buf);
                    }
                }),
            );
            decode.push(
                spans.time(id, "net.wire.decode", "replay", chunk.len() as u64, || {
                    let mut at = 0;
                    while at < buf.len() {
                        let (frame, used) = decode_frame(&buf[at..]).expect("own frame decodes");
                        std::hint::black_box(frame);
                        at += used;
                    }
                }),
            );
        }
    }
    let bytes: usize = frames.iter().map(|f| f.to_bytes().len()).sum();
    encode.sort();
    decode.sort();
    Codec {
        encode_ns: encode.median(),
        decode_ns: decode.median(),
        bytes_per_block: bytes as f64 / blocks.max(1) as f64,
    }
}

/// In-process replays of the workload's lookups through each layer.
pub struct Replay {
    /// `SharedServer::locate` (lock + `locate_current`), ns per call.
    pub shared_locate_ns: f64,
    /// `SharedServer::locate_batch_read` of 64-block prefetches, ns per
    /// block.
    pub shared_batch_ns_per_block: f64,
    /// `Scaddar::locate` (an X-cache hit), ns per call.
    pub core_locate_ns: f64,
    /// `RemapPipeline::fold` at the run's chain depth, ns per call.
    pub fold_ns: f64,
    /// `Catalog::x0`, ns per call.
    pub x0_ns: f64,
    /// X-cache hits ÷ lookups over the replay.
    pub xcache_hit_ratio: f64,
    /// `Scaddar::scale` on a clone of the engine, ms (median).
    pub core_scale_ms: f64,
}

/// Replays `calls` single-block lookups of reader 0's stream, and the
/// same blocks as 64-block prefetches, through each layer's public
/// entry point. `op` is the scaling op `core.scale` is timed with.
pub fn replay(
    spec: &Spec,
    shared: &SharedServer,
    calls: usize,
    op: &ScalingOp,
    spans: &mut Spans,
) -> Replay {
    let mut prefetches = Vec::new();
    let mut stream = spec.requests(0);
    while prefetches.len() * (PREFETCH_BLOCKS as usize) < calls {
        let r = stream.next().expect("endless stream");
        prefetches.push((r.object, r.block));
        if r.len == 1 {
            // The rest of a single-block session is this prefetch.
            for _ in 1..PREFETCH_BLOCKS {
                stream.next();
            }
        }
    }
    let singles: Vec<(ObjectId, u64)> = prefetches
        .iter()
        .flat_map(|&(o, b)| (b..b + PREFETCH_BLOCKS).map(move |x| (ObjectId(o), x)))
        .collect();
    let mut shared_ns = Samples::default();
    let mut batch_ns = Samples::default();
    let mut core_ns = Samples::default();
    let mut fold_ns = Samples::default();
    let mut x0_ns = Samples::default();
    let per_chunk = CHUNK / PREFETCH_BLOCKS as usize;
    for (c, chunk) in singles.chunks(CHUNK).enumerate() {
        let id = c as u64;
        let root_start = spans.now();
        shared_ns.push(spans.time(
            id,
            "cmsim.shared.locate",
            "replay",
            chunk.len() as u64,
            || {
                for &(o, b) in chunk {
                    std::hint::black_box(shared.locate(o, b).expect("catalog block"));
                }
            },
        ));
        let batch = &prefetches[c * per_chunk..((c + 1) * per_chunk).min(prefetches.len())];
        let blocks: Vec<Vec<u64>> = batch
            .iter()
            .map(|&(_, b)| (b..b + PREFETCH_BLOCKS).collect())
            .collect();
        batch_ns.push(spans.time(
            id,
            "cmsim.shared.locate_batch",
            "replay",
            (batch.len() as u64) * PREFETCH_BLOCKS,
            || {
                for (&(o, _), bs) in batch.iter().zip(&blocks) {
                    std::hint::black_box(
                        shared
                            .locate_batch_read(ObjectId(o), bs)
                            .expect("catalog blocks"),
                    );
                }
            },
        ));
        shared.with_read(|s| {
            let engine = s.engine();
            core_ns.push(
                spans.time(id, "core.locate", "replay", chunk.len() as u64, || {
                    for &(o, b) in chunk {
                        std::hint::black_box(engine.locate(o, b).expect("catalog block"));
                    }
                }),
            );
            let catalog = engine.catalog();
            let objs: Vec<_> = chunk
                .iter()
                .map(|&(o, b)| (*catalog.object(o).expect("catalog object"), b))
                .collect();
            let mut x0s = Vec::with_capacity(chunk.len());
            x0_ns.push(spans.time(id, "prng.x0", "replay", chunk.len() as u64, || {
                for (obj, b) in &objs {
                    x0s.push(catalog.x0(obj, *b));
                }
            }));
            let pipeline = engine.pipeline();
            fold_ns.push(spans.time(
                id,
                "core.pipeline.fold",
                "replay",
                chunk.len() as u64,
                || {
                    for &x in &x0s {
                        std::hint::black_box(pipeline.fold(x));
                    }
                },
            ));
        });
        let root_end = spans.now();
        spans.record(crate::report::Span {
            id,
            name: "replay",
            parent: "",
            start_ns: root_start,
            end_ns: root_end,
            calls: chunk.len() as u64,
        });
    }
    // X-cache accounting and scale on clones carrying their own stats
    // (the daemon's engine has none attached).
    let engine = shared.with_read(|s| s.engine().clone());
    let registry = Registry::new();
    let stats = EngineStats::register_monotonic(&registry);
    let mut probe = engine.clone();
    probe.attach_stats(stats.clone());
    for &(o, b) in singles.iter().take(CHUNK) {
        std::hint::black_box(probe.locate(o, b).expect("catalog block"));
    }
    let hits = stats.xcache_hits.get();
    let misses = stats.xcache_misses.get();
    let mut scale_ms = Samples::default();
    for rep in 0..3u64 {
        let mut clone = engine.clone();
        scale_ms.push(
            spans.time(rep, "core.scale", "", 1, || {
                clone.scale(op.clone()).expect("generated op valid")
            }) / 1e6,
        );
    }
    for s in [
        &mut shared_ns,
        &mut batch_ns,
        &mut core_ns,
        &mut fold_ns,
        &mut x0_ns,
        &mut scale_ms,
    ] {
        s.sort();
    }
    Replay {
        shared_locate_ns: shared_ns.median(),
        shared_batch_ns_per_block: batch_ns.median(),
        core_locate_ns: core_ns.median(),
        fold_ns: fold_ns.median(),
        x0_ns: x0_ns.median(),
        xcache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        core_scale_ms: scale_ms.median(),
    }
}
