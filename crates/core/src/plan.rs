//! The redistribution function `RF()` — planning which blocks move.
//!
//! During scaling operation `j`, `RF()` computes each block's `X_j` and
//! emits a move for every block whose disk changed (§4):
//!
//! * **addition** — all blocks are examined (cheap integer math per
//!   block), the `(N_j - N_{j-1})/N_j` fraction that remaps onto an added
//!   disk is moved;
//! * **removal** — only blocks on the removed disks move; callers that
//!   track residency (the simulator's block store) can restrict the scan
//!   accordingly, and the plan they get is identical.
//!
//! A [`MovePlan`] is pure data: applying it to actual storage is the
//! simulator's job (`cmsim::redistribute`), which is also where the
//! *online* aspects (rate limiting, bandwidth accounting) live.

use crate::address::DiskIndex;
use crate::log::{RecordAction, ScalingLog, ScalingRecord};
use crate::object::{BlockRef, Catalog};
use crate::pipeline::RemapPipeline;
use crate::remap::{remap_add, remap_remove};
use crate::stats::EngineStats;

/// One block that must change disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMove {
    /// Which block.
    pub block: BlockRef,
    /// Its disk before the operation (pre-op logical numbering).
    pub from: DiskIndex,
    /// Its disk after the operation (post-op logical numbering).
    pub to: DiskIndex,
}

/// The complete set of moves for one scaling operation, plus censuses.
#[derive(Debug, Clone, PartialEq)]
pub struct MovePlan {
    /// Epoch the plan transitions *into* (the `j` of `REMAP_j`).
    pub target_epoch: usize,
    /// Every block that changes disks.
    pub moves: Vec<BlockMove>,
    /// Total blocks examined (`B`).
    pub total_blocks: u64,
    /// Optimal fraction `z_j` for this operation (Def. 3.4).
    pub optimal_fraction: f64,
}

impl MovePlan {
    /// Fraction of all blocks moved. RO1 requires this to be ~`z_j`.
    pub fn moved_fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.moves.len() as f64 / self.total_blocks as f64
        }
    }

    /// How far above optimal the plan is, as a ratio
    /// (`1.0` = exactly optimal). The headline RO1 metric.
    pub fn overhead_ratio(&self) -> f64 {
        if self.optimal_fraction == 0.0 {
            if self.moves.is_empty() {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.moved_fraction() / self.optimal_fraction
        }
    }

    /// Census of move targets: how many blocks each destination disk
    /// receives. Indexed by post-op logical disk.
    pub fn target_census(&self, disks_after: u32) -> Vec<u64> {
        let mut counts = vec![0u64; disks_after as usize];
        for mv in &self.moves {
            counts[mv.to.0 as usize] += 1;
        }
        counts
    }

    /// Census of move sources, indexed by pre-op logical disk. Used by
    /// experiment E2 to expose the naive scheme's biased sourcing.
    pub fn source_census(&self, disks_before: u32) -> Vec<u64> {
        let mut counts = vec![0u64; disks_before as usize];
        for mv in &self.moves {
            counts[mv.from.0 as usize] += 1;
        }
        counts
    }
}

/// Movement accounting for one *applied* scaling operation: the RO1
/// numbers of a [`MovePlan`] without the per-block move list. The
/// engine retains one of these per `scale()` call
/// ([`Scaddar::op_movements`](crate::Scaddar::op_movements)) so health
/// monitors can audit the moved fraction against the optimal `z_j`
/// (Def. 3.4) after the fact, at ~40 bytes per operation instead of
/// `O(B)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMovement {
    /// Epoch the operation transitioned into (the `j` of `REMAP_j`).
    pub epoch: usize,
    /// Disk count before the operation (`N_{j-1}`).
    pub disks_before: u32,
    /// Disk count after the operation (`N_j`).
    pub disks_after: u32,
    /// Blocks the plan moved.
    pub moved: u64,
    /// Total blocks examined (`B`).
    pub total: u64,
    /// Optimal fraction `z_j` for this operation (Def. 3.4).
    pub optimal_fraction: f64,
}

impl OpMovement {
    /// Summarizes a plan, recording the disk counts it transitioned
    /// between.
    pub fn from_plan(plan: &MovePlan, disks_before: u32, disks_after: u32) -> Self {
        OpMovement {
            epoch: plan.target_epoch,
            disks_before,
            disks_after,
            moved: plan.moves.len() as u64,
            total: plan.total_blocks,
            optimal_fraction: plan.optimal_fraction,
        }
    }

    /// Fraction of all blocks moved (cf. [`MovePlan::moved_fraction`]).
    pub fn moved_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.moved as f64 / self.total as f64
        }
    }
}

/// Plans the moves for the *last* operation in `log`, given the catalog.
///
/// The log must already contain the operation (push first, then plan);
/// this keeps a single source of truth for epochs. For each block the
/// chain `X_0 … X_{j-1}` is recomputed and the final record applied —
/// `O(B·j)` total — the reference the engine's one-pass
/// [`XCache::advance_one`](crate::XCache::advance_one) is tested against.
///
/// # Panics
/// If the log has no operations.
pub fn plan_last_op(catalog: &Catalog, log: &ScalingLog) -> MovePlan {
    let j = log.epoch();
    assert!(j > 0, "log has no scaling operation to plan");
    let prefix: Vec<&ScalingRecord> = log.records()[..j - 1].iter().collect();
    let record = &log.records()[j - 1];
    let x_prev_of = |x0: u64| {
        prefix.iter().fold(x0, |x, r| match r.action() {
            RecordAction::Added { .. } => {
                remap_add(x, u64::from(r.disks_before()), u64::from(r.disks_after())).x
            }
            RecordAction::Removed(set) => remap_remove(x, u64::from(r.disks_before()), set).x,
        })
    };
    plan_from_x_prev(
        catalog
            .iter_x0()
            .map(|(blockref, x0)| (blockref, x_prev_of(x0))),
        record,
        j,
    )
}

/// Parallel `RF()`: the same plan as [`plan_last_op`], computed by up
/// to `threads` scoped worker threads.
///
/// The catalog's flattened block index space is split into one
/// contiguous span per thread; each worker seeks into the random
/// streams with [`Catalog::iter_x0_range`], folds `X_0 → X_{j-1}`
/// through a compiled prefix [`RemapPipeline`] in cache-sized batches
/// ([`RemapPipeline::fold_batch`], step-outer/block-inner), applies the
/// final record, and emits a partial plan. Partial move lists are
/// concatenated in span order — which *is* catalog order — so the
/// result is equal to the serial plan, moves and censuses included.
///
/// Spans shorter than [`MIN_SPAN_PER_THREAD`] blocks are not worth a
/// thread: the requested thread count is clamped so no span falls below
/// it, and the single-thread case runs the same compiled batch-fold
/// inline with no spawn/join at all — `threads == 1` is the *fast*
/// serial path, beating [`plan_last_op`]'s record-by-record reference
/// fold rather than delegating to it.
///
/// # Panics
/// If the log has no operations.
pub fn plan_last_op_parallel(catalog: &Catalog, log: &ScalingLog, threads: usize) -> MovePlan {
    plan_parallel_inner(catalog, log, threads, None)
}

/// [`plan_last_op_parallel`] recording telemetry: overall planning
/// latency and block count into `stats.plan_ns` / `stats.plan_blocks`,
/// and each worker's span duration into `stats.plan_chunk_ns` — the
/// chunk histogram's spread is the planner's load-imbalance signal.
///
/// # Panics
/// If the log has no operations.
pub fn plan_last_op_parallel_instrumented(
    catalog: &Catalog,
    log: &ScalingLog,
    threads: usize,
    stats: &EngineStats,
) -> MovePlan {
    plan_parallel_inner(catalog, log, threads, Some(stats))
}

/// Smallest span worth a planner thread. Below this the batch fold
/// finishes in tens of microseconds and spawn/join overhead plus the
/// partial-plan merge cost more than the parallelism buys; the clamp
/// in [`plan_parallel_inner`] also sends small catalogs down the
/// inline single-thread path.
pub const MIN_SPAN_PER_THREAD: u64 = 8_192;

/// Blocks batch-folded per [`RemapPipeline::fold_batch`] call on the
/// planning path: 4096 × 8 B = 32 KiB of `X` values — comfortably L1
/// resident alongside the step constants, big enough to amortize the
/// step-outer loop.
const PLAN_FOLD_CHUNK: usize = 4_096;

/// Iterator adapter that folds `X_0 → X_{j-1}` through a compiled
/// prefix pipeline in [`PLAN_FOLD_CHUNK`]-sized batches while yielding
/// `(BlockRef, X_{j-1})` pairs one at a time — the glue that lets the
/// streaming [`plan_from_x_prev`] consume the step-outer/block-inner
/// bulk fold without materializing a whole span.
struct BatchFolded<'a, I> {
    inner: I,
    prefix: &'a RemapPipeline,
    buf: Vec<(BlockRef, u64)>,
    xs: Vec<u64>,
    pos: usize,
}

impl<'a, I: Iterator<Item = (BlockRef, u64)>> BatchFolded<'a, I> {
    fn new(inner: I, prefix: &'a RemapPipeline) -> Self {
        BatchFolded {
            inner,
            prefix,
            buf: Vec::with_capacity(PLAN_FOLD_CHUNK),
            xs: Vec::with_capacity(PLAN_FOLD_CHUNK),
            pos: 0,
        }
    }
}

impl<I: Iterator<Item = (BlockRef, u64)>> Iterator for BatchFolded<'_, I> {
    type Item = (BlockRef, u64);

    fn next(&mut self) -> Option<(BlockRef, u64)> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.xs.clear();
            self.pos = 0;
            while self.buf.len() < PLAN_FOLD_CHUNK {
                match self.inner.next() {
                    Some((blockref, x0)) => {
                        self.buf.push((blockref, 0));
                        self.xs.push(x0);
                    }
                    None => break,
                }
            }
            if self.buf.is_empty() {
                return None;
            }
            self.prefix.fold_batch(&mut self.xs);
            for (slot, &x) in self.buf.iter_mut().zip(&self.xs) {
                slot.1 = x;
            }
        }
        let item = self.buf[self.pos];
        self.pos += 1;
        Some(item)
    }
}

fn plan_parallel_inner(
    catalog: &Catalog,
    log: &ScalingLog,
    threads: usize,
    stats: Option<&EngineStats>,
) -> MovePlan {
    let j = log.epoch();
    assert!(j > 0, "log has no scaling operation to plan");
    let plan_start = stats.map(|s| s.clock.now_ns());
    let total = catalog.total_blocks();
    let threads = threads
        .max(1)
        .min(total.div_ceil(MIN_SPAN_PER_THREAD).max(1) as usize);
    let prefix = RemapPipeline::compile_prefix(log, j - 1);
    let record = &log.records()[j - 1];
    let merged = if threads == 1 {
        // Inline fast path: same compiled batch fold, no spawn/join.
        let chunk_start = stats.map(|s| s.clock.now_ns());
        let merged = plan_from_x_prev(BatchFolded::new(catalog.iter_x0(), &prefix), record, j);
        if let (Some(s), Some(t0)) = (stats, chunk_start) {
            s.plan_chunk_ns.record(s.clock.now_ns().saturating_sub(t0));
        }
        merged
    } else {
        let chunk = total.div_ceil(threads as u64);
        let partials: Vec<MovePlan> = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let start = t * chunk;
                    // With few blocks, ceil-sized chunks can exhaust the
                    // catalog before the last thread: its span is empty.
                    let len = chunk.min(total.saturating_sub(start));
                    let prefix = &prefix;
                    scope.spawn(move |_| {
                        let chunk_start = stats.map(|s| s.clock.now_ns());
                        let partial = plan_from_x_prev(
                            BatchFolded::new(catalog.iter_x0_range(start, len), prefix),
                            record,
                            j,
                        );
                        if let (Some(s), Some(t0)) = (stats, chunk_start) {
                            s.plan_chunk_ns.record(s.clock.now_ns().saturating_sub(t0));
                        }
                        partial
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("planner worker panicked"))
                .collect()
        })
        .expect("planner scope joins cleanly");
        let mut merged = MovePlan {
            target_epoch: j,
            moves: Vec::with_capacity(partials.iter().map(|p| p.moves.len()).sum()),
            total_blocks: 0,
            optimal_fraction: record.optimal_move_fraction(),
        };
        for partial in partials {
            merged.moves.extend(partial.moves);
            merged.total_blocks += partial.total_blocks;
        }
        merged
    };
    if let (Some(s), Some(t0)) = (stats, plan_start) {
        s.plan_ns.record(s.clock.now_ns().saturating_sub(t0));
        s.plan_blocks.add(merged.total_blocks);
        // Each worker folded its span X_0 → X_{j-1}, then applied the
        // final record: j steps per block in total.
        s.pipeline_folds
            .add(merged.total_blocks.saturating_mul(j as u64));
    }
    merged
}

fn plan_from_x_prev<I>(blocks: I, record: &ScalingRecord, target_epoch: usize) -> MovePlan
where
    I: IntoIterator<Item = (BlockRef, u64)>,
{
    let n_prev = u64::from(record.disks_before());
    let n_new = u64::from(record.disks_after());
    let mut moves = Vec::new();
    let mut total = 0u64;
    for (blockref, x_prev) in blocks {
        total += 1;
        let from = DiskIndex((x_prev % n_prev) as u32);
        let out = match record.action() {
            RecordAction::Added { .. } => remap_add(x_prev, n_prev, n_new),
            RecordAction::Removed(set) => remap_remove(x_prev, n_prev, set),
        };
        if out.moved {
            moves.push(BlockMove {
                block: blockref,
                from,
                to: DiskIndex((out.x % n_new) as u32),
            });
        }
    }
    MovePlan {
        target_epoch,
        moves,
        total_blocks: total,
        optimal_fraction: record.optimal_move_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ScalingOp;
    use scaddar_prng::{Bits, RngKind};

    fn setup(blocks: u64) -> (Catalog, ScalingLog) {
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
        catalog.add_object(blocks);
        let log = ScalingLog::new(4).unwrap();
        (catalog, log)
    }

    #[test]
    fn addition_plan_moves_near_optimal_fraction() {
        let (catalog, mut log) = setup(100_000);
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert_eq!(plan.total_blocks, 100_000);
        assert_eq!(plan.target_epoch, 1);
        assert!((plan.optimal_fraction - 0.2).abs() < 1e-12);
        // Statistical: the binomial fraction should be within ~1% of z_j.
        assert!(
            (plan.moved_fraction() - 0.2).abs() < 0.01,
            "moved {}",
            plan.moved_fraction()
        );
        // Every move must target the added disk (index 4).
        assert!(plan.moves.iter().all(|m| m.to == DiskIndex(4)));
    }

    #[test]
    fn removal_plan_moves_exactly_the_victims_blocks() {
        let (catalog, mut log) = setup(50_000);
        // Locate blocks on disk 2 before the removal.
        let n0 = 4u64;
        let on_victim: u64 = catalog.iter_x0().filter(|(_, x0)| x0 % n0 == 2).count() as u64;
        log.push(&ScalingOp::remove_one(2)).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert_eq!(plan.moves.len() as u64, on_victim);
        assert!(plan.moves.iter().all(|m| m.from == DiskIndex(2)));
        // Targets are post-op indices 0..3, roughly uniform.
        let census = plan.target_census(3);
        let min = *census.iter().min().unwrap() as f64;
        let max = *census.iter().max().unwrap() as f64;
        assert!(max / min < 1.15, "skewed removal targets {census:?}");
    }

    #[test]
    fn parallel_plan_equals_serial_plan() {
        // Total is comfortably past MIN_SPAN_PER_THREAD so the span
        // split (not just the inline single-thread path) is exercised.
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
        catalog.add_object(15_000);
        catalog.add_object(1);
        catalog.add_object(9_000);
        let mut log = ScalingLog::new(4).unwrap();
        for op in [
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(1),
            ScalingOp::Add { count: 1 },
        ] {
            log.push(&op).unwrap();
            let serial = plan_last_op(&catalog, &log);
            for threads in [1, 2, 3, 7, 64] {
                let parallel = plan_last_op_parallel(&catalog, &log, threads);
                assert_eq!(parallel, serial, "threads={threads} epoch={}", log.epoch());
            }
        }
    }

    /// Regression: with `total < chunk * (threads - 1)` (e.g. 5 blocks
    /// over 4 ceil-sized chunks of 2) the last thread's span start lands
    /// past the catalog and its length must clamp to zero, not
    /// underflow. Found by the simulation harness shrinking catalogs
    /// down to a handful of blocks.
    #[test]
    fn parallel_plan_handles_tiny_catalogs() {
        for blocks in 1..=9u64 {
            let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
            catalog.add_object(blocks);
            let mut log = ScalingLog::new(4).unwrap();
            log.push(&ScalingOp::Add { count: 1 }).unwrap();
            let serial = plan_last_op(&catalog, &log);
            for threads in 2..=6 {
                assert_eq!(
                    plan_last_op_parallel(&catalog, &log, threads),
                    serial,
                    "blocks={blocks} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn instrumented_parallel_plan_matches_and_records() {
        use scaddar_obs::{Registry, VirtualClock};
        use std::sync::Arc;
        let (catalog, mut log) = setup(4_000);
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let registry = Registry::new();
        let stats = EngineStats::register(&registry, Arc::new(VirtualClock::new()));
        let instrumented = plan_last_op_parallel_instrumented(&catalog, &log, 4, &stats);
        assert_eq!(instrumented, plan_last_op_parallel(&catalog, &log, 4));
        assert_eq!(stats.plan_blocks.get(), 4_000);
        assert_eq!(stats.plan_ns.snapshot().count, 1);
        // 4 000 blocks is below MIN_SPAN_PER_THREAD: the clamp sends
        // the whole catalog down the inline path as one chunk.
        assert_eq!(stats.plan_chunk_ns.snapshot().count, 1);
        // j = 1: one fold per block.
        assert_eq!(stats.pipeline_folds.get(), 4_000);
    }

    #[test]
    fn instrumented_parallel_plan_splits_large_catalogs() {
        use scaddar_obs::{Registry, VirtualClock};
        use std::sync::Arc;
        let (catalog, mut log) = setup(40_000);
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let registry = Registry::new();
        let stats = EngineStats::register(&registry, Arc::new(VirtualClock::new()));
        let instrumented = plan_last_op_parallel_instrumented(&catalog, &log, 4, &stats);
        assert_eq!(instrumented, plan_last_op(&catalog, &log));
        // 40 000 / 8 192 rounds up to 5 ≥ 4: all four workers spin up,
        // each recording its span.
        assert_eq!(stats.plan_chunk_ns.snapshot().count, 4);
        assert_eq!(stats.plan_blocks.get(), 40_000);
    }

    #[test]
    fn parallel_plan_handles_empty_catalog() {
        let catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
        let mut log = ScalingLog::new(2).unwrap();
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let plan = plan_last_op_parallel(&catalog, &log, 8);
        assert_eq!(plan, plan_last_op(&catalog, &log));
    }

    #[test]
    fn overhead_ratio_is_near_one_for_scaddar() {
        let (catalog, mut log) = setup(200_000);
        log.push(&ScalingOp::Add { count: 4 }).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert!((plan.overhead_ratio() - 1.0).abs() < 0.05);
    }

    #[test]
    fn empty_catalog_yields_empty_plan() {
        let catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 7);
        let mut log = ScalingLog::new(2).unwrap();
        log.push(&ScalingOp::Add { count: 1 }).unwrap();
        let plan = plan_last_op(&catalog, &log);
        assert_eq!(plan.total_blocks, 0);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.moved_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no scaling operation")]
    fn planning_without_op_panics() {
        let (catalog, log) = setup(10);
        let _ = plan_last_op(&catalog, &log);
    }
}
