//! Property-based equivalence tests for the bulk location engine: the
//! compiled [`RemapPipeline`], the epoch-tagged X-cache behind
//! [`Scaddar::locate`], the fused batch lookups, and the parallel
//! planner must all agree with the stateless reference fold, for
//! arbitrary valid scaling histories.

use proptest::prelude::*;
use scaddar::cmsim::ServerError;
use scaddar::core::address::x_at_current_epoch;
use scaddar::core::xcache::XCache;
use scaddar::prelude::*;

/// Random valid schedules (same shape as `property_invariants`): a mix
/// of single/group removals and additions, disk count kept in 2..=64.
fn schedules(max_ops: usize) -> impl Strategy<Value = (u32, Vec<ScalingOp>)> {
    (
        2u32..12,
        proptest::collection::vec((0u32..4, any::<u64>()), 1..=max_ops),
    )
        .prop_map(|(initial, raw)| {
            let mut disks = initial;
            let mut ops = Vec::new();
            for (kind, pick) in raw {
                if kind == 0 && disks > 2 {
                    let victim = (pick % u64::from(disks)) as u32;
                    ops.push(ScalingOp::remove_one(victim));
                    disks -= 1;
                } else if kind == 1 && disks > 4 {
                    let a = (pick % u64::from(disks)) as u32;
                    let b = (a + 1 + (pick >> 32) as u32 % (disks - 1)) % disks;
                    if a != b {
                        ops.push(ScalingOp::Remove { disks: vec![a, b] });
                        disks -= 2;
                    }
                } else {
                    let count = 1 + (pick % 3) as u32;
                    if disks + count <= 64 {
                        ops.push(ScalingOp::Add { count });
                        disks += count;
                    }
                }
            }
            (initial, ops)
        })
}

/// Appends the ops `raw` describes to `ops`, keeping at least one disk
/// (and at most 64) at every epoch.
fn push_ops(disks: &mut u32, raw: &[(u32, u64)], ops: &mut Vec<ScalingOp>) {
    for &(kind, pick) in raw {
        if kind == 0 && *disks > 1 {
            ops.push(ScalingOp::remove_one((pick % u64::from(*disks)) as u32));
            *disks -= 1;
        } else if kind == 1 && *disks > 3 {
            let a = (pick % u64::from(*disks)) as u32;
            let b = (a + 1 + (pick >> 32) as u32 % (*disks - 1)) % *disks;
            ops.push(ScalingOp::Remove { disks: vec![a, b] });
            *disks -= 2;
        } else {
            let count = 1 + (pick % 3) as u32;
            if *disks + count <= 64 {
                ops.push(ScalingOp::Add { count });
                *disks += count;
            }
        }
    }
}

/// Random valid schedules that pass through `N = 1`: random ops, a
/// removal of every disk but one, then more random ops.
fn schedules_through_one(max_ops: usize) -> impl Strategy<Value = (u32, Vec<ScalingOp>)> {
    let raw = || proptest::collection::vec((0u32..4, any::<u64>()), 0..=max_ops);
    (1u32..10, raw(), any::<u64>(), raw()).prop_map(|(initial, before, survivor, after)| {
        let mut disks = initial;
        let mut ops = Vec::new();
        push_ops(&mut disks, &before, &mut ops);
        if disks > 1 {
            let keep = (survivor % u64::from(disks)) as u32;
            ops.push(ScalingOp::Remove {
                disks: (0..disks).filter(|&d| d != keep).collect(),
            });
            disks = 1;
        }
        push_ops(&mut disks, &after, &mut ops);
        (initial, ops)
    })
}

/// The stateless oracle's disk for `block` of `id`: `X_j mod N_j`
/// folded from `X_0` through the whole log.
fn oracle_disk(engine: &Scaddar, id: ObjectId, block: u64) -> DiskIndex {
    let obj = engine.catalog().object(id).expect("catalog object");
    let x = x_at_current_epoch(engine.catalog().x0(obj, block), engine.log());
    DiskIndex((x % u64::from(engine.disks())) as u32)
}

/// Checks every batch lookup of `server` against per-block lookups and
/// (through `expect`) the oracle: the engine's `locate_batch` and
/// `locate_batch_map`, and the server's physical `locate_batch`, which
/// must answer what `locate_current` does, mapped to physical ids.
fn check_batch_paths(
    server: &CmServer,
    id: ObjectId,
    blocks: &[u64],
    expect: impl Fn(u64) -> DiskIndex,
) -> Result<(), TestCaseError> {
    let engine = server.engine();
    let batch = server.locate_batch(id, blocks).unwrap();
    let engine_batch = engine.locate_batch_map(id, blocks, |b, d| (b, d)).unwrap();
    prop_assert_eq!(batch.len(), blocks.len());
    for (i, &block) in blocks.iter().enumerate() {
        let logical = server.locate_current(id, block).unwrap();
        prop_assert_eq!(logical, expect(block), "{} block {}", id, block);
        prop_assert_eq!(batch[i], server.disks().physical(logical));
        prop_assert_eq!(engine_batch[i].0, block);
        prop_assert_eq!(engine_batch[i].1, engine.locate(id, block).unwrap());
    }
    prop_assert_eq!(
        engine.locate_batch(id, blocks).unwrap(),
        engine_batch.iter().map(|&(_, d)| d).collect::<Vec<_>>()
    );
    // One bad block fails the whole batch with the per-block error.
    let total = engine.catalog().object(id).unwrap().blocks;
    let mut bad = blocks.to_vec();
    bad.insert(bad.len() / 2, total);
    prop_assert_eq!(
        server.locate_batch(id, &bad),
        Err(ServerError::Engine(engine.locate(id, total).unwrap_err()))
    );
    Ok(())
}

fn log_of(initial: u32, ops: &[ScalingOp]) -> ScalingLog {
    let mut log = ScalingLog::new(initial).unwrap();
    for op in ops {
        log.push(op).unwrap();
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled pipeline's fold is the reference fold, for arbitrary
    /// op sequences and arbitrary `X_0` — including incremental
    /// compilation via `extend_from` after every operation.
    #[test]
    fn pipeline_fold_equals_reference_fold(
        (initial, ops) in schedules(10),
        x0s in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let mut log = ScalingLog::new(initial).unwrap();
        let mut pipeline = RemapPipeline::compile(&log);
        for op in &ops {
            log.push(op).unwrap();
            pipeline.extend_from(&log);
            prop_assert_eq!(pipeline.epoch(), log.epoch());
            prop_assert_eq!(pipeline.current_disks(), log.current_disks());
            for &x0 in &x0s {
                prop_assert_eq!(
                    pipeline.fold(x0),
                    x_at_current_epoch(x0, &log),
                    "x0 {} at epoch {}", x0, log.epoch()
                );
                prop_assert_eq!(pipeline.locate(x0), locate(x0, &log));
            }
        }
        // One-shot compilation of the full log agrees with incremental.
        prop_assert_eq!(RemapPipeline::compile(&log), pipeline);
    }

    /// The parallel planner produces the *identical* `MovePlan` as the
    /// serial planner — moves in the same order, same censuses — for any
    /// history, any thread count.
    #[test]
    fn parallel_plan_equals_serial_plan(
        (initial, ops) in schedules(6),
        threads in 1usize..9,
    ) {
        prop_assume!(!ops.is_empty());
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 11);
        catalog.add_object(1_500);
        catalog.add_object(700);
        let log = log_of(initial, &ops);
        let serial = plan_last_op(&catalog, &log);
        let parallel = plan_last_op_parallel(&catalog, &log, threads);
        prop_assert_eq!(parallel, serial);
    }

    /// The engine's cached-X lookups agree with the stateless O(j)
    /// oracle at every epoch of a random history, through object churn.
    #[test]
    fn cached_locate_equals_oracle((initial, ops) in schedules(8)) {
        let mut engine = Scaddar::new(
            ScaddarConfig::new(initial).with_catalog_seed(13),
        ).unwrap();
        let first = engine.add_object(800);
        let second = engine.add_object(300);
        let mut removed_one = false;
        for (i, op) in ops.iter().enumerate() {
            engine.scale(op.clone()).unwrap();
            if i == 1 {
                // Mid-history churn: the cache must track both kinds.
                engine.remove_object(second).unwrap();
                removed_one = true;
                engine.add_object(200);
            }
            for &(id, blocks) in &[(first, 800u64), (second, 300)] {
                if id == second && removed_one {
                    prop_assert!(engine.locate(id, 0).is_err());
                    continue;
                }
                let obj = *engine.catalog().object(id).unwrap();
                let bulk = engine.locate_all(id).unwrap();
                for block in (0..blocks).step_by(53) {
                    let x0 = engine.catalog().x0(&obj, block);
                    let oracle = locate(x0, engine.log());
                    prop_assert_eq!(
                        engine.locate(id, block).unwrap(), oracle,
                        "{} block {} after op {}", id, block, i
                    );
                    prop_assert_eq!(bulk[block as usize], oracle);
                }
            }
        }
    }

    /// The X-cache advanced incrementally (one REMAP per epoch bump)
    /// matches a from-scratch rebuild at every epoch, and the plan the
    /// same pass returns is the stateless planner's.
    #[test]
    fn incremental_cache_equals_rebuild((initial, ops) in schedules(8)) {
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 5);
        let id = catalog.add_object(600);
        let mut log = ScalingLog::new(initial).unwrap();
        let mut pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        for op in &ops {
            let record = log.push(op).unwrap().clone();
            pipeline.extend_from(&log);
            let plan = cache.advance_one(&catalog, &pipeline, &record);
            prop_assert_eq!(plan, plan_last_op(&catalog, &log));
            let rebuilt = XCache::rebuild(&catalog, &pipeline);
            prop_assert_eq!(cache.epoch(), rebuilt.epoch());
            prop_assert_eq!(cache.xs(id), rebuilt.xs(id));
        }
    }

    /// The batch lookups (engine `locate_batch`/`locate_batch_map`, the
    /// server's physical `locate_batch`) equal per-block `locate` and
    /// the stateless `x_at_current_epoch` oracle after every op of a
    /// schedule through `N = 1`, and during a compaction's dual serving
    /// each block answers from its serving generation, where its data
    /// is.
    #[test]
    fn batch_locate_equals_block_locate_and_oracle(
        (initial, ops) in schedules_through_one(5),
        picks in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let mut server = CmServer::new(
            ServerConfig::new(initial).with_catalog_seed(19),
        ).unwrap();
        let id = server.add_object(700).unwrap();
        server.add_object(3).unwrap();
        // Repeats, both ends, and unordered picks.
        let blocks: Vec<u64> = picks
            .iter()
            .map(|p| p % 700)
            .chain([0, 699, 699, 0])
            .collect();
        check_batch_paths(&server, id, &blocks, |b| oracle_disk(server.engine(), id, b))?;
        for op in &ops {
            server.scale_offline(op.clone()).unwrap();
            check_batch_paths(&server, id, &blocks, |b| oracle_disk(server.engine(), id, b))?;
        }
        let next = server.engine().open_next_generation();
        server.begin_compaction().unwrap();
        while server.compaction_active() {
            let pending: std::collections::HashSet<BlockRef> =
                server.pending_moves().into_iter().collect();
            let serving = |b: u64| {
                if pending.contains(&BlockRef { object: id, block: b }) {
                    oracle_disk(server.engine(), id, b)
                } else {
                    oracle_disk(&next, id, b)
                }
            };
            check_batch_paths(&server, id, &blocks, serving)?;
            let all: Vec<u64> = (0..700).collect();
            for (b, disk) in all.iter().zip(server.locate_batch(id, &all).unwrap()) {
                let stored = server.store().locate(BlockRef { object: id, block: *b });
                prop_assert_eq!(Some(disk), stored, "block {} mid-compaction", b);
            }
            server.tick();
        }
        check_batch_paths(&server, id, &blocks, |b| oracle_disk(server.engine(), id, b))?;
    }

    /// The engine's `scale` — the path the server runs — returns the
    /// stateless planner's plan, and leaves its X-cache equal to a
    /// rebuild, after every operation of a random history.
    #[test]
    fn engine_scale_plan_equals_stateless_plan((initial, ops) in schedules(8)) {
        let mut engine = Scaddar::new(
            ScaddarConfig::new(initial).with_catalog_seed(17),
        ).unwrap();
        engine.add_object(900);
        engine.add_object(1);
        engine.add_object(400);
        for op in &ops {
            let plan = engine.scale(op.clone()).unwrap();
            prop_assert_eq!(plan, plan_last_op(engine.catalog(), engine.log()));
            prop_assert_eq!(engine.verify_derived_state(), Ok(()));
        }
    }
}

/// `schedules()` keeps at least two disks, so walk `1 → 3 → 1` by hand:
/// the `N = 1` branch of the strength-reduced divisor on both the
/// `n_prev` (first op) and `n_new` (second op) side of a step.
#[test]
fn engine_scale_through_a_single_disk() {
    let mut engine = Scaddar::new(ScaddarConfig::new(1).with_catalog_seed(3)).unwrap();
    let id = engine.add_object(5_000);
    for op in [
        ScalingOp::Add { count: 2 },
        ScalingOp::Remove { disks: vec![0, 2] },
        ScalingOp::Add { count: 1 },
    ] {
        let plan = engine.scale(op).unwrap();
        assert_eq!(plan, plan_last_op(engine.catalog(), engine.log()));
        engine.verify_derived_state().unwrap();
        let obj = *engine.catalog().object(id).unwrap();
        for block in (0..obj.blocks).step_by(97) {
            let x0 = engine.catalog().x0(&obj, block);
            assert_eq!(engine.locate(id, block).unwrap(), locate(x0, engine.log()));
        }
    }
    assert_eq!(engine.disks(), 2);
}
