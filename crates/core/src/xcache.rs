//! Epoch-tagged cache of current random numbers `X_j` — the engine-side
//! state that makes `locate()` O(1) amortized and scaling O(B).
//!
//! SCADDAR's access function recomputes `X_0 → X_j` on every lookup —
//! O(j) per block, O(B·j) per planning pass. But `X_j` evolves by
//! exactly one `REMAP` per scaling operation, so a server that stores
//! each block's current `X_j` next to the catalog only ever pays:
//!
//! * **lookup** — one `mod`, a multiply-high by the reciprocal of `N_j`
//!   ([`RemapPipeline::disk_of`]; the stored `X_j` is already current);
//! * **scaling** — one strength-reduced `REMAP_j` per block
//!   ([`XCache::advance_one`]): a single pass that rewrites each cached
//!   `X_{j-1}` to `X_j` in place and, from the same `divmod`, emits the
//!   block's move when it changes disks. That pass *is* `RF()`: it
//!   returns the same [`MovePlan`] as the stateless O(B·j)
//!   [`crate::plan_last_op`].
//!
//! The invalidation rule is the epoch tag: a cache at epoch `e` is valid
//! against a pipeline at epoch `e`, and each scaling operation advances
//! it by exactly one step — never rebuilt from scratch unless the log
//! itself restarts (full redistribution).
//!
//! The cache is an engine-layer acceleration, not placement state: it is
//! always reconstructible from catalog + log ([`XCache::rebuild`]), and
//! equivalence with the stateless `X_0`-fold oracle is property-tested.

use crate::log::ScalingRecord;
use crate::object::{BlockRef, Catalog, CmObject, ObjectId};
use crate::pipeline::RemapPipeline;
use crate::plan::MovePlan;
use std::collections::HashMap;

/// Per-block current random numbers `X_e`, tagged with their epoch `e`.
#[derive(Debug, Clone, Default)]
pub struct XCache {
    epoch: usize,
    xs: HashMap<ObjectId, Vec<u64>>,
}

impl XCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        XCache::default()
    }

    /// Rebuilds the cache from scratch: every block's `X_0` folded to the
    /// pipeline's epoch. O(B·j) — the cost the incremental path avoids;
    /// used at construction, restore, and log restarts.
    pub fn rebuild(catalog: &Catalog, pipeline: &RemapPipeline) -> Self {
        let mut cache = XCache {
            epoch: pipeline.epoch(),
            xs: HashMap::with_capacity(catalog.objects().len()),
        };
        for obj in catalog.objects() {
            cache
                .xs
                .insert(obj.id, Self::fold_object(catalog, obj, pipeline));
        }
        cache
    }

    fn fold_object(catalog: &Catalog, obj: &CmObject, pipeline: &RemapPipeline) -> Vec<u64> {
        catalog
            .randoms(obj)
            .cursor()
            .take(obj.blocks as usize)
            .map(|x0| pipeline.fold(x0))
            .collect()
    }

    /// The epoch the cached values are valid at.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of cached objects.
    pub fn objects(&self) -> usize {
        self.xs.len()
    }

    /// The cached `X_e` values of one object, in block order.
    pub fn xs(&self, id: ObjectId) -> Option<&[u64]> {
        self.xs.get(&id).map(Vec::as_slice)
    }

    /// Admits a newly registered object: its `X_0` stream folded to the
    /// cache's epoch.
    ///
    /// # Panics
    /// If the pipeline's epoch differs from the cache's.
    pub fn insert_object(&mut self, catalog: &Catalog, obj: &CmObject, pipeline: &RemapPipeline) {
        assert_eq!(self.epoch, pipeline.epoch(), "cache and pipeline diverged");
        self.xs
            .insert(obj.id, Self::fold_object(catalog, obj, pipeline));
    }

    /// Evicts a removed object.
    pub fn remove_object(&mut self, id: ObjectId) {
        self.xs.remove(&id);
    }

    /// Applies scaling operation `record` — the pipeline's last step,
    /// `REMAP_j` — to every cached `X_{j-1}` in catalog order, moving the
    /// cache to epoch `j`, and returns the operation's move plan: one
    /// [`RemapPipeline::apply_last_step`] per object, so each block is
    /// remapped exactly once.
    ///
    /// # Panics
    /// Unless the pipeline is exactly one step ahead of the cache, or if
    /// `record` does not end at the pipeline's disk count.
    pub fn advance_one(
        &mut self,
        catalog: &Catalog,
        pipeline: &RemapPipeline,
        record: &ScalingRecord,
    ) -> MovePlan {
        assert_eq!(
            self.epoch + 1,
            pipeline.epoch(),
            "pipeline is not exactly one step ahead of the cache"
        );
        assert_eq!(
            record.disks_after(),
            pipeline.current_disks(),
            "record is not the pipeline's last step"
        );
        let mut moves = Vec::new();
        let mut total_blocks = 0u64;
        for obj in catalog.objects() {
            if let Some(xs) = self.xs.get_mut(&obj.id) {
                total_blocks += xs.len() as u64;
                pipeline.apply_last_step(obj.id, xs, &mut moves);
            }
        }
        self.epoch = pipeline.epoch();
        MovePlan {
            target_epoch: self.epoch,
            moves,
            total_blocks,
            optimal_fraction: record.optimal_move_fraction(),
        }
    }

    /// `(BlockRef, X_e)` for every catalog block, **in catalog order**
    /// (the iteration order of [`Catalog::iter_x0`], which planners rely
    /// on for deterministic plans). Objects present in the catalog but
    /// not the cache are skipped — callers keep the two in lockstep.
    pub fn blocks_with_x<'a>(
        &'a self,
        catalog: &'a Catalog,
    ) -> impl Iterator<Item = (BlockRef, u64)> + 'a {
        catalog
            .objects()
            .iter()
            .filter_map(|obj| Some((obj, self.xs.get(&obj.id)?)))
            .flat_map(|(obj, xs)| {
                xs.iter().enumerate().map(move |(block, &x)| {
                    (
                        BlockRef {
                            object: obj.id,
                            block: block as u64,
                        },
                        x,
                    )
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::x_at_current_epoch;
    use crate::log::ScalingLog;
    use crate::ops::ScalingOp;
    use crate::plan::plan_last_op;
    use scaddar_prng::{Bits, RngKind};

    fn setup() -> (Catalog, ScalingLog) {
        let mut catalog = Catalog::new(RngKind::SplitMix64, Bits::B32, 3);
        catalog.add_object(500);
        catalog.add_object(200);
        (catalog, ScalingLog::new(4).unwrap())
    }

    #[test]
    fn advance_one_matches_rebuild_oracle_and_plan() {
        let (catalog, mut log) = setup();
        let mut pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        for op in [
            ScalingOp::Add { count: 2 },
            ScalingOp::remove_one(0),
            ScalingOp::Add { count: 1 },
            ScalingOp::Remove { disks: vec![2, 5] },
        ] {
            let record = log.push(&op).unwrap().clone();
            pipeline.extend_from(&log);
            let plan = cache.advance_one(&catalog, &pipeline, &record);
            assert_eq!(plan, plan_last_op(&catalog, &log), "epoch {}", log.epoch());
            assert_eq!(cache.epoch(), log.epoch());
            let rebuilt = XCache::rebuild(&catalog, &pipeline);
            for obj in catalog.objects() {
                assert_eq!(cache.xs(obj.id), rebuilt.xs(obj.id));
                let seq = catalog.randoms(obj);
                for block in (0..obj.blocks).step_by(37) {
                    assert_eq!(
                        cache.xs(obj.id).unwrap()[block as usize],
                        x_at_current_epoch(seq.value_at(block), &log),
                        "{} block {block} epoch {}",
                        obj.id,
                        log.epoch()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not exactly one step ahead")]
    fn same_epoch_pipeline_is_rejected() {
        let (catalog, mut log) = setup();
        let record = log.push(&ScalingOp::add_one()).unwrap().clone();
        let pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        cache.advance_one(&catalog, &pipeline, &record);
    }

    #[test]
    fn blocks_with_x_follows_catalog_order() {
        let (mut catalog, log) = setup();
        let pipeline = RemapPipeline::compile(&log);
        let mut cache = XCache::rebuild(&catalog, &pipeline);
        let id = catalog.add_object(50);
        cache.insert_object(&catalog, catalog.object(id).unwrap(), &pipeline);
        let cached: Vec<_> = cache.blocks_with_x(&catalog).collect();
        let oracle: Vec<_> = catalog.iter_x0().collect();
        assert_eq!(cached, oracle, "epoch 0 cache is the X_0 stream, in order");
        cache.remove_object(id);
        assert_eq!(cache.blocks_with_x(&catalog).count(), 700);
        assert_eq!(cache.xs(id), None);
    }

    #[test]
    #[should_panic(expected = "not exactly one step ahead")]
    fn stale_pipeline_is_rejected() {
        let (catalog, mut log) = setup();
        let empty = RemapPipeline::compile(&log);
        let record = log.push(&ScalingOp::add_one()).unwrap().clone();
        let mut cache = XCache::rebuild(&catalog, &RemapPipeline::compile(&log));
        cache.advance_one(&catalog, &empty, &record);
    }
}
