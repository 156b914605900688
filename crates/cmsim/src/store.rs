//! The block store: where each block's data *physically* is right now.
//!
//! SCADDAR's access function says where a block *should* be; during an
//! online redistribution the data may still be in transit. The store
//! tracks actual residency so the simulator can model serving from stale
//! locations, and it validates every applied move plan against the
//! engine's arithmetic (a continuous end-to-end check that `RF()` and
//! `AF()` agree).
//!
//! Residency lives in a [`BlockTable`]: one dense vector per object,
//! indexed by block number, so a lookup is one object probe plus an
//! index — a 4 B slot per block instead of a per-block hash entry.

use scaddar_baselines::PhysicalDiskId;
use scaddar_core::{BlockMove, BlockRef, ObjectId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for `u64` id newtypes (`ObjectId`, `PhysicalDiskId`): one
/// multiply by an odd constant, with the well-mixed high bits rotated
/// down to where the table picks its bucket. Far cheaper than SipHash,
/// and safe here because every key is minted by the program (catalog
/// object ids, physical disk serials), never chosen by a client.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A hash map keyed by a `u64` id newtype.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A dense per-object table of one value per block, indexed by block
/// number. `T::default()` is the empty slot: a block whose slot is empty
/// is absent. Trailing empty slots are trimmed and an object with no
/// live slot is dropped, so memory follows the live blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockTable<T> {
    objects: IdMap<ObjectId, Vec<T>>,
    live: usize,
}

impl<T: Copy + Default + PartialEq> BlockTable<T> {
    /// Number of non-empty slots. O(1).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The slot of `block` (empty when absent).
    pub(crate) fn get(&self, block: BlockRef) -> T {
        let slots = self.object(block.object);
        usize::try_from(block.block)
            .ok()
            .and_then(|b| slots.get(b))
            .copied()
            .unwrap_or_default()
    }

    /// All slots of `object` in block order (empty slice when absent).
    pub(crate) fn object(&self, object: ObjectId) -> &[T] {
        self.objects.get(&object).map_or(&[], Vec::as_slice)
    }

    /// Sets the slot of `block`, returning its previous value.
    pub(crate) fn set(&mut self, block: BlockRef, value: T) -> T {
        let empty = T::default();
        let index = usize::try_from(block.block).expect("block number fits in memory");
        if value == empty {
            let Some(slots) = self.objects.get_mut(&block.object) else {
                return empty;
            };
            let Some(slot) = slots.get_mut(index) else {
                return empty;
            };
            let prev = std::mem::replace(slot, empty);
            if prev != empty {
                self.live -= 1;
                while slots.last() == Some(&empty) {
                    slots.pop();
                }
                if slots.is_empty() {
                    self.objects.remove(&block.object);
                }
            }
            return prev;
        }
        let slots = self.objects.entry(block.object).or_default();
        if slots.len() <= index {
            slots.resize(index + 1, empty);
        }
        let prev = std::mem::replace(&mut slots[index], value);
        if prev == empty {
            self.live += 1;
        }
        prev
    }

    /// Sizes `object`'s slots for `blocks` blocks up front, so setting
    /// them in order never reallocates.
    pub(crate) fn reserve(&mut self, object: ObjectId, blocks: usize) {
        if blocks > 0 {
            let slots = self.objects.entry(object).or_default();
            slots.reserve_exact(blocks.saturating_sub(slots.len()));
        }
    }

    /// Removes every slot of `object`, returning them in block order.
    pub(crate) fn take_object(&mut self, object: ObjectId) -> Vec<T> {
        let slots = self.objects.remove(&object).unwrap_or_default();
        self.live -= slots.iter().filter(|&&v| v != T::default()).count();
        slots
    }

    /// Every non-empty slot, unordered.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockRef, T)> + '_ {
        self.objects.iter().flat_map(|(&object, slots)| {
            slots.iter().enumerate().filter_map(move |(b, &v)| {
                (v != T::default()).then_some((
                    BlockRef {
                        object,
                        block: b as u64,
                    },
                    v,
                ))
            })
        })
    }
}

/// Residency of all blocks: a dense per-object table plus a per-disk
/// census. An object costs 4 B per block up to its highest stored
/// block number, so block numbers are expected to be dense, as catalog
/// objects' `0..blocks` are.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    /// Per block, [`slot_of`] its physical disk: id + 1, 0 when absent.
    residency: BlockTable<u32>,
    per_disk: IdMap<PhysicalDiskId, u64>,
}

/// The residency slot of `disk`: its id + 1, so 0 stays the empty slot.
///
/// # Panics
/// If the id does not fit a 4-byte slot (more than `u32::MAX - 1`
/// physical disks minted over the array's lifetime).
fn slot_of(disk: PhysicalDiskId) -> u32 {
    disk.0
        .checked_add(1)
        .and_then(|slot| u32::try_from(slot).ok())
        .expect("physical disk id overflows a 4-byte residency slot")
}

/// The disk a residency slot names (`None` for the empty slot).
fn disk_of_slot(slot: u32) -> Option<PhysicalDiskId> {
    slot.checked_sub(1).map(|id| PhysicalDiskId(u64::from(id)))
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.residency.len()
    }

    /// True when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.residency.len() == 0
    }

    /// Ingests a block onto a disk (initial load or object addition).
    ///
    /// # Panics
    /// If the block is already stored (double ingest is a logic error).
    pub fn ingest(&mut self, block: BlockRef, disk: PhysicalDiskId) {
        let prev = self.residency.set(block, slot_of(disk));
        assert!(prev == 0, "block {block:?} ingested twice");
        *self.per_disk.entry(disk).or_insert(0) += 1;
    }

    /// Ingests blocks `0..disks.len()` of `object`, block `b` onto
    /// `disks[b]`.
    ///
    /// # Panics
    /// If any of those blocks is already stored.
    pub fn ingest_object(&mut self, object: ObjectId, disks: &[PhysicalDiskId]) {
        self.residency.reserve(object, disks.len());
        for (b, &disk) in disks.iter().enumerate() {
            self.ingest(
                BlockRef {
                    object,
                    block: b as u64,
                },
                disk,
            );
        }
    }

    /// Drops a block (object deletion).
    pub fn evict(&mut self, block: BlockRef) -> Option<PhysicalDiskId> {
        let disk = disk_of_slot(self.residency.set(block, 0))?;
        self.uncount(disk);
        Some(disk)
    }

    /// Drops every block of `object`. Returns how many were stored.
    pub fn evict_object(&mut self, object: ObjectId) -> u64 {
        let mut evicted = 0;
        let slots = self.residency.take_object(object);
        for disk in slots.into_iter().filter_map(disk_of_slot) {
            self.uncount(disk);
            evicted += 1;
        }
        evicted
    }

    /// Where a block's data currently lives.
    pub fn locate(&self, block: BlockRef) -> Option<PhysicalDiskId> {
        disk_of_slot(self.residency.get(block))
    }

    /// Moves one block between disks.
    ///
    /// # Panics
    /// If the block is unknown or not on `from` — both indicate the move
    /// plan and the store have diverged, which must never happen.
    pub fn relocate(&mut self, block: BlockRef, from: PhysicalDiskId, to: PhysicalDiskId) {
        let stored = self
            .locate(block)
            .unwrap_or_else(|| panic!("relocating unknown block {block:?}"));
        assert_eq!(stored, from, "move plan disagrees with store for {block:?}");
        self.relocate_reconstructed(block, to);
    }

    /// Moves a block to `to` from wherever the store believes it is,
    /// without checking the source: one residency probe. The server
    /// applies executed moves through this, since a *reconstruction*
    /// (rebuilding a failed disk's block from its mirror) has the dead
    /// disk as its stored location while the data actually flows from
    /// the replica. Returns the prior location.
    ///
    /// # Panics
    /// If the block is unknown.
    pub fn relocate_reconstructed(
        &mut self,
        block: BlockRef,
        to: PhysicalDiskId,
    ) -> PhysicalDiskId {
        let from = self
            .locate(block)
            .unwrap_or_else(|| panic!("reconstructing unknown block {block:?}"));
        self.residency.set(block, slot_of(to));
        self.uncount(from);
        *self.per_disk.entry(to).or_insert(0) += 1;
        from
    }

    /// Takes one block off `disk`'s census.
    fn uncount(&mut self, disk: PhysicalDiskId) {
        let count = self.per_disk.get_mut(&disk).expect("census in sync");
        *count -= 1;
        if *count == 0 {
            self.per_disk.remove(&disk);
        }
    }

    /// Number of blocks currently on `disk`.
    pub fn blocks_on(&self, disk: PhysicalDiskId) -> u64 {
        self.per_disk.get(&disk).copied().unwrap_or(0)
    }

    /// The blocks currently on `disk` (unordered). O(total blocks) — used
    /// by removal planning and failure simulation, not per-round serving.
    pub fn scan_disk(&self, disk: PhysicalDiskId) -> Vec<BlockRef> {
        self.residency
            .iter()
            .filter_map(|(b, slot)| (disk_of_slot(slot) == Some(disk)).then_some(b))
            .collect()
    }

    /// Load census over an explicit disk ordering (absent disks count 0).
    pub fn census(&self, disks: &[PhysicalDiskId]) -> Vec<u64> {
        disks.iter().map(|&d| self.blocks_on(d)).collect()
    }

    /// Applies a whole move plan at once (*offline* redistribution),
    /// translating logical endpoints through the given pre/post logical
    /// maps. Returns the number of blocks relocated.
    pub fn apply_moves<F, G>(&mut self, moves: &[BlockMove], pre: F, post: G) -> u64
    where
        F: Fn(u32) -> PhysicalDiskId,
        G: Fn(u32) -> PhysicalDiskId,
    {
        for mv in moves {
            self.relocate(mv.block, pre(mv.from.0), post(mv.to.0));
        }
        moves.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_prng::{SeededRng, SplitMix64};

    fn blk(o: u64, b: u64) -> BlockRef {
        BlockRef {
            object: ObjectId(o),
            block: b,
        }
    }

    #[test]
    fn ingest_locate_evict_roundtrip() {
        let mut s = BlockStore::new();
        s.ingest(blk(0, 0), PhysicalDiskId(2));
        s.ingest(blk(0, 1), PhysicalDiskId(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.locate(blk(0, 0)), Some(PhysicalDiskId(2)));
        assert_eq!(s.blocks_on(PhysicalDiskId(2)), 2);
        assert_eq!(s.evict(blk(0, 0)), Some(PhysicalDiskId(2)));
        assert_eq!(s.blocks_on(PhysicalDiskId(2)), 1);
        assert_eq!(s.evict(blk(9, 9)), None);
    }

    #[test]
    fn relocate_updates_census() {
        let mut s = BlockStore::new();
        s.ingest(blk(1, 0), PhysicalDiskId(0));
        s.relocate(blk(1, 0), PhysicalDiskId(0), PhysicalDiskId(3));
        assert_eq!(s.blocks_on(PhysicalDiskId(0)), 0);
        assert_eq!(s.blocks_on(PhysicalDiskId(3)), 1);
        assert_eq!(s.locate(blk(1, 0)), Some(PhysicalDiskId(3)));
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn relocate_from_wrong_disk_panics() {
        let mut s = BlockStore::new();
        s.ingest(blk(1, 0), PhysicalDiskId(0));
        s.relocate(blk(1, 0), PhysicalDiskId(7), PhysicalDiskId(3));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_ingest_panics() {
        let mut s = BlockStore::new();
        s.ingest(blk(1, 0), PhysicalDiskId(0));
        s.ingest(blk(1, 0), PhysicalDiskId(1));
    }

    #[test]
    fn scan_disk_finds_all_and_only() {
        let mut s = BlockStore::new();
        for b in 0..10 {
            s.ingest(blk(0, b), PhysicalDiskId(b % 2));
        }
        let mut on0 = s.scan_disk(PhysicalDiskId(0));
        on0.sort();
        assert_eq!(
            on0,
            (0..10).step_by(2).map(|b| blk(0, b)).collect::<Vec<_>>()
        );
        assert_eq!(
            s.census(&[PhysicalDiskId(0), PhysicalDiskId(1)]),
            vec![5, 5]
        );
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn relocate_unknown_block_panics() {
        let mut s = BlockStore::new();
        s.ingest(blk(1, 0), PhysicalDiskId(0));
        s.relocate(blk(1, 1), PhysicalDiskId(0), PhysicalDiskId(3));
    }

    #[test]
    fn residency_slot_holds_the_largest_4_byte_id() {
        let mut s = BlockStore::new();
        let top = PhysicalDiskId(u64::from(u32::MAX) - 1);
        s.ingest(blk(0, 0), top);
        s.ingest(blk(0, 1), PhysicalDiskId(0));
        assert_eq!(s.locate(blk(0, 0)), Some(top));
        assert_eq!(s.locate(blk(0, 1)), Some(PhysicalDiskId(0)));
        assert_eq!(s.scan_disk(top), vec![blk(0, 0)]);
        assert!(s.scan_disk(PhysicalDiskId(u64::MAX)).is_empty());
        assert_eq!(s.evict(blk(0, 0)), Some(top));
    }

    #[test]
    #[should_panic(expected = "overflows a 4-byte residency slot")]
    fn residency_slot_overflow_panics() {
        BlockStore::new().ingest(blk(0, 0), PhysicalDiskId(u64::from(u32::MAX)));
    }

    #[test]
    fn table_memory_follows_live_blocks() {
        let mut s = BlockStore::new();
        s.ingest(blk(3, 100), PhysicalDiskId(0));
        s.ingest(blk(3, 7), PhysicalDiskId(1));
        assert_eq!(s.residency.object(ObjectId(3)).len(), 101);
        assert_eq!(s.evict(blk(3, 100)), Some(PhysicalDiskId(0)));
        assert_eq!(s.residency.object(ObjectId(3)).len(), 8, "tail trimmed");
        assert_eq!(s.evict(blk(3, 7)), Some(PhysicalDiskId(1)));
        assert!(s.residency.objects.is_empty(), "empty object dropped");
        assert!(s.is_empty());
    }

    /// One random step of the model test, applied to both the store and
    /// a plain hash-map reference.
    fn model_step(
        rng: &mut SplitMix64,
        store: &mut BlockStore,
        model: &mut HashMap<BlockRef, PhysicalDiskId>,
    ) {
        const OBJECTS: u64 = 4;
        const BLOCKS: u64 = 48;
        const DISKS: u64 = 5;
        let disk = PhysicalDiskId(rng.next_u64() % DISKS);
        let mut stored: Vec<BlockRef> = model.keys().copied().collect();
        stored.sort();
        let pick = |r: u64| stored.get(r as usize % stored.len().max(1)).copied();
        match rng.next_u64() % 7 {
            // Ingest at a random, usually non-contiguous, block number.
            0 | 1 => {
                let b = blk(rng.next_u64() % OBJECTS, rng.next_u64() % BLOCKS);
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(b) {
                    e.insert(disk);
                    store.ingest(b, disk);
                }
            }
            // Evict any block, stored or not.
            2 => {
                let b = blk(rng.next_u64() % OBJECTS, rng.next_u64() % BLOCKS);
                assert_eq!(store.evict(b), model.remove(&b));
            }
            // Evict then re-ingest elsewhere.
            3 => {
                if let Some(b) = pick(rng.next_u64()) {
                    assert_eq!(store.evict(b), model.remove(&b));
                    store.ingest(b, disk);
                    model.insert(b, disk);
                }
            }
            4 => {
                if let Some(b) = pick(rng.next_u64()) {
                    let from = model[&b];
                    store.relocate(b, from, disk);
                    model.insert(b, disk);
                }
            }
            5 => {
                if let Some(b) = pick(rng.next_u64()) {
                    let prior = model.insert(b, disk).expect("picked a stored block");
                    assert_eq!(store.relocate_reconstructed(b, disk), prior);
                }
            }
            _ => {
                let object = ObjectId(rng.next_u64() % OBJECTS);
                let before = model.len();
                model.retain(|b, _| b.object != object);
                assert_eq!(store.evict_object(object), (before - model.len()) as u64);
            }
        }
    }

    #[test]
    fn dense_table_matches_a_hash_map_model() {
        let disks: Vec<PhysicalDiskId> = (0..5).map(PhysicalDiskId).collect();
        for seed in 0..16 {
            let mut rng = SplitMix64::from_seed(seed);
            let mut store = BlockStore::new();
            let mut model: HashMap<BlockRef, PhysicalDiskId> = HashMap::new();
            for step in 0..400 {
                model_step(&mut rng, &mut store, &mut model);
                let ctx = format!("seed {seed} step {step}");
                assert_eq!(store.len(), model.len(), "{ctx}");
                for o in 0..4 {
                    for b in 0..48 {
                        let r = blk(o, b);
                        assert_eq!(store.locate(r), model.get(&r).copied(), "{ctx} {r:?}");
                    }
                }
                let census: Vec<u64> = disks
                    .iter()
                    .map(|d| model.values().filter(|&v| v == d).count() as u64)
                    .collect();
                assert_eq!(store.census(&disks), census, "{ctx}");
                for (&d, &n) in disks.iter().zip(&census) {
                    assert_eq!(store.blocks_on(d), n, "{ctx}");
                    let mut scanned = store.scan_disk(d);
                    scanned.sort();
                    let mut expect: Vec<BlockRef> = model
                        .iter()
                        .filter_map(|(&b, &v)| (v == d).then_some(b))
                        .collect();
                    expect.sort();
                    assert_eq!(scanned, expect, "{ctx}");
                }
            }
        }
    }
}
