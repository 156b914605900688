//! The seeded generator: every input the daemon receives — catalog
//! shape, setup history, lookup requests and operator scaling ops — is
//! a pure function of the workload and the `--seed` argument.

use scaddar_core::{Scaddar, ScaddarConfig, ScalingOp};

/// Blocks per lookup window: one session prefetch.
pub const PREFETCH_BLOCKS: u64 = 64;

/// SplitMix64: a small, well-mixed, seedable stream (independent of the
/// placement generators under test).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded from `seed` and a domain-separation `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small catalog, single-block `Locate` closed loops on 2 connections.
    HotLocate,
    /// Large catalog, pipelined windows of 64-block `LocateBatch`es.
    ColdBatch,
    /// Scaling ops, drains and a compaction beside one `Locate` reader.
    ScaleChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HotLocate,
        Workload::ColdBatch,
        Workload::ScaleChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLocate => "hot-locate",
            Workload::ColdBatch => "cold-batch",
            Workload::ScaleChurn => "scale-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything the setup and the load threads need to know about one
/// workload under one seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// The `--seed` argument.
    pub seed: u64,
    /// Catalog seed handed to the engine.
    pub catalog_seed: u64,
    /// Initial disk count `N_0`.
    pub initial_disks: u32,
    /// Objects in the catalog.
    pub objects: u64,
    /// Blocks per object.
    pub blocks_per_object: u64,
    /// Scaling ops applied offline at setup (the REMAP chain's depth).
    pub history: Vec<ScalingOp>,
    /// Reader connections (each its own thread).
    pub readers: usize,
    /// `LocateBatch` frames kept on the wire per reader (0 means
    /// single-block `Locate`s).
    pub pipeline_depth: usize,
    /// Operator ops for the scale probe (read-only workloads).
    pub probe_ops: Vec<ScalingOp>,
    /// One reply in `sample_every` is checked against the oracle (sized
    /// so every run samples well over 1k replies).
    pub sample_every: u64,
    /// Wall-clock cap on ticking after one probe op or the compaction
    /// probe; the probe reports a rate, so it need not drain.
    pub probe_drain_cap_s: f64,
}

impl Spec {
    /// The spec of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let catalog_seed = SplitMix::new(seed, 1).next_u64();
        let (objects, blocks_per_object, readers, pipeline_depth) = match workload {
            // 64k blocks: an 512 KiB X-cache, resident in L2.
            Workload::HotLocate => (4, 16_384, 2, 0),
            // 1M blocks: an 8 MiB X-cache, 4x the 2 MiB L2 of the
            // reference host (the old 4M size is L3-resident there too,
            // and four times slower to set up).
            Workload::ColdBatch => (16, 65_536, 2, 8),
            // 32k blocks, one reader beside the operator connection.
            Workload::ScaleChurn => (2, 16_384, 1, 0),
        };
        let initial_disks = 8;
        let history = match workload {
            Workload::ScaleChurn => Vec::new(),
            _ => alternating_ops(seed, 2, initial_disks, 8, true),
        };
        let after_history = disks_after(initial_disks, &history);
        let (probe_ops, probe_drain_cap_s) = match workload {
            Workload::HotLocate => (alternating_ops(seed, 3, after_history, 12, true), 5.0),
            // Each add is undone by removing the disk it added, so every
            // op commits against a similar backlog (the probe cannot
            // drain 4M blocks, and a longer history would change it).
            Workload::ColdBatch => {
                let pair = [ScalingOp::add_one(), ScalingOp::remove_one(after_history)];
                (pair.iter().cycle().take(4).cloned().collect(), 0.25)
            }
            Workload::ScaleChurn => (Vec::new(), 0.0),
        };
        let sample_every = match workload {
            Workload::HotLocate => 16,
            Workload::ColdBatch => 64,
            Workload::ScaleChurn => 4,
        };
        Spec {
            workload,
            seed,
            catalog_seed,
            initial_disks,
            objects,
            blocks_per_object,
            history,
            readers,
            pipeline_depth,
            probe_ops,
            sample_every,
            probe_drain_cap_s,
        }
    }

    /// Total catalog blocks.
    pub fn total_blocks(&self) -> u64 {
        self.objects * self.blocks_per_object
    }

    /// Reader `client`'s request stream.
    pub fn requests(&self, client: usize) -> RequestStream {
        RequestStream {
            rng: SplitMix::new(self.seed, 0x100 + client as u64),
            objects: self.objects,
            blocks_per_object: self.blocks_per_object,
            batched: self.pipeline_depth > 0,
            session: None,
        }
    }

    /// The scale-churn operator's ops for one cycle that starts at
    /// `disks` disks with a full §4.3 budget: alternating add/remove
    /// until the fairness tracker says the next op would be unsafe.
    pub fn churn_cycle(&self, cycle: u64, disks: u32) -> Vec<ScalingOp> {
        // The fairness budget depends only on bit width, epsilon and the
        // disk counts, so an empty engine with the daemon's defaults
        // answers it exactly.
        let mut budget = Scaddar::new(ScaddarConfig::new(disks)).expect("disks > 0");
        let mut rng = SplitMix::new(self.seed, 0x200 + cycle);
        let mut ops = Vec::new();
        let mut add = cycle.is_multiple_of(2);
        loop {
            let op = next_op(&mut rng, budget.disks(), add);
            let after = op.disks_after(budget.disks()).expect("generated op valid");
            if !budget.next_op_is_safe(after) {
                return ops;
            }
            budget.scale(op.clone()).expect("generated op valid");
            ops.push(op);
            add = !add;
        }
    }
}

fn next_op(rng: &mut SplitMix, disks: u32, add: bool) -> ScalingOp {
    if add || disks <= 1 {
        ScalingOp::add_one()
    } else {
        ScalingOp::remove_one(rng.below(u64::from(disks)) as u32)
    }
}

/// `count` ops alternating add/remove from `disks` disks, removal
/// victims drawn from the seeded stream `salt`.
fn alternating_ops(
    seed: u64,
    salt: u64,
    mut disks: u32,
    count: usize,
    add_first: bool,
) -> Vec<ScalingOp> {
    let mut rng = SplitMix::new(seed, salt);
    let mut add = add_first;
    (0..count)
        .map(|_| {
            let op = next_op(&mut rng, disks, add);
            disks = op.disks_after(disks).expect("generated op valid");
            add = !add;
            op
        })
        .collect()
}

fn disks_after(mut disks: u32, ops: &[ScalingOp]) -> u32 {
    for op in ops {
        disks = op.disks_after(disks).expect("generated op valid");
    }
    disks
}

/// One lookup request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Object id.
    pub object: u64,
    /// First block.
    pub block: u64,
    /// Contiguous blocks asked for (1 for `Locate`).
    pub len: u64,
}

/// A reader's endless, seeded request sequence. Single-block streams
/// walk a session: a random object and offset, then 64 contiguous
/// blocks one `Locate` at a time. Batched streams ask for each 64-block
/// prefetch in one `LocateBatch`.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SplitMix,
    objects: u64,
    blocks_per_object: u64,
    batched: bool,
    session: Option<(u64, u64, u64)>,
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let (object, start, done) = match self.session {
            Some(s) if s.2 < PREFETCH_BLOCKS => s,
            _ => {
                let object = self.rng.below(self.objects);
                let start = self.rng.below(self.blocks_per_object - PREFETCH_BLOCKS + 1);
                (object, start, 0)
            }
        };
        if self.batched {
            self.session = None;
            return Some(Request {
                object,
                block: start,
                len: PREFETCH_BLOCKS,
            });
        }
        self.session = Some((object, start, done + 1));
        Some(Request {
            object,
            block: start + done,
            len: 1,
        })
    }
}

/// True when reply number `index` of reader `client` belongs to the
/// seeded oracle sample (one in `every`).
pub fn sampled(seed: u64, client: usize, index: u64, every: u64) -> bool {
    let mut h = SplitMix::new(seed ^ index.rotate_left(17), 0x300 + client as u64);
    h.below(every) == 0
}
