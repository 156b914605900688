//! The independent placement oracle every sampled reply is checked
//! against: the stateless `trace` fold of `X_0` through the scaling log
//! (no X-cache, no executor, no daemon state), mapped to physical disks
//! by the benchmark's own logical→physical bookkeeping.

use crate::gen::Spec;
use scaddar_core::{
    trace, Catalog, CmObject, ObjectId, Scaddar, ScaddarConfig, ScalingLog, ScalingOp,
};

/// One placement generation as the oracle rebuilds it.
struct Generation {
    catalog: Catalog,
    log: ScalingLog,
    /// Logical→physical disk ids at every epoch of `log`.
    physical: Vec<Vec<u64>>,
}

/// A serving state the daemon can be in: one `(epoch, disks)` pair a
/// reply may carry, with the generation(s) whose placement it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct State {
    /// Generation index.
    pub generation: usize,
    /// Epoch within the generation.
    pub epoch: usize,
    /// Disk count at that epoch.
    pub disks: u32,
    /// A compaction toward `generation + 1` is migrating: a block may be
    /// answered from either generation.
    pub compacting: bool,
}

/// The oracle: every generation the run has reached.
pub struct Oracle {
    config: ScaddarConfig,
    objects: Vec<u64>,
    generations: Vec<Generation>,
    next_physical: u64,
    /// Every serving state, in the order the daemon passes through them.
    pub states: Vec<State>,
}

impl Oracle {
    /// The oracle for `spec` after its setup history.
    pub fn new(spec: &Spec) -> Oracle {
        let config = ScaddarConfig::new(spec.initial_disks).with_catalog_seed(spec.catalog_seed);
        let server_defaults = cmsim::ServerConfig::new(spec.initial_disks);
        let config = config
            .with_bits(server_defaults.bits)
            .with_rng(server_defaults.rng)
            .with_epsilon(server_defaults.epsilon);
        let mut catalog = Catalog::new(config.rng, config.bits, config.catalog_seed);
        let objects = vec![spec.blocks_per_object; spec.objects as usize];
        for &blocks in &objects {
            catalog.add_object(blocks);
        }
        let mut oracle = Oracle {
            config,
            objects,
            generations: vec![Generation {
                catalog,
                log: ScalingLog::new(spec.initial_disks).expect("disks > 0"),
                physical: vec![(0..u64::from(spec.initial_disks)).collect()],
            }],
            next_physical: u64::from(spec.initial_disks),
            states: Vec::new(),
        };
        for op in &spec.history {
            oracle.apply_op(op);
        }
        oracle.states.push(oracle.current_state());
        oracle
    }

    fn current_state(&self) -> State {
        let g = self.generations.last().expect("generation 0 exists");
        State {
            generation: self.generations.len() - 1,
            epoch: g.log.epoch(),
            disks: g.log.current_disks(),
            compacting: false,
        }
    }

    fn apply_op(&mut self, op: &ScalingOp) {
        let g = self.generations.last_mut().expect("generation 0 exists");
        let before = g.log.current_disks();
        g.log.push(op).expect("generated op valid");
        let mut map = g.physical.last().expect("epoch 0 map").clone();
        match op {
            ScalingOp::Add { count } => {
                for _ in 0..*count {
                    map.push(self.next_physical);
                    self.next_physical += 1;
                }
            }
            ScalingOp::Remove { disks } => {
                let mut keep = vec![true; before as usize];
                for &d in disks {
                    keep[d as usize] = false;
                }
                map = map
                    .into_iter()
                    .zip(keep)
                    .filter_map(|(p, k)| k.then_some(p))
                    .collect();
            }
        }
        g.physical.push(map);
    }

    /// Records a committed scaling op; returns the new state's index.
    pub fn scale(&mut self, op: &ScalingOp) -> usize {
        self.apply_op(op);
        self.states.push(self.current_state());
        self.states.len() - 1
    }

    /// Records a compaction: a dual-serving state, then the flipped
    /// generation. Returns the flipped state's index.
    pub fn compact(&mut self) -> usize {
        let mut compacting = self.current_state();
        compacting.compacting = true;
        self.states.push(compacting);
        let old = self.generations.last().expect("generation 0 exists");
        // The engine chains each generation's catalog seed from the last;
        // walking an empty engine through the same generations derives
        // it exactly as the daemon's compaction does.
        let mut chain = Scaddar::new(self.config).expect("disks > 0");
        for _ in 1..self.generations.len() {
            chain = chain.open_next_generation();
        }
        debug_assert_eq!(chain.catalog().catalog_seed(), old.catalog.catalog_seed());
        let mut catalog = chain.open_next_generation().catalog().clone();
        for &blocks in &self.objects {
            catalog.add_object(blocks);
        }
        let disks = old.log.current_disks();
        let physical = vec![old.physical.last().expect("epoch map").clone()];
        self.generations.push(Generation {
            catalog,
            log: ScalingLog::new(disks).expect("disks > 0"),
            physical,
        });
        self.states.push(self.current_state());
        self.states.len() - 1
    }

    /// True when a reply's `(epoch, disks)` is that of some state in
    /// `lo..=hi` (the states live between request and reply).
    pub fn consistent(&self, lo: usize, hi: usize, epoch: u64, disks: u32) -> bool {
        self.states[lo..=hi.min(self.states.len() - 1)]
            .iter()
            .any(|s| s.epoch as u64 == epoch && s.disks == disks)
    }

    /// The logical disk of one block in generation `g` at `epoch`.
    pub fn logical(&self, g: usize, epoch: usize, object: u64, block: u64) -> u32 {
        let gen = &self.generations[g];
        let obj: &CmObject = gen
            .catalog
            .object(ObjectId(object))
            .expect("catalog object");
        trace(gen.catalog.x0(obj, block), &gen.log)[epoch].disk.0
    }

    /// The physical disk of one block in generation `g` at `epoch`.
    pub fn physical(&self, g: usize, epoch: usize, object: u64, block: u64) -> u64 {
        self.generations[g].physical[epoch][self.logical(g, epoch, object, block) as usize]
    }

    /// Checks one answer (`physical` selects the disk id space) against
    /// every state in `lo..=hi` that carries the reply's epoch and disk
    /// count.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &self,
        lo: usize,
        hi: usize,
        epoch: u64,
        disks: u32,
        object: u64,
        block: u64,
        answer: u64,
        physical: bool,
    ) -> bool {
        let place = |g: usize, e: usize| {
            if physical {
                self.physical(g, e, object, block)
            } else {
                u64::from(self.logical(g, e, object, block))
            }
        };
        self.states[lo..=hi.min(self.states.len() - 1)]
            .iter()
            .filter(|s| s.epoch as u64 == epoch && s.disks == disks)
            .any(|s| {
                place(s.generation, s.epoch) == answer
                    || (s.compacting && place(s.generation + 1, 0) == answer)
            })
    }
}
