//! The online redistribution executor.
//!
//! The paper's central service requirement (§1): scaling must happen
//! "without interruption to the activity of the CM server" — no downtime,
//! no broken streams. The executor models that: a scaling operation's
//! [`MovePlan`](scaddar_core::MovePlan) becomes a queue of *pending
//! moves* executed over many rounds, each move consuming one unit of
//! bandwidth on its source disk and one on its target disk, competing
//! with (but never preempting) stream service.
//!
//! While a move is pending, reads are served from the block's *current*
//! physical disk (the block store); once executed, from the new one. The
//! engine's `AF()` answers are thus eventually consistent with residency,
//! and the server layer resolves reads through the store.

use crate::store::IdMap;
use scaddar_baselines::PhysicalDiskId;
use scaddar_core::BlockRef;
use std::collections::HashMap;
use std::collections::VecDeque;

/// One queued block move, in physical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMove {
    /// The block to move.
    pub block: BlockRef,
    /// Source physical disk.
    pub from: PhysicalDiskId,
    /// Target physical disk.
    pub to: PhysicalDiskId,
}

/// Executes queued moves under per-disk per-round bandwidth budgets.
#[derive(Debug, Clone, Default)]
pub struct RedistributionExecutor {
    queue: VecDeque<PendingMove>,
}

impl RedistributionExecutor {
    /// An idle executor.
    pub fn new() -> Self {
        RedistributionExecutor::default()
    }

    /// Enqueues a batch of moves (one scaling operation's plan).
    pub fn enqueue<I: IntoIterator<Item = PendingMove>>(&mut self, moves: I) {
        self.queue.extend(moves);
    }

    /// Pending move count.
    pub fn backlog(&self) -> u64 {
        self.queue.len() as u64
    }

    /// True when no moves are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The pending moves, in execution order (for scrubbing and
    /// introspection).
    pub fn pending(&self) -> impl Iterator<Item = &PendingMove> {
        self.queue.iter()
    }

    /// Executes up to the per-disk budgets' worth of moves this round.
    ///
    /// `budget` maps each live physical disk to the number of block
    /// transfers it may participate in this round (as source *or*
    /// target). Returns the executed moves, in queue order; moves whose
    /// source or target is out of budget are deferred, preserving their
    /// relative order (head-of-line blocking is deliberate — it models a
    /// sequential sweep and keeps the executor fair across disks). The
    /// scan stops once every budget is spent: no later move could run,
    /// so the unscanned rest stays queued behind the deferred moves,
    /// exactly as a full scan would leave it.
    pub fn execute_round(&mut self, budget: &mut HashMap<PhysicalDiskId, u32>) -> Vec<PendingMove> {
        // The scan probes budgets twice per move; a copy under the cheap
        // id hasher keeps that off the SipHash path.
        let mut left: IdMap<PhysicalDiskId, u32> = budget.iter().map(|(&d, &b)| (d, b)).collect();
        let mut open = left.values().filter(|&&b| b > 0).count();
        let mut executed = Vec::new();
        let mut deferred = Vec::new();
        while open > 0 {
            let Some(mv) = self.queue.pop_front() else {
                break;
            };
            let has_budget = |d: &PhysicalDiskId| left.get(d).is_some_and(|&b| b > 0);
            // A local copy (e.g. materializing a reconstructed block
            // from a mirror co-resident with the target) is one disk
            // operation on a single spindle.
            let local = mv.from == mv.to;
            if has_budget(&mv.to) && (local || has_budget(&mv.from)) {
                spend(&mut left, mv.to, &mut open);
                if !local {
                    spend(&mut left, mv.from, &mut open);
                }
                executed.push(mv);
            } else {
                deferred.push(mv);
            }
        }
        for mv in deferred.into_iter().rev() {
            self.queue.push_front(mv);
        }
        budget.extend(left);
        executed
    }

    /// Rewrites the *source* of pending moves (e.g. when a source disk
    /// fails and the data must instead be read from its mirror). The
    /// callback returns the new source for moves it wants to redirect.
    /// Returns how many moves were redirected.
    pub fn resource_moves<F>(&mut self, mut new_source: F) -> u64
    where
        F: FnMut(&PendingMove) -> Option<PhysicalDiskId>,
    {
        let mut changed = 0;
        for mv in &mut self.queue {
            if let Some(from) = new_source(mv) {
                if from != mv.from {
                    mv.from = from;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Drops pending moves for blocks that no longer exist (object
    /// deletion during redistribution). Returns how many were dropped.
    pub fn cancel_blocks<F: Fn(BlockRef) -> bool>(&mut self, gone: F) -> u64 {
        let before = self.queue.len();
        self.queue.retain(|mv| !gone(mv.block));
        (before - self.queue.len()) as u64
    }
}

/// Takes one transfer off `disk`'s budget, counting it closed at zero.
fn spend(budget: &mut IdMap<PhysicalDiskId, u32>, disk: PhysicalDiskId, open: &mut usize) {
    let left = budget.get_mut(&disk).expect("checked");
    *left -= 1;
    if *left == 0 {
        *open -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaddar_core::ObjectId;
    use scaddar_prng::{SeededRng, SplitMix64};

    fn mv(b: u64, from: u64, to: u64) -> PendingMove {
        PendingMove {
            block: BlockRef {
                object: ObjectId(0),
                block: b,
            },
            from: PhysicalDiskId(from),
            to: PhysicalDiskId(to),
        }
    }

    fn budget(pairs: &[(u64, u32)]) -> HashMap<PhysicalDiskId, u32> {
        pairs.iter().map(|&(d, b)| (PhysicalDiskId(d), b)).collect()
    }

    #[test]
    fn executes_within_budget() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue([mv(0, 0, 1), mv(1, 0, 1), mv(2, 0, 1)]);
        let mut b = budget(&[(0, 2), (1, 2)]);
        let done = ex.execute_round(&mut b);
        assert_eq!(done.len(), 2);
        assert_eq!(ex.backlog(), 1);
        // Budgets fully consumed.
        assert_eq!(b[&PhysicalDiskId(0)], 0);
        assert_eq!(b[&PhysicalDiskId(1)], 0);
    }

    #[test]
    fn independent_disks_proceed_despite_blocked_head() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue([mv(0, 0, 1), mv(1, 2, 3)]);
        // Disk 0 has no budget; the 2->3 move must still run.
        let mut b = budget(&[(0, 0), (1, 5), (2, 5), (3, 5)]);
        let done = ex.execute_round(&mut b);
        assert_eq!(done, vec![mv(1, 2, 3)]);
        assert_eq!(ex.backlog(), 1);
    }

    #[test]
    fn drains_over_multiple_rounds() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue((0..10).map(|i| mv(i, 0, 1)));
        let mut rounds = 0;
        while !ex.is_idle() {
            let mut b = budget(&[(0, 3), (1, 3)]);
            let done = ex.execute_round(&mut b);
            assert!(!done.is_empty(), "no progress");
            rounds += 1;
        }
        assert_eq!(rounds, 4, "10 moves at 3/round: 4 rounds");
    }

    #[test]
    fn unknown_disk_has_zero_budget() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue([mv(0, 7, 1)]);
        let mut b = budget(&[(1, 5)]);
        assert!(ex.execute_round(&mut b).is_empty());
        assert_eq!(ex.backlog(), 1);
    }

    #[test]
    fn cancel_drops_matching_blocks() {
        let mut ex = RedistributionExecutor::new();
        ex.enqueue((0..6).map(|i| mv(i, 0, 1)));
        let dropped = ex.cancel_blocks(|b| b.block % 2 == 0);
        assert_eq!(dropped, 3);
        assert_eq!(ex.backlog(), 3);
    }

    /// The executor round without the early exit: scan the whole queue.
    fn full_scan_round(
        queue: &mut VecDeque<PendingMove>,
        budget: &mut HashMap<PhysicalDiskId, u32>,
    ) -> Vec<PendingMove> {
        let mut executed = Vec::new();
        let mut deferred = VecDeque::new();
        while let Some(mv) = queue.pop_front() {
            let ok = |d: &PhysicalDiskId| budget.get(d).copied().unwrap_or(0) > 0;
            if ok(&mv.to) && (mv.from == mv.to || ok(&mv.from)) {
                *budget.get_mut(&mv.to).unwrap() -= 1;
                if mv.from != mv.to {
                    *budget.get_mut(&mv.from).unwrap() -= 1;
                }
                executed.push(mv);
            } else {
                deferred.push_back(mv);
            }
        }
        *queue = deferred;
        executed
    }

    #[test]
    fn early_exit_matches_a_full_scan() {
        for seed in 0..64 {
            let mut rng = SplitMix64::from_seed(seed);
            let len = rng.next_u64() % 300;
            // Disk 6 never has a budget entry; disks 0..6 get 0..=4.
            let moves: Vec<PendingMove> = (0..len)
                .map(|i| mv(i, rng.next_u64() % 7, rng.next_u64() % 7))
                .collect();
            let mut ex = RedistributionExecutor::new();
            ex.enqueue(moves.iter().copied());
            let mut reference: VecDeque<PendingMove> = moves.into_iter().collect();
            for round in 0..40 {
                let budget: HashMap<PhysicalDiskId, u32> = (0..6)
                    .map(|d| (PhysicalDiskId(d), (rng.next_u64() % 5) as u32))
                    .collect();
                let (mut fast, mut full) = (budget.clone(), budget);
                let ctx = format!("seed {seed} round {round}");
                assert_eq!(
                    ex.execute_round(&mut fast),
                    full_scan_round(&mut reference, &mut full),
                    "{ctx}"
                );
                assert_eq!(fast, full, "{ctx}");
                assert!(ex.pending().eq(reference.iter()), "{ctx}");
            }
        }
    }
}
