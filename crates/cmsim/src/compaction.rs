//! Online rehash compaction: migrating a server to its next placement
//! generation while it keeps serving.
//!
//! SCADDAR's §4.3 budget eventually runs out: after enough scaling
//! operations the REMAP chain is long and statistically stale, and the
//! paper's prescribed escape hatch is a full rehash. Doing that offline
//! would violate the §1 no-downtime requirement, so the server runs it
//! like any other redistribution: [`CmServer::begin_compaction`] opens a
//! staging engine at the next generation (fresh `X_0 mod N` seed, empty
//! scaling log — see [`Scaddar::open_next_generation`]) and enqueues one
//! move per block whose new-generation placement differs from its
//! current residency. While those moves drain through the rate-limited
//! executor the server serves from **both** generations: a lookup first
//! consults the migrated table (new-generation residency), then falls back
//! to the old engine — the same never-served-twice discipline the
//! cluster handoff uses. When the last move lands the server flips
//! atomically: the staging engine becomes *the* engine, locate collapses
//! back to a single O(1) hash, and the fairness budget is full again.
//!
//! [`CmServer::begin_compaction`]: crate::server::CmServer::begin_compaction
//! [`Scaddar::open_next_generation`]: scaddar_core::Scaddar::open_next_generation

use crate::store::BlockTable;
use scaddar_core::Scaddar;

/// In-flight state of one compaction: the staging next-generation engine
/// plus which blocks are already resident at their new-generation
/// placement.
#[derive(Debug, Clone)]
pub(crate) struct CompactionState {
    /// The next-generation engine blocks are migrating toward. Serves
    /// lookups for migrated blocks; becomes the live engine at flip.
    pub(crate) staging: Scaddar,
    /// `true` for each block whose residency already matches the
    /// staging placement (a dense per-object table; `len()` is O(1)).
    pub(crate) migrated: BlockTable<bool>,
    /// Catalog blocks at begin (progress denominator; object churn
    /// during the compaction adjusts it).
    pub(crate) total: u64,
}

/// A point-in-time view of compaction progress, for operators
/// (`scaddar health`, fleet dashboards) and trigger policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionProgress {
    /// The generation being retired.
    pub from_generation: u64,
    /// The generation being migrated to.
    pub to_generation: u64,
    /// Blocks the compaction must account for.
    pub total_blocks: u64,
    /// Blocks already at their new-generation placement.
    pub migrated_blocks: u64,
    /// Compaction moves still queued in the executor.
    pub backlog: u64,
}

impl CompactionProgress {
    /// Migrated fraction in `[0, 1]` (1.0 for an empty catalog).
    pub fn fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            1.0
        } else {
            self.migrated_blocks as f64 / self.total_blocks as f64
        }
    }

    /// Renders like `gen 0->1 41.2% (4120/10000, 5880 queued)`.
    pub fn render(&self) -> String {
        format!(
            "gen {}->{} {:.1}% ({}/{}, {} queued)",
            self.from_generation,
            self.to_generation,
            self.fraction() * 100.0,
            self.migrated_blocks,
            self.total_blocks,
            self.backlog
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_handles_empty_and_partial() {
        let p = CompactionProgress {
            from_generation: 0,
            to_generation: 1,
            total_blocks: 0,
            migrated_blocks: 0,
            backlog: 0,
        };
        assert_eq!(p.fraction(), 1.0);
        let p = CompactionProgress {
            from_generation: 2,
            to_generation: 3,
            total_blocks: 1_000,
            migrated_blocks: 250,
            backlog: 750,
        };
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        let text = p.render();
        assert!(text.contains("gen 2->3"), "{text}");
        assert!(text.contains("25.0%"), "{text}");
        assert!(text.contains("250/1000"), "{text}");
    }
}
