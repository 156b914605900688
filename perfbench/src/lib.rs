//! # scaddar-perfbench — the lookup daemon's benchmark
//!
//! Boots the real `scaddard` daemon in-process on loopback, drives one
//! seeded closed-loop workload against it, checks every answer, and
//! prints the end-to-end metrics (or, traced, the per-layer metrics).
//! See `perfbench/LAYERS.md` for what each number means and which
//! end-to-end metric each layer metric should move.

pub mod daemon;
pub mod gen;
pub mod layers;
pub mod load;
pub mod oracle;
pub mod report;
pub mod run;
pub mod wire_conn;
