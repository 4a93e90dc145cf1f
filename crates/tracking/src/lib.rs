//! Modified-row tracking for incremental checkpoints.
//!
//! Check-N-Run's incremental checkpointing (§5.1 of the paper) rests on one
//! mechanism: while training runs, each device marks the embedding rows it
//! touches in a local bit-vector, and at checkpoint time that bit-vector is
//! the exact description of "what changed since the last baseline". The paper
//! notes the footprint is tiny (<0.05% of the model, a few MB per GPU) and
//! the marking is hidden inside the AlltoAll communication phase (~1% of
//! iteration time).
//!
//! This crate reproduces that mechanism:
//!
//! * [`bitvec::BitVec`] — a plain, cloneable bit-vector used inside
//!   snapshots and delta views.
//! * [`bitvec::AtomicBitVec`] — a lock-free bit-vector that many trainer
//!   threads can mark concurrently (the paper's GPUs mark in parallel during
//!   the forward pass).
//! * [`tracker::ModificationTracker`] — one atomic bit-vector per embedding
//!   table, with atomic *snapshot-and-reset* semantics at checkpoint
//!   boundaries.
//! * [`coverage::CoverageAnalyzer`] — the set and fraction of rows touched;
//!   the lazy restore planner's heat boost reads it.

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod coverage;
pub mod tracker;

pub use bitvec::{AtomicBitVec, BitVec};
pub use coverage::CoverageAnalyzer;
pub use tracker::{ModificationTracker, TrackerSnapshot};
