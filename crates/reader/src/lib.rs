//! The distributed reader tier.
//!
//! In the paper's training pipeline (§2.2), a separate cluster of reader
//! nodes feeds trainers with batches at high throughput. Checkpointing
//! introduces a consistency problem (§4.1): batches can be *in flight*
//! between reader and trainer, so a checkpoint of "reader position" and
//! "trainer position" taken naively would disagree. Check-N-Run's fix is the
//! **batch budget protocol**: the controller tells the reader master exactly
//! how many batches to produce before the next checkpoint; the reader
//! produces exactly that many and stops; when the trainer has consumed them
//! all, reader state and trainer state are consistent by construction.
//!
//! This crate implements that protocol with real threads:
//!
//! * [`master::ReaderMaster`] — owns worker threads that generate batches in
//!   parallel, a reorder buffer that delivers them **in index order**
//!   (synchronous training requires a deterministic batch sequence), and the
//!   budget gate.
//! * [`state::ReaderState`] — the serializable reader position; restoring it
//!   and re-reading yields the identical batch stream (verified by tests,
//!   possible because `cnr-workload` datasets are deterministic).

#![forbid(unsafe_code)]

pub mod master;
pub mod state;

pub use master::{ReaderConfig, ReaderMaster};
pub use state::ReaderState;
