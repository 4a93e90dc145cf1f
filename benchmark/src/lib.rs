//! Lifecycle benchmark for `check_n_run`.
//!
//! Four workloads drive the public `Engine` API through full lifecycles
//! (train, checkpoint, fail, restore, first batch). Wall-clock costs are
//! reported in training-iteration equivalents; simulated-clock metrics are
//! reported apart and must repeat bit for bit. A traced pass adds spans
//! around every engine call and shadow probes of each layer's public
//! functions. See `README.md`.

pub mod harness;
pub mod probes;
pub mod report;
pub mod stats;
pub mod timed_store;
pub mod trace;
pub mod workloads;
