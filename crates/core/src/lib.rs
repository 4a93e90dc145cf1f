//! Check-N-Run: the checkpointing engine.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`snapshot`] — atomic in-memory snapshots: stall training, copy model
//!   state + tracker delta + reader state, resume (§4.2).
//! * [`policy`] + [`predictor`] — full vs incremental decisions: one-shot,
//!   consecutive, and intermittent with the history-based re-baselining
//!   predictor (§5.1).
//! * [`bitwidth`] — dynamic quantization bit-width selection from the
//!   expected number of restores, with automatic 8-bit fallback (§6.2.1).
//! * [`mod@write`] — the sharded, pipelined quantize-and-store write path
//!   running on background threads (§4.4 step 2–3): per-host chunkers and
//!   shard writers feeding a multipart upload scheduler that queues each
//!   checkpoint's parts behind the previous one's drain (§4.3).
//! * [`manifest`] + [`wire`] — the self-describing checkpoint format with
//!   checksummed chunks.
//! * [`restore`] — chain reconstruction: follow base pointers from any
//!   checkpoint back to its full baseline, apply deltas forward, de-quantize
//!   (§5.1 recovery).
//! * [`read`] — the sharded recovery pipeline mirroring [`mod@write`]: a fetch
//!   planner, per-host shard readers overlapping ranged downloads with a
//!   rank-guarded decode straight into the destination tables, and a
//!   serial tail, bit-identical to the serial restore, with
//!   fetch/decode/merge time-to-resume accounting (§2/§5 downtime model).
//!   A lazy restore is the same restore stopped early: its cold chunks wait
//!   as their verified bytes and land later through the same decode.
//! * [`controller`] — checkpoint registry, validity, retention, deletion
//!   (§4.4).
//! * [`engine`] — the end-to-end training loop: reader budgets, interval
//!   scheduling, non-overlap rule, failure injection.
//! * [`stats`] — per-interval bandwidth/capacity accounting (Figures 15–17)
//!   and the one record of each restore: where it landed and what each
//!   phase of time-to-resume cost.
//!
//! Experiments that run no part of the engine — Figure 14's
//! restore-degradation run among them — live in `cnr_bench`.

#![forbid(unsafe_code)]

pub mod bitwidth;
pub mod config;
pub mod controller;
pub mod delta_log;
pub mod engine;
pub mod error;
pub(crate) mod hosts;
pub mod manifest;
pub mod observe;
pub mod policy;
pub mod predictor;
pub mod read;
pub mod restore;
pub mod snapshot;
pub mod stats;
pub mod wire;
pub mod write;

pub use bitwidth::BitwidthSelector;
pub use config::{CheckpointConfig, DeltaWalConfig, PolicyKind, QuantMode};
pub use delta_log::DeltaRecord;
pub use engine::{Engine, EngineBuilder};
pub use error::CnrError;
pub use manifest::{CheckpointId, CheckpointKind, Manifest};
pub use read::{FetchScheduler, FetchStatus, HostActivity, RestoreOptions, ShardedRestore};
pub use snapshot::TrainingSnapshot;
pub use stats::{IntervalStats, ResumeStats, WalRunStats};
pub use write::{CheckpointRecord, CheckpointWriter, UploadScheduler};
