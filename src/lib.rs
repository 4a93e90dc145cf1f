//! # Check-N-Run
//!
//! A from-scratch Rust reproduction of **"Check-N-Run: a Checkpointing System
//! for Training Deep Learning Recommendation Models"** (Eisenman et al.,
//! NSDI 2022).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`model`] — DLRM-lite recommendation model (embedding tables, MLPs,
//!   optimizers, device sharding).
//! * [`workload`] — deterministic synthetic CTR datasets with Zipfian sparse
//!   access.
//! * [`quant`] — checkpoint quantization (FP16, uniform
//!   symmetric/asymmetric, adaptive asymmetric) with bit-packing.
//! * [`tracking`] — lock-free modified-row tracking for incremental
//!   checkpoints.
//! * [`storage`] — object storage backends including a bandwidth-simulated
//!   remote store.
//! * [`cluster`] — simulated clock, failure models, and scrub cadence.
//! * [`reader`] — the distributed reader tier with exact batch budgets.
//! * [`trainer`] — the synchronous training loop and held-out evaluation.
//! * [`obs`] — spans, the metrics registry, and their exporters.
//! * [`core`] — the Check-N-Run engine itself: snapshots, incremental
//!   policies, quantized chunked writing, restore, and the controller.
//!
//! The paper's figures, and the fleet scheduler of its motivation, are in
//! the `cnr_bench` crate.
//!
//! ## Quickstart
//!
//! ```no_run
//! use check_n_run::prelude::*;
//!
//! let spec = DatasetSpec::medium(42);
//! let model_cfg = ModelConfig::for_dataset(&spec, 16);
//! let mut engine = EngineBuilder::new(spec, model_cfg)
//!     .checkpoint_every_batches(100)
//!     .policy(PolicyKind::Intermittent)
//!     .quantization(QuantMode::Dynamic { expected_restores: 1 })
//!     .build()
//!     .expect("engine construction");
//! engine.train_batches(500).expect("training");
//! ```

#![forbid(unsafe_code)]

pub use cnr_cluster as cluster;
pub use cnr_core as core;
pub use cnr_model as model;
pub use cnr_obs as obs;
pub use cnr_quant as quant;
pub use cnr_reader as reader;
pub use cnr_storage as storage;
pub use cnr_tracking as tracking;
pub use cnr_trainer as trainer;
pub use cnr_workload as workload;

/// Commonly used items, importable with a single `use`.
pub mod prelude {
    pub use cnr_cluster::clock::SimClock;
    pub use cnr_cluster::failure::{FailureModel, HostKill};
    pub use cnr_core::config::{CheckpointConfig, DeltaWalConfig, PolicyKind, QuantMode};
    pub use cnr_core::engine::{Engine, EngineBuilder};
    pub use cnr_core::read::{FetchScheduler, FetchStatus, RestoreOptions, ShardedRestore};
    pub use cnr_core::stats::{RestorePoint, ResumeStats};
    pub use cnr_core::write::{CheckpointWriter, UploadScheduler};
    pub use cnr_model::config::ModelConfig;
    pub use cnr_quant::QuantScheme;
    pub use cnr_storage::{
        FailureMode, Fault, FlakyStore, InMemoryStore, MultipartUpload, ObjectStore, Op,
        RemoteConfig, SimulatedRemoteStore,
    };
    pub use cnr_workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
}
