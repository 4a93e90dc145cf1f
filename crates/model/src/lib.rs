//! DLRM-lite: a deep learning recommendation model substrate.
//!
//! The paper trains production DLRM models (Figure 1): huge embedding tables
//! for sparse features (>99% of model bytes), a bottom MLP for dense
//! features, feature interaction, and a top MLP producing a click
//! probability. Check-N-Run's experiments need *real* model numerics —
//! quantization error (Figure 9) and restore-induced accuracy degradation
//! (Figure 14) are properties of actual embedding values under actual
//! training — so this crate implements the model with honest math, scaled to
//! laptop sizes:
//!
//! * [`table::EmbeddingTable`] — dense f32 rows with optional row-wise
//!   AdaGrad state (the optimizer state the paper checkpoints alongside
//!   weights).
//! * [`mlp::Mlp`] — fully connected ReLU layers with explicit
//!   forward/backward.
//! * [`dlrm::DlrmModel`] — lookups + mean pooling + interaction + MLPs,
//!   binary cross-entropy training, and a row-update callback that feeds the
//!   modification tracker.
//! * [`sharding::ShardPlan`] — model-parallel placement of tables across
//!   simulated devices, data-parallel MLP replication (§2.1).
//! * [`state::ModelState`] — the complete checkpointable state with a
//!   content hash for bit-exactness tests.

#![forbid(unsafe_code)]

pub mod config;
pub mod dlrm;
pub mod mlp;
pub mod sharding;
pub mod state;
pub mod table;

pub use config::{ModelConfig, OptimizerConfig, TableSpec};
pub use dlrm::{BatchStats, DlrmModel};
pub use mlp::Mlp;
pub use sharding::{DeviceId, ShardPlan};
pub use state::{ModelState, TableState};
pub use table::{EmbeddingTable, TableView, TableViewMut};
