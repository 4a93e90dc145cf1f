//! Synchronous training loop over the DLRM-lite model.
//!
//! Reproduces the trainer tier of the paper's pipeline (§2.2): fully
//! synchronous mini-batch SGD (one logical step per batch — the AllReduce /
//! AlltoAll exchanges of the real system collapse to in-process arithmetic),
//! modification tracking hooked into the forward pass (§5.1.1), and a
//! simulated clock advanced at the configured training throughput so that
//! "a 30-minute checkpoint interval" is a meaningful quantity.
//!
//! * [`trainer::Trainer`] — owns the model, the tracker, and the clock.
//! * [`eval`] — held-out evaluation: logloss, accuracy, normalized entropy
//!   (the accuracy-family metric used for Figure 14).

#![forbid(unsafe_code)]

pub mod eval;
pub mod trainer;

pub use eval::{evaluate, EvalReport};
pub use trainer::{Trainer, TrainerConfig};
