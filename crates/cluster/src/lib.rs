//! Cluster substrate: simulated time, failures, and scrub cadence.
//!
//! The paper's motivation (§3.1) and overall-reduction results (Figure 17)
//! depend on a training fleet that fails: 21 clusters observed over a month,
//! with a fat-tailed time-to-failure distribution (10% of failed jobs ran
//! ≥13.5 h before failing; 1% ran ≥53.9 h). This crate holds what the
//! engine needs of that world:
//!
//! * [`clock::SimClock`] — a shared, monotonically advancing logical clock
//!   (microsecond resolution) used by the storage bandwidth simulator and
//!   the checkpoint controller.
//! * [`failure`] — time-to-failure models and mid-operation host kills. The
//!   log-normal model ships with parameters calibrated so its 90th/99th
//!   percentiles reproduce the paper's Figure 3 CDF.
//! * [`scrub`] — when background scrub sweeps come due, and what one found.
//!
//! The fleet scheduler, wasted-work accounting and model-growth series of
//! the paper's motivation figures are figure code, in `cnr_bench`.

#![forbid(unsafe_code)]

pub mod clock;
pub mod failure;
pub mod scrub;

pub use clock::SimClock;
pub use failure::{FailureModel, HostKill, TtfSample};
pub use scrub::{ScrubFindings, ScrubScheduler};
