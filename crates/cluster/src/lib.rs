//! Cluster substrate: simulated time, failures, scheduling, and recovery
//! accounting.
//!
//! The paper's motivation (§3.1) and overall-reduction results (Figure 17)
//! depend on a training fleet that fails: 21 clusters observed over a month,
//! with a fat-tailed time-to-failure distribution (10% of failed jobs ran
//! ≥13.5 h before failing; 1% ran ≥53.9 h). No such fleet exists here, so
//! this crate simulates one:
//!
//! * [`clock::SimClock`] — a shared, monotonically advancing logical clock
//!   (microsecond resolution) used by the storage bandwidth simulator and
//!   the checkpoint controller.
//! * [`failure`] — time-to-failure models. The log-normal model ships with
//!   parameters calibrated so its 90th/99th percentiles reproduce the
//!   paper's Figure 3 CDF.
//! * [`scheduler`] — a Bistro-like job scheduler (§2.2): priority queue,
//!   clusters with bounded capacity, discrete-event execution.
//! * [`recovery`] — wasted-work accounting: given failures and a checkpoint
//!   interval, how much re-training does a job pay?
//! * [`growth`] — the normalized model-size growth series of Figure 4.

#![forbid(unsafe_code)]

pub mod clock;
pub mod failure;
pub mod growth;
pub mod job;
pub mod recovery;
pub mod scheduler;
pub mod scrub;

pub use clock::SimClock;
pub use failure::{FailureModel, HostKill, TtfSample};
pub use job::{JobId, JobPriority, TrainingJob};
pub use recovery::{RecoveryAccounting, RestoreMode, RestorePoint, ResumeBreakdown};
pub use scheduler::{ClusterFleet, JobOutcome, Scheduler};
pub use scrub::{ScrubFindings, ScrubScheduler};
