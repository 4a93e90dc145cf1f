//! Background-scrub scheduling and the shape of a sweep's findings.
//!
//! The storage layer's scrubber (`cnr_storage::scrub`) knows how to
//! validate and repair objects; this module decides *when* sweeps run and
//! names *what* one found. The split mirrors the rest of the workspace:
//! `cnr_storage` depends on this crate for [`crate::SimClock`], so the
//! scheduling side is storage-agnostic — a sweep's findings are plain
//! counts ([`ScrubFindings`]).
//!
//! A scrub sweep competes with no one in simulated time: like checkpoint
//! uploads (§4.2 of the paper), scrubbing is background work on spare
//! cycles. The scheduler only answers "is a sweep due at time `t`?" on a
//! fixed cadence; the per-sweep history is the engine's run statistics
//! (`RunStats::scrubs`), kept there once.

use std::time::Duration;

/// Plain-count findings of one scrub sweep (the storage layer's report,
/// stripped of key-level detail).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubFindings {
    /// Objects examined.
    pub scanned: u64,
    /// Objects that verified clean on first read.
    pub clean: u64,
    /// Objects whose envelope failed verification.
    pub corrupt_detected: u64,
    /// Corrupt objects healed from a replica and written back.
    pub repaired: u64,
    /// Corrupt objects no source could produce clean.
    pub unrepairable: u64,
}

impl ScrubFindings {
    /// Component-wise sum.
    pub fn accumulate(&mut self, other: ScrubFindings) {
        self.scanned += other.scanned;
        self.clean += other.clean;
        self.corrupt_detected += other.corrupt_detected;
        self.repaired += other.repaired;
        self.unrepairable += other.unrepairable;
    }
}

/// Fixed-cadence sweep scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ScrubScheduler {
    interval: Duration,
    next_due: Duration,
}

impl ScrubScheduler {
    /// A scheduler whose first sweep is due one full `interval` after
    /// time zero (a freshly written checkpoint has nothing to scrub).
    pub fn new(interval: Duration) -> Self {
        assert!(interval > Duration::ZERO, "scrub interval must be positive");
        Self {
            interval,
            next_due: interval,
        }
    }

    /// True when a sweep is due at simulated time `now`.
    pub fn due(&self, now: Duration) -> bool {
        now >= self.next_due
    }

    /// Notes a sweep completed at `now` and schedules the next one a full
    /// interval later (sweeps do not bunch up after an idle stretch).
    pub fn record(&mut self, now: Duration) {
        self.next_due = now + self.interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_come_due_on_the_cadence() {
        let mut s = ScrubScheduler::new(Duration::from_secs(60));
        assert!(!s.due(Duration::ZERO), "nothing to scrub at t=0");
        assert!(!s.due(Duration::from_secs(59)));
        assert!(s.due(Duration::from_secs(60)));
        s.record(Duration::from_secs(60));
        assert!(!s.due(Duration::from_secs(119)));
        assert!(s.due(Duration::from_secs(120)));
    }

    #[test]
    fn late_sweeps_do_not_bunch_up() {
        let mut s = ScrubScheduler::new(Duration::from_secs(60));
        // The job was busy; the sweep runs late at t=200.
        s.record(Duration::from_secs(200));
        assert!(!s.due(Duration::from_secs(259)), "next due a full interval later");
        assert!(s.due(Duration::from_secs(260)));
    }
}
