//! Checkpoint policy engine: full or incremental, and what happens to the
//! tracker afterwards (§5.1).

use crate::config::PolicyKind;
use crate::manifest::CheckpointKind;
use crate::predictor;

/// What the tracker should do when a checkpoint of a given kind is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerAction {
    /// Read the tracker without resetting (one-shot/intermittent
    /// incrementals keep accumulating against the baseline).
    SnapshotKeep,
    /// Read and reset (consecutive incrementals, and every full baseline —
    /// modification history restarts from the new baseline).
    SnapshotReset,
}

/// A policy decision for one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Tracker handling.
    pub tracker: TrackerAction,
}

/// Stateful policy engine; one per training job.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    kind: PolicyKind,
    /// Sizes (fractions of full) of incrementals since the last baseline.
    history: Vec<f64>,
    checkpoints_taken: u64,
}

impl PolicyEngine {
    /// Creates a policy engine.
    pub fn new(kind: PolicyKind) -> Self {
        Self {
            kind,
            history: Vec::new(),
            checkpoints_taken: 0,
        }
    }

    /// The configured policy.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Incremental sizes recorded since the last baseline.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Decides the next checkpoint's kind. The first checkpoint of a job is
    /// always full; afterwards the policy governs.
    pub fn decide(&self) -> Decision {
        if self.checkpoints_taken == 0 {
            return Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotReset,
            };
        }
        match self.kind {
            PolicyKind::FullOnly => Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotReset,
            },
            PolicyKind::OneShot => Decision {
                kind: CheckpointKind::Incremental,
                tracker: TrackerAction::SnapshotKeep,
            },
            PolicyKind::Consecutive => Decision {
                kind: CheckpointKind::Incremental,
                tracker: TrackerAction::SnapshotReset,
            },
            PolicyKind::Intermittent => {
                if predictor::should_take_full(&self.history) {
                    Decision {
                        kind: CheckpointKind::Full,
                        tracker: TrackerAction::SnapshotReset,
                    }
                } else {
                    Decision {
                        kind: CheckpointKind::Incremental,
                        tracker: TrackerAction::SnapshotKeep,
                    }
                }
            }
        }
    }

    /// Records the outcome of a checkpoint: its kind and its stored size as
    /// a fraction of a full checkpoint. Feeds the intermittent predictor.
    pub fn record(&mut self, kind: CheckpointKind, stored_fraction: f64) {
        self.checkpoints_taken += 1;
        match kind {
            CheckpointKind::Full => self.history.clear(),
            CheckpointKind::Incremental => self.history.push(stored_fraction),
        }
    }

    /// Checkpoints taken so far.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_checkpoint_is_always_full() {
        for kind in [
            PolicyKind::FullOnly,
            PolicyKind::OneShot,
            PolicyKind::Consecutive,
            PolicyKind::Intermittent,
        ] {
            let engine = PolicyEngine::new(kind);
            let d = engine.decide();
            assert_eq!(d.kind, CheckpointKind::Full, "{kind:?}");
            assert_eq!(d.tracker, TrackerAction::SnapshotReset);
        }
    }

    #[test]
    fn full_only_repeats_full() {
        let mut e = PolicyEngine::new(PolicyKind::FullOnly);
        e.record(CheckpointKind::Full, 1.0);
        assert_eq!(e.decide().kind, CheckpointKind::Full);
    }

    #[test]
    fn one_shot_keeps_tracker() {
        let mut e = PolicyEngine::new(PolicyKind::OneShot);
        e.record(CheckpointKind::Full, 1.0);
        let d = e.decide();
        assert_eq!(d.kind, CheckpointKind::Incremental);
        assert_eq!(d.tracker, TrackerAction::SnapshotKeep);
        // Stays incremental forever.
        e.record(CheckpointKind::Incremental, 0.9);
        assert_eq!(e.decide().kind, CheckpointKind::Incremental);
    }

    #[test]
    fn consecutive_resets_tracker() {
        let mut e = PolicyEngine::new(PolicyKind::Consecutive);
        e.record(CheckpointKind::Full, 1.0);
        let d = e.decide();
        assert_eq!(d.kind, CheckpointKind::Incremental);
        assert_eq!(d.tracker, TrackerAction::SnapshotReset);
    }

    #[test]
    fn intermittent_rebaselines_on_growing_history() {
        let mut e = PolicyEngine::new(PolicyKind::Intermittent);
        e.record(CheckpointKind::Full, 1.0);
        // Feed growing incremental sizes until the predictor fires.
        let mut rebaselined = false;
        for i in 0..20 {
            let d = e.decide();
            if d.kind == CheckpointKind::Full {
                rebaselined = true;
                e.record(CheckpointKind::Full, 1.0);
                break;
            }
            e.record(CheckpointKind::Incremental, 0.25 + 0.04 * i as f64);
        }
        assert!(rebaselined, "intermittent never re-baselined");
        // History cleared after the full checkpoint.
        assert!(e.history().is_empty());
    }

    #[test]
    fn record_tracks_history() {
        let mut e = PolicyEngine::new(PolicyKind::Intermittent);
        e.record(CheckpointKind::Full, 1.0);
        e.record(CheckpointKind::Incremental, 0.25);
        e.record(CheckpointKind::Incremental, 0.3);
        assert_eq!(e.history(), &[0.25, 0.3]);
        assert_eq!(e.checkpoints_taken(), 3);
    }
}
