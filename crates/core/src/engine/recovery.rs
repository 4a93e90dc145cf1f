//! Whether the engine's model can be trained on, and a lazy restore's cold
//! tail until it lands (§4.4).
//!
//! A failure destroys the live model, and a restore decodes into the
//! trainer's tables in place: from the moment one starts until it has
//! landed, the model is partly written ([`State::Lost`]). A lazy restore
//! (CPR-style partial recovery) resumes training before its cold chunks are
//! placed; it keeps them as verified bytes in memory
//! ([`read::LazyRestore`]), and the model is [`State::Draining`] until
//! batches have faulted every owed row in or the drain has placed the rest.
//! Neither reads the store again: what a fault-in or the drain costs is
//! simulated transfer time, charged to the clock.

use crate::config::CheckpointConfig;
use crate::error::{CnrError, Result};
use crate::manifest::CheckpointId;
use crate::observe;
use crate::read;
use crate::stats::ResumeStats;
use cnr_cluster::{HostKill, SimClock};
use cnr_model::{DlrmModel, ModelConfig};
use cnr_storage::{ObjectStore, SimulatedRemoteStore};
use cnr_trainer::Trainer;
use cnr_workload::{Batch, DatasetSpec};
use std::time::Duration;

/// The engine's recovery bookkeeping: one state, and how restores run.
pub(super) struct Recovery {
    state: State,
    /// The lazy planner's Zipf prior; `Some` iff restores are lazy.
    heat_prior: Option<read::RowHeat>,
    options: read::RestoreOptions,
    /// Whether restores replay the delta WAL's tail.
    replay_wal: bool,
}

enum State {
    /// Every row holds its final value.
    Live,
    /// A lazy restore resumed training with `tail` still owed: its rows are
    /// stale until a batch faults them in or the drain places them.
    Draining {
        tail: read::LazyRestore,
        /// Simulated instant the background fetch finishes — past it a
        /// full drain costs no further transfer time.
        done_at: Duration,
    },
    /// A restore started and has not landed, or a drain failed placing
    /// rows and dropped its tail: training and checkpointing fail with
    /// [`CnrError::TrainingStateLost`] until a restore succeeds.
    Lost,
}

impl Recovery {
    /// Live, restoring per `config` into models of `model_cfg` trained on
    /// `spec`'s dataset.
    pub(super) fn new(
        config: &CheckpointConfig,
        model_cfg: &ModelConfig,
        spec: &DatasetSpec,
    ) -> Self {
        // The Zipf prior depends only on the row counts and the dataset's
        // exponents (a `powf` per row): computed once here, cloned and
        // boosted per restore.
        let heat_prior = config.lazy_hot_fraction.map(|_| {
            let exponents = spec.tables.iter().map(|t| t.zipf_exponent);
            let exponent = if spec.tables.is_empty() {
                1.0
            } else {
                exponents.sum::<f64>() / spec.tables.len() as f64
            };
            read::RowHeat::zipf(&model_cfg.row_counts(), exponent)
        });
        Self {
            state: State::Live,
            heat_prior,
            options: config.restore_options(),
            replay_wal: config.delta_wal.is_some(),
        }
    }

    /// Refuses to go on with a model a failed restore or drain left partly
    /// written.
    pub(super) fn require_live(&self) -> Result<()> {
        match self.state {
            State::Lost => Err(CnrError::TrainingStateLost),
            State::Live | State::Draining { .. } => Ok(()),
        }
    }

    /// The cold tail of a lazy restore that is still draining.
    pub(super) fn pending(&self) -> Option<&read::LazyRestore> {
        match &self.state {
            State::Draining { tail, .. } => Some(tail),
            State::Live | State::Lost => None,
        }
    }

    /// Restores checkpoint `latest` into `trainer`'s tables. The lazy
    /// planner's heat is the Zipf prior boosted by every row the tracker
    /// saw touched since the last baseline — the working set training is
    /// likeliest to need first — so it is read before anything is written.
    /// The failure discarded the live model, a previous restore's tail
    /// included, and the restore writes the tables in place: the state is
    /// lost until [`Recovery::resumed`].
    pub(super) fn restore(
        &mut self,
        store: &dyn ObjectStore,
        job: &str,
        latest: CheckpointId,
        started_at: Duration,
        kill: Option<HostKill>,
        trainer: &mut Trainer,
    ) -> Result<read::ShardedRestore> {
        let heat = self.heat_prior.clone().map(|mut heat| {
            let touched = trainer.tracker().snapshot();
            for (t, mask) in touched.tables.iter().enumerate() {
                heat.boost_rows(t, mask.iter_ones(), 1.0);
            }
            heat
        });
        self.state = State::Lost;
        let model_cfg = trainer.model().config().clone();
        read::restore_sharded_into(
            store,
            job,
            latest,
            &model_cfg,
            &self.options,
            started_at,
            kill,
            heat.as_ref(),
            trainer.model_mut().table_views_mut(),
            self.replay_wal,
        )
    }

    /// A restore has landed: the model is live, or draining `tail` until
    /// the background fetch finishes at `done_at`.
    pub(super) fn resumed(&mut self, tail: Option<read::LazyRestore>, done_at: Duration) {
        self.state = match tail.filter(|tail| !tail.is_drained()) {
            Some(tail) => State::Draining { tail, done_at },
            None => State::Live,
        };
    }

    /// Faults in every row `batch` touches that the tail still owes, before
    /// the trainer sees the batch: each a synchronous targeted fetch whose
    /// transfer time is charged to the clock and counted in `resume`, never
    /// silently dropped. Once the clock has passed the background fetch's
    /// end, the drain lands the whole tail instead.
    pub(super) fn fault_in(
        &mut self,
        batch: &Batch,
        model: &mut DlrmModel,
        clock: &SimClock,
        store: &SimulatedRemoteStore,
        obs: &cnr_obs::Obs,
        resume: Option<&mut ResumeStats>,
    ) -> Result<()> {
        let State::Draining { tail, done_at } = &mut self.state else {
            return Ok(());
        };
        if clock.now() >= *done_at {
            return self.drain(model, clock, obs).map(drop);
        }
        let (mut fetches, mut bytes) = (0u64, 0u64);
        let touched = batch.sparse.iter().enumerate();
        let result = touched
            .flat_map(|(t, rows)| rows.iter().map(move |&row| (t as u16, row)))
            .try_for_each(|(t, row)| {
                if !tail.is_materialized(t, row) {
                    bytes += tail.fault_in(model, t, row)?;
                    fetches += 1;
                }
                Ok(())
            });
        if fetches > 0 {
            let cost = store.read_transfer_time(bytes);
            clock.advance(cost);
            observe::record_fault_in(obs, fetches, cost);
            if let Some(r) = resume {
                r.fault_in_fetches += fetches;
                r.fault_in_time += cost;
            }
        }
        if tail.is_drained() {
            self.state = State::Live;
        }
        result
    }

    /// Lands the whole tail: waits out the background fetch (advancing the
    /// clock to its end) and places every cold chunk (on the restore's
    /// decode workers; a row the WAL replay landed is already final).
    /// Returns the rows materialized — zero unless draining. A drain the
    /// tail refuses ([`read::DrainFailure::Refused`]: a model of another
    /// shape, checked before any row is written) keeps the tail, so a
    /// drain into the right model lands it.
    /// A drain that fails placing rows has left the model partly written:
    /// it is dropped, and the model is lost until a restore succeeds.
    pub(super) fn drain(
        &mut self,
        model: &mut DlrmModel,
        clock: &SimClock,
        obs: &cnr_obs::Obs,
    ) -> Result<u64> {
        let State::Draining { tail, done_at } = &mut self.state else {
            return Ok(0);
        };
        let drain_start = clock.now();
        clock.advance_to(*done_at);
        let outcome = match tail.drain_or_refuse(model) {
            Ok(outcome) => {
                self.state = State::Live;
                outcome
            }
            Err(read::DrainFailure::Refused(e)) => return Err(e),
            Err(read::DrainFailure::Placing(e)) => {
                self.state = State::Lost;
                return Err(e);
            }
        };
        observe::record_lazy_drain(obs, drain_start, clock.now(), outcome);
        Ok(outcome.rows_materialized)
    }
}
