//! Lazy-restore state: cold chunks held back for fault-in or drain.
//!
//! A priority-ordered restore ([`super::planner::plan_priority`]) places
//! only the *hot* chunks before training resumes (CPR-style partial
//! recovery); everything else is fetched in the background but not yet
//! applied. [`LazyRestore`] owns that deferred tail — as data, not as a
//! second decoder:
//!
//! * **cold chunks** — each the verified object the fetch returned plus its
//!   opened header. Frame checksum, geometry, row indices and the presence
//!   of every row body were checked at restore time, before the first
//!   batch; nothing was de-quantized. Until a row materializes it is
//!   *stale*, in CPR's sense: it holds whatever the destination held, and
//!   nothing may read it — training and evaluation fault it in first,
//! * **per-row application ranks** — the stamps the restore's destination
//!   (`merge::Destination`) ordered its decode workers with, as they stood
//!   when the hot set and the WAL tail had landed, so a late cold chunk
//!   from an *older* level never clobbers a hot chunk from a newer one, nor
//!   a row the log replayed (the log ranks above every chunk: such a row
//!   is final at once and never faults in).
//!
//! Materializing finishes the restore the eager path started, by the same
//! code: the background **drain** wraps the model's tables and the stamps
//! in a `merge::Destination` again and places every cold chunk on the
//! restore's decode workers; a **fault-in** (training touched an
//! unrestored row — a counted, synchronous, targeted fetch) lands the one
//! row, found at `k × body_len` in each cold chunk that names it, through
//! `merge::land_rows` over a one-row stripe — the decoder the chunk's
//! header resolved when the restore opened it, so nothing about the
//! encoding is decided again. Per row the apply order is always chunk
//! levels ascending, then the log (the rank rule) — exactly the eager
//! path's.
//!
//! [`LazyRestore::defer_delta`] and the drain's delta step are the older
//! way to replay a log into a lazy restore — row deltas buffered per row
//! and applied after its chunk levels — kept only for the lifecycle
//! benchmark's WAL probe (`benchmark/src/probes.rs`, `replay_wal`).
//!
//! The cold chunks stay until every one of them is placed: a drain that is
//! refused (a model of another shape) or fails part-way leaves the tail
//! whole, and a retry places it again — the stamps make that idempotent.

use super::merge::{land_rows, Destination, Stripe};
use super::shard_reader::DecodedChunk;
use crate::error::{CnrError, Result};
use crate::hosts::run_hosts;
use crate::manifest::{ChunkHeader, OpenedChunk, TableMeta};
use cnr_model::DlrmModel;
use cnr_storage::envelope::Verified;
use std::collections::HashMap;

/// One WAL row delta deferred until its row materializes.
#[derive(Debug, Clone)]
struct RowDelta {
    values: Vec<f32>,
    acc: Option<f32>,
}

/// One cold chunk: what [`LazyRestore`] keeps of a [`DecodedChunk`] whose
/// rows were not placed.
#[derive(Debug, Clone)]
struct ColdChunk {
    /// Rank in the serial `(level, key)` application order.
    rank: u32,
    key: String,
    /// The chunk as fetched: verified once, never copied, still encoded.
    object: Verified,
    /// `object`'s frame, opened and checked against the destination when
    /// the restore fetched it.
    header: ChunkHeader,
    bytes: u64,
}

impl ColdChunk {
    fn opened(&self) -> OpenedChunk<'_> {
        self.header.over(self.object.payload())
    }

    /// Whether `(table, row)` lies inside this chunk's row range — the
    /// only chunks a fault-in has to search.
    fn spans(&self, table: u16, row: u32) -> bool {
        let rows = &self.header.row_indices;
        self.header.table == table
            && matches!((rows.first(), rows.last()), (Some(&first), Some(&last)) if first <= row && row <= last)
    }
}

/// Which rows a lazy restore's held-back chunks still owe. Worked out once,
/// when the hot set has landed: the restore's zero step leaves these rows
/// alone (stale until they materialize), and [`LazyRestore`] starts from
/// it.
pub(crate) struct Pending {
    /// Per table, per row: whether the row already holds its final value —
    /// false exactly where a held-back chunk outranks the row's stamp.
    pub materialized: Vec<Vec<bool>>,
    /// Rows not materialized.
    rows: u64,
}

impl Pending {
    /// The rows the cold chunks of `decoded` owe in `dest`, whose tables
    /// have `row_counts` rows, under the stamps the hot set left there.
    /// (Every chunk's table and rows are inside the tables: the restore
    /// checked them.) A row is pending only if some cold chunk outranks
    /// what the hot set wrote to it; a cold chunk fully shadowed by a newer
    /// hot chunk leaves its rows final. One pass over each cold chunk's
    /// rows.
    pub(crate) fn of(
        decoded: &[DecodedChunk],
        row_counts: &[usize],
        dest: &mut Destination<'_>,
    ) -> Self {
        let mut materialized: Vec<Vec<bool>> = row_counts.iter().map(|&n| vec![true; n]).collect();
        let mut rows = 0u64;
        for chunk in decoded.iter().filter(|chunk| chunk.cold.is_some()) {
            let t = chunk.header.table as usize;
            let owed = &mut materialized[t];
            dest.for_each_stamp(t, &chunk.header.row_indices, |row, stamp| {
                let final_ = &mut owed[row as usize];
                if *final_ && chunk.rank > stamp {
                    *final_ = false;
                    rows += 1;
                }
            });
        }
        Self { materialized, rows }
    }
}

/// What a background drain applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Rows materialized by the drain (not counting earlier fault-ins).
    pub rows_materialized: u64,
}

/// Deferred tail of a lazy restore: cold chunks plus everything needed to
/// materialize their rows bit-identically to the eager path.
#[derive(Debug, Clone)]
pub struct LazyRestore {
    /// Cold chunks, ascending by rank.
    cold: Vec<ColdChunk>,
    /// Table geometry of the restored checkpoint: what a model must look
    /// like for the cold chunks (checked against it) to be placed in it.
    geometry: Vec<TableMeta>,
    /// Per table, per row: rank of the last chunk whose value was applied
    /// (0 = "nothing applied").
    applied_rank: Vec<Vec<u32>>,
    /// Per table, per row: whether the row holds its final restored value.
    materialized: Vec<Vec<bool>>,
    /// Rows still waiting on a cold chunk.
    pending_rows: u64,
    /// WAL row deltas buffered for unmaterialized rows, replay order per
    /// row. Kept only for the lifecycle benchmark's WAL probe
    /// (`benchmark/src/probes.rs`, `replay_wal`), which still replays
    /// through [`Self::defer_delta`]; the engine's restore places replayed
    /// rows like a chain level's instead.
    deferred: HashMap<(u16, u32), Vec<RowDelta>>,
    /// Threads the drain places the cold chunks on: the restore's decode
    /// workers.
    workers: usize,
}

impl LazyRestore {
    /// Builds the deferred tail from the chunks of a restore — the placed
    /// ones are ignored, the cold ones kept — the checkpoint's table
    /// `geometry`, `applied_rank`, the destination's per-table, per-row
    /// stamps of what the placed chunks wrote (0 where none did), the rows
    /// the cold chunks owe under those stamps, and the restore's decode
    /// worker count.
    pub(crate) fn new(
        decoded: Vec<DecodedChunk>,
        geometry: Vec<TableMeta>,
        applied_rank: Vec<Vec<u32>>,
        pending: Pending,
        workers: usize,
    ) -> Self {
        let mut cold: Vec<ColdChunk> = decoded
            .into_iter()
            .filter_map(|chunk| {
                Some(ColdChunk {
                    rank: chunk.rank,
                    key: chunk.key,
                    object: chunk.cold?,
                    header: chunk.header,
                    bytes: chunk.bytes,
                })
            })
            .collect();
        cold.sort_by_key(|chunk| chunk.rank);
        Self {
            cold,
            geometry,
            applied_rank,
            materialized: pending.materialized,
            pending_rows: pending.rows,
            deferred: HashMap::new(),
            workers,
        }
    }

    /// Whether `(table, row)` already holds its final restored value.
    /// Unknown coordinates count as materialized (nothing to fault in).
    pub fn is_materialized(&self, table: u16, row: u32) -> bool {
        self.materialized
            .get(table as usize)
            .and_then(|t| t.get(row as usize))
            .copied()
            .unwrap_or(true)
    }

    /// Rows still waiting on a cold chunk.
    pub fn pending_rows(&self) -> u64 {
        self.pending_rows
    }

    /// Whether every row is materialized and every deferred delta applied.
    pub fn is_drained(&self) -> bool {
        self.pending_rows == 0 && self.deferred.is_empty()
    }

    /// Keys of cold chunks that still cover at least one unmaterialized
    /// row — the in-flight set a concurrent scrub sweep must not rewrite
    /// out from under a fault-in's targeted read.
    pub fn pending_keys(&self) -> Vec<String> {
        self.cold
            .iter()
            .filter(|chunk| {
                let t = chunk.header.table as usize;
                chunk.header.row_indices.iter().any(|&row| {
                    !self.materialized[t][row as usize]
                        && chunk.rank > self.applied_rank[t][row as usize]
                })
            })
            .map(|chunk| chunk.key.clone())
            .collect()
    }

    /// Buffers one WAL row delta for an unmaterialized row; it applies when
    /// the row materializes (fault-in or drain), after all chunk levels.
    /// Caller contract: only defer rows where [`Self::is_materialized`] is
    /// false — deltas for live rows must apply immediately instead.
    ///
    /// Kept only for the lifecycle benchmark's WAL probe
    /// (`benchmark/src/probes.rs`, `replay_wal`); the engine's restore
    /// places the WAL tail before it hands the tail back
    /// ([`super::restore_sharded_into`]), so a replayed row is final.
    pub fn defer_delta(&mut self, table: u16, row: u32, values: Vec<f32>, acc: Option<f32>) {
        self.deferred
            .entry((table, row))
            .or_default()
            .push(RowDelta { values, acc });
    }

    /// Materializes `(table, row)` because training touched it before the
    /// drain finished: de-quantizes the row out of every cold chunk that
    /// outranks what it holds (levels ascending), straight into `model`'s
    /// table, then applies its deferred deltas (replay order). One
    /// targeted fetch (the engine counts it in `ResumeStats`); returns the
    /// bytes attributed to it (each landed chunk's per-row share) so the
    /// caller can charge simulated transfer time. A no-op returning 0 for
    /// rows already materialized.
    /// Allocates nothing. `model` must have the restored checkpoint's
    /// geometry ([`CnrError::ShapeMismatch`] otherwise).
    pub fn fault_in(&mut self, model: &mut DlrmModel, table: u16, row: u32) -> Result<u64> {
        if self.is_materialized(table, row) {
            return Ok(0);
        }
        // Not materialized, so `(table, row)` is inside the geometry.
        let (t, r) = (table as usize, row as usize);
        let meta = self.geometry[t];
        let dim = meta.dim as usize;
        let view = model
            .tables_mut()
            .get_mut(t)
            .filter(|tbl| tbl.rows() as u64 == meta.rows && tbl.dim() == dim)
            .ok_or_else(|| {
                CnrError::ShapeMismatch(format!(
                    "fault-in into a model whose table {t} is not the restored {}x{dim}",
                    meta.rows
                ))
            })?
            .view_mut();
        let mut stripe = Stripe {
            first_row: r,
            data: &mut view.data[r * dim..(r + 1) * dim],
            adagrad: view.adagrad.map(|acc| std::slice::from_mut(&mut acc[r])),
            rank: std::slice::from_mut(&mut self.applied_rank[t][r]),
        };
        let mut bytes = 0u64;
        for chunk in self.cold.iter().filter(|c| c.spans(table, row)) {
            if let Ok(k) = chunk.header.row_indices.binary_search(&row) {
                if land_rows(chunk.opened(), k..k + 1, chunk.rank, &mut stripe) > 0 {
                    bytes += chunk.bytes / chunk.header.row_indices.len() as u64;
                }
            }
        }
        if let Some(deltas) = self.deferred.remove(&(table, row)) {
            apply_deltas(model, table, row, &deltas)?;
        }
        self.materialized[t][r] = true;
        self.pending_rows -= 1;
        Ok(bytes)
    }

    /// Finishes the restore: places every cold chunk into `model`'s tables
    /// under the stamps the hot set, the WAL tail and any fault-ins left
    /// — the same `Destination::place` the restore's decode workers ran, on
    /// as many threads as it had, so a row is written iff the chunk
    /// outranks what it holds — then applies every remaining deferred
    /// delta (a step only [`Self::defer_delta`]'s caller, the lifecycle
    /// benchmark's WAL probe, needs). After this the model is
    /// bit-identical to an eager restore plus full WAL replay.
    /// Idempotent. `model` must have the restored checkpoint's geometry
    /// ([`CnrError::ShapeMismatch`] otherwise); a refused or failed drain
    /// keeps the whole tail, so a retry with the right model completes it.
    pub fn drain(&mut self, model: &mut DlrmModel) -> Result<DrainOutcome> {
        if !self.cold.is_empty() {
            let dest =
                Destination::new(model.table_views_mut(), &self.geometry, &mut self.applied_rank)?;
            run_hosts(
                vec![self.cold.iter().collect::<Vec<_>>()],
                self.workers,
                None,
                |_, chunk| dest.place(chunk.opened(), chunk.rank, &chunk.key).map(drop),
                |_, _| Ok(()),
                |_, _| {},
                "a drain has no host to lose",
            )?;
            self.cold = Vec::new();
        }
        // Every cold row has landed. The delta step, kept only for the
        // lifecycle benchmark's WAL probe (`benchmark/src/probes.rs`,
        // `replay_wal`): a row's deferred deltas apply after
        // its chunk levels and in replay order; the rows' own order does not
        // matter, so only the rows that have deltas are visited. They are
        // whole-row overwrites, so a retry after a failure here re-applies
        // them to the same end.
        for (&(table, row), deltas) in &self.deferred {
            debug_assert!(!self.is_materialized(table, row), "deltas deferred for a live row");
            apply_deltas(model, table, row, deltas)?;
        }
        self.deferred.clear();
        for materialized in &mut self.materialized {
            materialized.fill(true);
        }
        Ok(DrainOutcome {
            rows_materialized: std::mem::take(&mut self.pending_rows),
        })
    }
}

/// Writes `deltas` (one row's, replay order) into `model`'s row: each
/// overwrites the whole row and its accumulator.
fn apply_deltas(model: &mut DlrmModel, table: u16, row: u32, deltas: &[RowDelta]) -> Result<()> {
    let t = table as usize;
    let tbl = model
        .tables_mut()
        .get_mut(t)
        .ok_or_else(|| CnrError::Corrupt(format!("deferred delta for unknown table {t}")))?;
    let dim = tbl.dim();
    for d in deltas {
        if d.values.len() != dim {
            return Err(CnrError::Corrupt(format!(
                "deferred delta dim {} != table dim {dim}",
                d.values.len()
            )));
        }
        tbl.row_mut(row as usize).copy_from_slice(&d.values);
        if let (Some(acc), Some(adagrad)) = (d.acc, tbl.adagrad_mut()) {
            adagrad[row as usize] = acc;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{open_frame, ChunkPayload};
    use cnr_model::ModelConfig;
    use cnr_quant::QuantizedRow;
    use cnr_workload::DatasetSpec;
    use std::time::Duration;

    fn model() -> DlrmModel {
        let spec = DatasetSpec::tiny(5);
        let mut cfg = ModelConfig::for_dataset(&spec, 4);
        // Row-wise AdaGrad so the tests cover optimizer-state fault-in too.
        cfg.optimizer = cnr_model::OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 };
        DlrmModel::new(cfg)
    }

    /// A stored chunk of `rows` filled with `fill`, as a reader host hands
    /// it over: placed when `hot` (its values are then the destination's
    /// business), held back as its verified bytes otherwise.
    fn chunk(
        level: usize,
        key: &str,
        table: u16,
        rows: &[u32],
        fill: f32,
        hot: bool,
    ) -> DecodedChunk {
        let stored = ChunkPayload {
            table,
            row_indices: rows.to_vec(),
            optimizer_state: Some(vec![fill; rows.len()]),
            rows: rows.iter().map(|_| QuantizedRow::fp32(&[fill; 4])).collect(),
        }
        .encode_enveloped();
        let object = Verified::check(stored.into()).unwrap();
        DecodedChunk {
            level,
            rank: 0, // assigned by `lazy_of`
            key: key.to_string(),
            header: open_frame(object.payload()).unwrap(),
            cold: (!hot).then_some(object),
            bytes: 100 * rows.len() as u64,
            arrived_at: Duration::ZERO,
        }
    }

    /// The tail of a restore that fetched `chunks` into `m`'s geometry:
    /// ranks them in `(level, key)` order and stamps the placed ones' rows
    /// the way the restore's destination does.
    fn lazy_of(chunks: Vec<DecodedChunk>, m: &DlrmModel) -> LazyRestore {
        lazy_on(2, chunks, m)
    }

    /// [`lazy_of`] for a restore that ran `workers` decode workers.
    fn lazy_on(workers: usize, mut chunks: Vec<DecodedChunk>, m: &DlrmModel) -> LazyRestore {
        chunks.sort_by(|a, b| (a.level, &a.key).cmp(&(b.level, &b.key)));
        let mut applied_rank: Vec<Vec<u32>> =
            m.tables().iter().map(|t| vec![0; t.rows()]).collect();
        for (i, chunk) in chunks.iter_mut().enumerate() {
            chunk.rank = i as u32 + 1;
            if chunk.cold.is_none() {
                for &row in &chunk.header.row_indices {
                    let stamp = &mut applied_rank[chunk.header.table as usize][row as usize];
                    *stamp = chunk.rank.max(*stamp);
                }
            }
        }
        let row_counts = m.config().row_counts();
        let geometry = TableMeta::for_model(m.config());
        let mut scratch = m.clone();
        let mut dest =
            Destination::new(scratch.table_views_mut(), &geometry, &mut applied_rank).unwrap();
        let pending = Pending::of(&chunks, &row_counts, &mut dest);
        drop(dest);
        LazyRestore::new(chunks, geometry, applied_rank, pending, workers)
    }

    #[test]
    fn cold_rows_are_pending_until_faulted_in() {
        let mut m = model();
        let lazy_chunks = vec![
            chunk(0, "a", 0, &[0, 1], 1.0, true),
            chunk(0, "b", 0, &[2, 3], 2.0, false),
        ];
        let mut lazy = lazy_of(lazy_chunks, &m);
        assert_eq!(lazy.pending_rows(), 2);
        assert!(lazy.is_materialized(0, 0) && lazy.is_materialized(0, 1));
        assert!(!lazy.is_materialized(0, 2));
        assert_eq!(lazy.pending_keys(), vec!["b".to_string()]);

        let bytes = lazy.fault_in(&mut m, 0, 2).unwrap();
        assert_eq!(bytes, 100, "per-row share of the 2-row chunk");
        assert!(lazy.is_materialized(0, 2));
        assert_eq!(m.tables()[0].row(2), &[2.0; 4]);
        // Re-faulting a live row is free: no bytes, no fetch.
        assert_eq!(lazy.fault_in(&mut m, 0, 2).unwrap(), 0);
    }

    #[test]
    fn fault_in_reads_the_cold_chunk_in_place() {
        let mut m = model();
        let rows: Vec<u32> = (0..8).collect();
        let mut lazy = lazy_of(vec![chunk(0, "cold", 0, &rows, 3.0, false)], &m);
        let before = lazy.cold[0].object.object().clone();
        lazy.fault_in(&mut m, 0, 5).unwrap();
        assert_eq!(m.tables()[0].row(5), &[3.0; 4]);
        assert_eq!(m.tables()[0].adagrad().unwrap()[5], 3.0);
        // The row was de-quantized out of the chunk's stored bytes where
        // they lie: same buffer, same contents, the other rows still
        // pending.
        assert_eq!(lazy.cold.len(), 1);
        assert!(std::ptr::eq(
            lazy.cold[0].object.object().as_ptr(),
            before.as_ptr()
        ));
        assert_eq!(lazy.cold[0].object.object(), &before);
        assert_eq!(lazy.pending_rows(), 7);
        assert_eq!(lazy.pending_keys(), vec!["cold".to_string()]);
    }

    #[test]
    fn older_cold_chunk_never_clobbers_newer_hot_data() {
        let mut m = model();
        // Level 0 cold covers row 1; level 1 hot (already placed) rewrote
        // it. The cold chunk is fully shadowed: nothing pending, and a
        // drain must not overwrite the hot value.
        m.tables_mut()[0].row_mut(1).copy_from_slice(&[9.0; 4]);
        let chunks = vec![
            chunk(0, "old", 0, &[1], 5.0, false),
            chunk(1, "new", 0, &[1], 9.0, true),
        ];
        let mut lazy = lazy_of(chunks, &m);
        assert_eq!(lazy.pending_rows(), 0, "shadowed cold chunk leaves rows final");
        assert!(lazy.pending_keys().is_empty());
        lazy.drain(&mut m).unwrap();
        assert_eq!(m.tables()[0].row(1), &[9.0; 4], "hot value survives the drain");
    }

    #[test]
    fn drain_applies_levels_then_deferred_deltas_in_order() {
        let mut m = model();
        let chunks = vec![
            chunk(0, "base", 0, &[0, 1], 1.0, false),
            chunk(1, "incr", 0, &[1], 2.0, false),
        ];
        let mut lazy = lazy_of(chunks, &m);
        assert_eq!(lazy.pending_rows(), 2);
        // Two deferred deltas for row 1: the later one must win.
        lazy.defer_delta(0, 1, vec![3.0; 4], Some(3.0));
        lazy.defer_delta(0, 1, vec![4.0; 4], Some(4.0));
        let outcome = lazy.drain(&mut m).unwrap();
        assert_eq!(outcome.rows_materialized, 2);
        assert!(lazy.is_drained());
        assert_eq!(m.tables()[0].row(0), &[1.0; 4], "level 0 value");
        assert_eq!(m.tables()[0].row(1), &[4.0; 4], "last deferred delta wins");
        assert_eq!(m.tables()[0].adagrad().unwrap()[1], 4.0);
        // Idempotent.
        let again = lazy.drain(&mut m).unwrap();
        assert_eq!(again, DrainOutcome::default());
    }

    /// Deferred deltas in two tables, one of their rows faulted in before
    /// the drain, the cold chunks placed on one, two or four workers: a
    /// row with deltas ends with its last one, a row without ends with its
    /// newest level, and only the rows still pending count as drained.
    #[test]
    fn drain_lands_deferred_deltas_of_every_table_on_any_worker_count() {
        for workers in [1, 2, 4] {
            let mut m = model();
            let chunks = vec![
                chunk(0, "a", 0, &[0, 1, 2, 3], 1.0, false),
                chunk(0, "b", 1, &[0, 1, 2], 2.0, false),
                chunk(1, "c", 0, &[2, 3], 3.0, false),
                chunk(1, "d", 1, &[400], 4.0, false),
            ];
            let mut lazy = lazy_on(workers, chunks, &m);
            assert_eq!(lazy.pending_rows(), 4 + 4);
            lazy.defer_delta(0, 3, vec![5.0; 4], Some(5.0));
            lazy.defer_delta(1, 1, vec![7.0; 4], Some(7.0));
            lazy.defer_delta(0, 3, vec![6.0; 4], Some(6.0));
            lazy.defer_delta(1, 400, vec![8.0; 4], Some(8.0));
            // Table 1's row 1 faults in first: its level, then its delta.
            assert_eq!(lazy.fault_in(&mut m, 1, 1).unwrap(), 100);
            assert_eq!(m.tables()[1].row(1), &[7.0; 4]);

            let outcome = lazy.drain(&mut m).unwrap();
            assert_eq!(outcome.rows_materialized, 4 + 4 - 1, "workers={workers}");
            assert!(lazy.is_drained() && lazy.pending_rows() == 0);
            let row = |t: usize, r: usize| {
                let table = &m.tables()[t];
                (table.row(r)[0], table.adagrad().unwrap()[r])
            };
            for (t, r, want) in [
                (0, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 3.0),
                (0, 3, 6.0),
                (1, 0, 2.0),
                (1, 1, 7.0),
                (1, 2, 2.0),
                (1, 400, 8.0),
            ] {
                assert_eq!(row(t, r), (want, want), "workers={workers}: table {t} row {r}");
            }
        }
    }

    /// The tail is placed into whatever model it is handed — and refuses,
    /// typed, one that does not have the restored checkpoint's geometry.
    #[test]
    fn a_model_of_another_shape_is_refused_typed() {
        let m = model();
        let mut lazy = lazy_of(vec![chunk(0, "cold", 0, &[2], 1.0, false)], &m);
        let mut other = DlrmModel::new(ModelConfig::for_dataset(&DatasetSpec::tiny(5), 8));
        assert!(matches!(
            lazy.fault_in(&mut other, 0, 2),
            Err(CnrError::ShapeMismatch(_))
        ));
        assert!(matches!(lazy.drain(&mut other), Err(CnrError::ShapeMismatch(_))));
    }

    /// A drain refused for the model's shape loses nothing: the tail is
    /// still pending, and a drain with the right model lands the cold
    /// chunk's values — not whatever the model held.
    #[test]
    fn a_refused_drain_keeps_the_tail() {
        let mut m = model();
        let mut lazy = lazy_of(vec![chunk(0, "cold", 0, &[2], 7.0, false)], &m);
        let mut other = DlrmModel::new(ModelConfig::for_dataset(&DatasetSpec::tiny(5), 8));
        assert!(matches!(lazy.drain(&mut other), Err(CnrError::ShapeMismatch(_))));
        assert_eq!(lazy.pending_rows(), 1);
        assert!(!lazy.is_drained());
        assert_eq!(lazy.pending_keys(), vec!["cold".to_string()]);

        let outcome = lazy.drain(&mut m).unwrap();
        assert_eq!(outcome.rows_materialized, 1);
        assert!(lazy.is_drained());
        assert_eq!(m.tables()[0].row(2), &[7.0; 4]);
        assert_eq!(m.tables()[0].adagrad().unwrap()[2], 7.0);
    }
}
