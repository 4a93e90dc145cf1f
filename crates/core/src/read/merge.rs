//! Where a restore's rows land, and the serial tail that closes it.
//!
//! Chunks of one manifest cover disjoint rows, so they can be fetched and
//! decoded in any order by any host; across the chain, later manifests
//! overwrite earlier ones. The serial [`crate::restore::restore`] gets that
//! by applying chunks in `(level, key)` order. Here every chunk carries its
//! position in that order (its *rank*, [`super::FetchItem::rank`]) and the
//! [`Destination`] keeps, per row, the rank of the chunk whose value the
//! row holds: a decode worker writes a row iff its chunk outranks the
//! row's stamp ([`land_row`] — the one place that rule is written).
//! Newest-wins therefore holds for any host count, worker count or arrival
//! order, each row's bytes are de-quantized straight into the table that
//! will train on them, and the result is bit-identical to the serial path.
//! A lazy restore is this restore stopped early: the chunks it held back
//! land later through the same [`Destination::place`] (the drain) or, one
//! row at a time, the same [`land_row`] (a fault-in), against the same
//! stamps.
//!
//! What cannot run on the workers stays here as the serial tail
//! ([`tally`], [`Destination::zero_unwritten`]): per-level completeness,
//! the union of incremental rows, and zeroing the rows no chunk wrote.

use super::shard_reader::DecodedChunk;
use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointKind, Manifest, OpenedChunk, TableMeta};
use cnr_model::TableViewMut;
use cnr_quant::codec::decode_body_to;
use cnr_tracking::TrackerSnapshot;
use std::sync::Mutex;

/// Rows per lock stripe. A worker holds one stripe's lock while it writes
/// the run of its chunk's rows that fall inside it, so a full chunk takes a
/// handful of locks and two workers contend only where their chunks name
/// the same thousand rows.
const STRIPE_ROWS: usize = 1024;

/// One stripe of one table: up to [`STRIPE_ROWS`] consecutive rows.
struct Stripe<'a> {
    data: &'a mut [f32],
    adagrad: Option<&'a mut [f32]>,
    /// Per row: rank of the chunk whose value the row holds (0 = none).
    rank: &'a mut [u32],
}

struct DestTable<'a> {
    rows: usize,
    dim: usize,
    has_optimizer_state: bool,
    stripes: Vec<Mutex<Stripe<'a>>>,
}

/// The tables a restore writes into — the caller's memory, lent for the
/// duration of the restore — with the per-row rank stamps that order
/// concurrent writers.
pub(crate) struct Destination<'a> {
    tables: Vec<DestTable<'a>>,
}

fn poisoned<T>(_: T) -> CnrError {
    CnrError::Pipeline("a decode worker panicked while writing the restore destination".into())
}

/// De-quantizes row `k` of `chunk` into `row` (and its accumulator into
/// `acc`) iff the chunk, ranked `rank`, outranks the row's `stamp` — the
/// newest-wins rule, written once. Every stored row that reaches a table
/// through the sharded restore gets there through this function: a hot
/// chunk's and a drained cold chunk's via [`Destination::place`], a
/// faulted-in row directly. `row` must be `chunk.header.rows.dim` long
/// ([`Destination::check`] is what establishes that). Returns whether the
/// row was written.
pub(crate) fn land_row(
    chunk: OpenedChunk<'_>,
    k: usize,
    rank: u32,
    stamp: &mut u32,
    row: &mut [f32],
    acc: Option<&mut f32>,
) -> Result<bool> {
    if rank <= *stamp {
        return Ok(false);
    }
    let ctx = chunk.header.rows;
    decode_body_to(&mut chunk.body(k), ctx.tag, ctx.bits, row)?;
    if let (Some(acc), Some(src)) = (acc, &chunk.header.optimizer_state) {
        *acc = src[k];
    }
    *stamp = rank;
    Ok(true)
}

impl<'a> Destination<'a> {
    /// Wraps `views` (one per entry of `geometry`, in table order) and the
    /// rank stamps `applied_rank` (one `Vec` per table, one entry per row:
    /// zeroed for a fresh restore, as the hot set left them for a lazy
    /// restore's drain). The views must have exactly the geometry the
    /// checkpoint records: a restore into the wrong architecture fails
    /// typed before anything is written.
    pub(crate) fn new(
        views: Vec<TableViewMut<'a>>,
        geometry: &[TableMeta],
        applied_rank: &'a mut [Vec<u32>],
    ) -> Result<Self> {
        if views.len() != geometry.len() || applied_rank.len() != views.len() {
            return Err(CnrError::ShapeMismatch(format!(
                "checkpoint has {} tables, destination has {}",
                geometry.len(),
                views.len()
            )));
        }
        let mut tables = Vec::with_capacity(views.len());
        for (t, ((view, meta), rank)) in views
            .into_iter()
            .zip(geometry)
            .zip(applied_rank)
            .enumerate()
        {
            let (rows, dim) = (meta.rows as usize, meta.dim as usize);
            let acc_rows = view.adagrad.as_ref().map(|a| a.len());
            if dim == 0
                || view.data.len() != rows * dim
                || acc_rows != meta.has_optimizer_state.then_some(rows)
                || rank.len() != rows
            {
                return Err(CnrError::ShapeMismatch(format!(
                    "table {t}: checkpoint {rows}x{dim} (optimizer state: {}), destination \
                     holds {} values and {acc_rows:?} accumulators",
                    meta.has_optimizer_state,
                    view.data.len(),
                )));
            }
            let mut acc_stripes = view.adagrad.map(|a| a.chunks_mut(STRIPE_ROWS));
            let stripes = view
                .data
                .chunks_mut(STRIPE_ROWS * dim)
                .zip(rank.chunks_mut(STRIPE_ROWS))
                .map(|(data, rank)| {
                    Mutex::new(Stripe {
                        data,
                        adagrad: acc_stripes.as_mut().and_then(Iterator::next),
                        rank,
                    })
                })
                .collect();
            tables.push(DestTable {
                rows,
                dim,
                has_optimizer_state: meta.has_optimizer_state,
                stripes,
            });
        }
        Ok(Self { tables })
    }

    /// Checks an opened chunk against the destination's geometry: its
    /// table exists and, unless the chunk is empty, its rows have the
    /// table's dimension and optimizer state and its row indices are
    /// distinct, ascending and inside the table. Every chunk of a restore
    /// passes through here where it enters — placed or held back — so
    /// nothing downstream has to ask again. (That the frame holds a whole
    /// body for every row is [`crate::manifest::open_frame`]'s check: a
    /// held-back chunk with a malformed row fails the restore, not a later
    /// fault-in.)
    pub(crate) fn check(&self, chunk: OpenedChunk<'_>, key: &str) -> Result<()> {
        let chunk = chunk.header;
        let t = chunk.table as usize;
        let table = self.tables.get(t).ok_or_else(|| {
            CnrError::Corrupt(format!("chunk {key} references table {t} beyond model"))
        })?;
        let rows = &chunk.row_indices;
        let Some(&last) = rows.last() else {
            return Ok(());
        };
        if chunk.rows.dim as usize != table.dim {
            return Err(CnrError::Corrupt(format!(
                "chunk {key} rows decode to {} values, expected {}",
                chunk.rows.dim, table.dim
            )));
        }
        if chunk.optimizer_state.is_some() != table.has_optimizer_state {
            return Err(CnrError::Corrupt(format!(
                "chunk {key} optimizer state does not match table {t}"
            )));
        }
        // Distinct ascending indices are what make "outranks the stamp"
        // the same as the serial path's "last write wins" (and what a
        // fault-in's binary search relies on).
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            return Err(CnrError::Corrupt(format!(
                "chunk {key} row indices are not ascending"
            )));
        }
        if last as usize >= table.rows {
            return Err(CnrError::Corrupt(format!(
                "chunk row {last} beyond table {t}"
            )));
        }
        Ok(())
    }

    /// De-quantizes the rows of `chunk` (frame checksum already verified
    /// by [`crate::manifest::open_frame`]) straight into the destination,
    /// leaving alone every row a higher-ranked chunk has already written.
    /// The chunk is [checked](Self::check) before the first row is written.
    pub(crate) fn place(&self, chunk: OpenedChunk<'_>, rank: u32, key: &str) -> Result<()> {
        self.check(chunk, key)?;
        let table = &self.tables[chunk.header.table as usize];
        let (rows, dim) = (&chunk.header.row_indices, table.dim);
        let mut k = 0;
        while k < rows.len() {
            let s = rows[k] as usize / STRIPE_ROWS;
            let mut stripe = table.stripes[s].lock().map_err(poisoned)?;
            let Stripe {
                data,
                adagrad,
                rank: stamps,
            } = &mut *stripe;
            while k < rows.len() && rows[k] as usize / STRIPE_ROWS == s {
                let local = rows[k] as usize % STRIPE_ROWS;
                land_row(
                    chunk,
                    k,
                    rank,
                    &mut stamps[local],
                    &mut data[local * dim..(local + 1) * dim],
                    adagrad.as_deref_mut().map(|acc| &mut acc[local]),
                )?;
                k += 1;
            }
        }
        Ok(())
    }

    /// Zeroes every row no placed chunk wrote, so a destination that held
    /// stale weights is indistinguishable from a fresh one: a row either
    /// carries its checkpoint value or, like a lazy restore's cold row
    /// before it materializes, zero.
    pub(crate) fn zero_unwritten(self) -> Result<()> {
        for table in self.tables {
            for stripe in table.stripes {
                let Stripe {
                    data,
                    mut adagrad,
                    rank,
                } = stripe.into_inner().map_err(poisoned)?;
                // Whole runs at a time: after a lazy restore most stripes
                // are one run, and a stripe-sized fill is a `memset`.
                let mut local = 0;
                while local < rank.len() {
                    let run = rank[local..].iter().take_while(|&&r| r == 0).count();
                    data[local * table.dim..(local + run) * table.dim].fill(0.0);
                    if let Some(acc) = &mut adagrad {
                        acc[local..local + run].fill(0.0);
                    }
                    local += run + 1;
                }
            }
        }
        Ok(())
    }
}

/// What the serial tail learns from the fetched chunks.
pub(crate) struct Tally {
    /// Rows written while applying the chain (with overwrite multiplicity):
    /// the rows of every placed chunk.
    pub rows_applied: u64,
    /// Union of rows covered by the incremental checkpoints in the chain —
    /// cold chunks included, the tracker must know about those too.
    pub incremental_rows: TrackerSnapshot,
}

/// Checks that `decoded` (from any host, in any order) is exactly the
/// chunks `chain` (oldest manifest first) names — a lost chunk fails the
/// restore rather than leaving its rows zero — and folds the report
/// ingredients that depend on chunk contents. The chunks themselves were
/// [checked](Destination::check) by the readers.
pub(crate) fn tally(chain: &[Manifest], decoded: &[DecodedChunk]) -> Result<Tally> {
    let newest = chain.last().expect("chain is never empty");

    let mut per_level = vec![0usize; chain.len()];
    for d in decoded {
        *per_level.get_mut(d.level).ok_or_else(|| {
            CnrError::Corrupt(format!(
                "decoded chunk {} references chain level {} of {}",
                d.key,
                d.level,
                chain.len()
            ))
        })? += 1;
    }
    for (manifest, received) in chain.iter().zip(per_level) {
        if received != manifest.chunks.len() {
            return Err(CnrError::Corrupt(format!(
                "manifest {} expects {} chunks, merge received {received}",
                manifest.id,
                manifest.chunks.len(),
            )));
        }
    }

    let row_counts: Vec<usize> = newest.tables.iter().map(|t| t.rows as usize).collect();
    let mut incremental_rows = TrackerSnapshot::empty(&row_counts);
    let mut rows_applied = 0u64;
    for chunk in decoded {
        let header = &chunk.header;
        if chunk.cold.is_none() {
            rows_applied += header.row_indices.len() as u64;
        }
        if chain[chunk.level].kind == CheckpointKind::Incremental {
            for &row in &header.row_indices {
                incremental_rows.tables[header.table as usize].set(row as usize);
            }
        }
    }
    Ok(Tally {
        rows_applied,
        incremental_rows,
    })
}
