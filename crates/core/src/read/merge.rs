//! Where a restore's rows land, and the serial tail that closes it.
//!
//! Chunks of one manifest cover disjoint rows, so they can be fetched and
//! decoded in any order by any host; across the chain, later manifests
//! overwrite earlier ones. The serial [`crate::restore::restore`] gets that
//! by applying chunks in `(level, key)` order. Here every chunk carries its
//! position in that order (its *rank*, [`super::FetchItem::rank`]) and the
//! [`Destination`] keeps, per row, the rank of the chunk whose value the
//! row holds: a decode worker writes a row iff its chunk outranks the
//! row's stamp ([`land_rows`] — the one place that rule is written).
//! Newest-wins therefore holds for any host count, worker count or arrival
//! order, each row's bytes are de-quantized straight into the table that
//! will train on them, and the result is bit-identical to the serial path.
//!
//! Arrival order decides only how much is decoded. The stamp is checked
//! before a row is de-quantized, so a chunk that arrives after a newer one
//! naming the same row skips it for free. Every reader host therefore
//! reads its chunks newest level first ([`super::planner::plan_priority`])
//! and the drain places its cold chunks newest rank first: with one host
//! and one worker each row is decoded once, where the serial path decodes
//! it once per level naming it.
//!
//! A chunk lands a stripe at a time. Its row encoding was resolved once,
//! when its frame was opened (the header's `RowDecoder`); [`land_rows`]
//! walks the chunk's rows inside the stripe, checks each one's stamp, skips
//! a shadowed body by arithmetic (`k × body_len`) and hands every run of
//! consecutive rows it does write to that decoder's one loop — a run of
//! fp32 rows is a single pass over its bytes.
//!
//! A lazy restore is this restore stopped early: the chunks it held back
//! land later through the same [`Destination::place`] (the drain) or, one
//! row at a time, the same [`land_rows`] over a one-row stripe (a
//! fault-in), against the same stamps. Until then their rows are *stale*:
//! they hold whatever the destination held.
//!
//! What cannot run on the workers stays here as the serial tail
//! ([`tally`], [`Destination::zero_unwritten`]): per-level completeness,
//! the union of incremental rows, and zeroing the rows no chunk names.

use super::shard_reader::DecodedChunk;
use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointKind, Manifest, OpenedChunk, TableMeta};
use cnr_model::TableViewMut;
use cnr_tracking::TrackerSnapshot;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Rows per lock stripe. A worker holds one stripe's lock while it writes
/// the run of its chunk's rows that fall inside it, so a full chunk takes a
/// handful of locks and two workers contend only where their chunks name
/// the same thousand rows.
const STRIPE_ROWS: usize = 1024;

/// Consecutive rows of one table, as one writer holds them: up to
/// [`STRIPE_ROWS`] of a destination's, or the one row a fault-in lands.
pub(super) struct Stripe<'a> {
    /// The table row `data`'s, `adagrad`'s and `rank`'s first entries
    /// belong to.
    pub first_row: usize,
    pub data: &'a mut [f32],
    pub adagrad: Option<&'a mut [f32]>,
    /// Per row: rank of the chunk whose value the row holds (0 = none).
    pub rank: &'a mut [u32],
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

/// Lands the rows `ks` of `chunk`, ranked `rank`, in `stripe`: each row
/// whose stamp the chunk outranks is de-quantized into its place (and its
/// accumulator copied) and stamped `rank`; every other row is left as it
/// is — the newest-wins rule, written once. Every stored row that reaches
/// a table through the sharded restore gets there through this function:
/// a hot chunk's, a replayed WAL record's and a drained cold chunk's via
/// [`Destination::place`], a faulted-in row over a one-row stripe. The rows `ks` name must lie in
/// the stripe and the chunk's rows must have the table's width and
/// optimizer state ([`Destination::check`] is what establishes that).
/// Returns the number of rows written.
pub(super) fn land_rows(
    chunk: OpenedChunk<'_>,
    ks: Range<usize>,
    rank: u32,
    stripe: &mut Stripe<'_>,
) -> usize {
    let header = chunk.header;
    let decoder = header.decoder;
    let (dim, body_len) = (decoder.dim(), decoder.body_len());
    let rows = &header.row_indices[ks.clone()];
    let acc_src = header.optimizer_state.as_deref().map(|acc| &acc[ks.clone()]);
    let bodies = chunk.bodies_of(ks);
    let Stripe {
        first_row,
        data,
        adagrad,
        rank: stamps,
    } = stripe;
    let local = |k: usize| rows[k] as usize - *first_row;
    // The rows not yet handed out, from row `next` of the stripe on.
    let mut rest: &mut [f32] = data;
    let mut next = 0;
    let mut landed = 0;
    let mut k = 0;
    let runs = std::iter::from_fn(|| {
        while k < rows.len() && rank <= stamps[local(k)] {
            k += 1;
        }
        if k == rows.len() {
            return None;
        }
        // A run: rows the chunk outranks, consecutive in the table.
        let (start, at) = (k, local(k));
        loop {
            let l = at + (k - start);
            stamps[l] = rank;
            if let (Some(dst), Some(src)) = (adagrad.as_deref_mut(), acc_src) {
                dst[l] = src[k];
            }
            k += 1;
            if k == rows.len() || local(k) != l + 1 || rank <= stamps[l + 1] {
                break;
            }
        }
        let n = k - start;
        let (_, tail) = std::mem::take(&mut rest).split_at_mut((at - next) * dim);
        let (out, tail) = tail.split_at_mut(n * dim);
        rest = tail;
        next = at + n;
        landed += n;
        Some((&bodies[start * body_len..k * body_len], out))
    });
    decoder.decode_runs(runs);
    landed
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
                .enumerate()
                .map(|(s, (data, rank))| {
                    Mutex::new(Stripe {
                        first_row: s * STRIPE_ROWS,
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
    /// table's dimension and optimizer state and its last row index is
    /// inside the table ([`crate::wire::get_indices`] decodes only strictly
    /// ascending lists, so the others are too). Every chunk of a restore
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
        // The indices ascend strictly by construction (the run coding has
        // no other list to express), which is what makes "outranks the
        // stamp" the same as the serial path's "last write wins" and what
        // a fault-in's binary search relies on: the last is the largest.
        if last as usize >= table.rows {
            return Err(CnrError::Corrupt(format!(
                "chunk row {last} beyond table {t}"
            )));
        }
        Ok(())
    }

    /// De-quantizes the rows of `chunk` (frame checksum already verified
    /// by [`crate::manifest::open_frame`]) straight into the destination,
    /// leaving alone every row a higher-ranked chunk has already written:
    /// one [`land_rows`] per stripe the chunk's rows fall in. The chunk is
    /// [checked](Self::check) before the first row is written. Returns the
    /// number of rows written.
    pub(crate) fn place(&self, chunk: OpenedChunk<'_>, rank: u32, key: &str) -> Result<u64> {
        self.check(chunk, key)?;
        let table = &self.tables[chunk.header.table as usize];
        let rows = &chunk.header.row_indices;
        let mut landed = 0;
        let mut k = 0;
        while k < rows.len() {
            let s = rows[k] as usize / STRIPE_ROWS;
            // Indices ascend, so the stripe's rows are the next few.
            let end = k + rows[k..].partition_point(|&row| row as usize / STRIPE_ROWS == s);
            let mut stripe = table.stripes[s].lock().map_err(poisoned)?;
            landed += land_rows(chunk, k..end, rank, &mut stripe) as u64;
            k = end;
        }
        Ok(landed)
    }

    /// Calls `visit(row, stamp)` for each of `rows` — ascending, inside
    /// table `table` (what [`Self::check`] establishes for a chunk's rows)
    /// — with the rank of the chunk whose value the row holds (0 = none):
    /// one stripe's stamps at a time, indexed flat within it. Takes no
    /// lock: `&mut self` means no worker is writing.
    pub(crate) fn for_each_stamp(
        &mut self,
        table: usize,
        rows: &[u32],
        mut visit: impl FnMut(u32, u32),
    ) {
        let stripes = &mut self.tables[table].stripes;
        let mut k = 0;
        while k < rows.len() {
            let s = rows[k] as usize / STRIPE_ROWS;
            let end = k + rows[k..].partition_point(|&row| row as usize / STRIPE_ROWS == s);
            let stripe = stripes[s].get_mut().unwrap_or_else(PoisonError::into_inner);
            let stamps = &stripe.rank[..];
            let first_row = stripe.first_row;
            for &row in &rows[k..end] {
                visit(row, stamps[row as usize - first_row]);
            }
            k = end;
        }
    }

    /// Zeroes every row no fetched chunk names, so a destination that held
    /// other weights is indistinguishable from a fresh one there. Nothing
    /// held back (`materialized` is `None`): every row no placed chunk
    /// wrote. Otherwise `materialized` says, per table and row, whether the
    /// row is final, and a row a held-back chunk still owes is left as it
    /// is — stale until a fault-in or the drain lands it, which would
    /// overwrite a zero anyway. One pass over each stripe's stamps.
    pub(crate) fn zero_unwritten(self, materialized: Option<&[Vec<bool>]>) -> Result<()> {
        for (t, table) in self.tables.into_iter().enumerate() {
            let materialized = materialized.map(|m| m[t].as_slice());
            for stripe in table.stripes {
                let Stripe {
                    first_row,
                    data,
                    mut adagrad,
                    rank,
                } = stripe.into_inner().map_err(poisoned)?;
                // A stamp of 0 means no placed chunk wrote the row; such a
                // row that is not final is a held-back chunk's.
                let zero = |local: usize| {
                    rank[local] == 0 && materialized.is_none_or(|m| m[first_row + local])
                };
                // Whole runs at a time: after an eager restore of a partial
                // chain most stripes are one run, and a stripe-sized fill
                // is a `memset`.
                let mut local = 0;
                while local < rank.len() {
                    if !zero(local) {
                        local += 1;
                        continue;
                    }
                    let start = local;
                    while local < rank.len() && zero(local) {
                        local += 1;
                    }
                    data[start * table.dim..local * table.dim].fill(0.0);
                    if let Some(acc) = &mut adagrad {
                        acc[start..local].fill(0.0);
                    }
                }
            }
        }
        Ok(())
    }
}

/// What the serial tail learns from the fetched chunks.
pub(crate) struct Tally {
    /// The rows every placed chunk names, with multiplicity — the serial
    /// oracle's count. Not the rows written: an older level's copy of a
    /// row that a newer one already wrote is skipped.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{open_frame, ChunkPayload};
    use cnr_model::state::TableState;
    use cnr_quant::codec::decode_body_to;
    use cnr_quant::QuantScheme;

    const ROWS: usize = 2 * STRIPE_ROWS;
    const DIM: usize = 5;

    /// A bare chunk frame of `rows` under `scheme`, each row's values (and
    /// accumulator) distinct per row and per `salt`.
    fn frame(rows: &[u32], scheme: &QuantScheme, with_acc: bool, salt: f32) -> Vec<u8> {
        let values = |r: u32| -> Vec<f32> {
            (0..DIM)
                .map(|j| ((r as usize * 7 + j * 3) % 11) as f32 * 0.1 - salt)
                .collect()
        };
        ChunkPayload {
            table: 0,
            row_indices: rows.to_vec(),
            optimizer_state: with_acc.then(|| rows.iter().map(|&r| r as f32 + salt).collect()),
            rows: rows.iter().map(|&r| scheme.quantize_row(&values(r))).collect(),
        }
        .encode()
    }

    /// The rule one row at a time: decode row `k` into its place iff the
    /// chunk outranks the row's stamp.
    fn land_per_row(frame: &[u8], rank: u32, table: &mut TableState, stamps: &mut [u32]) {
        let header = open_frame(frame).unwrap();
        let opened = header.over(frame);
        for (k, &row) in header.row_indices.iter().enumerate() {
            let r = row as usize;
            if rank <= stamps[r] {
                continue;
            }
            let ctx = header.rows;
            let out = &mut table.data[r * DIM..(r + 1) * DIM];
            decode_body_to(&mut opened.bodies_of(k..k + 1), ctx.tag, ctx.bits, out).unwrap();
            if let (Some(acc), Some(src)) = (&mut table.adagrad, &header.optimizer_state) {
                acc[r] = src[k];
            }
            stamps[r] = rank;
        }
    }

    /// Runs of landed rows broken every way they can be — by a row a newer
    /// chunk already wrote, by a gap in the indices, by a stripe boundary
    /// (rows 1022–1026) — land exactly what landing row by row lands:
    /// values, accumulators and stamps.
    #[test]
    fn runs_land_what_rows_land() {
        let boundary: Vec<u32> = (1000..1031).collect();
        let chunks: [(&[u32], u32); 4] = [
            (&boundary, 2),
            (&[5, 6, 8, 1022, 1023, 1024, 1025, 1026, 2040], 4),
            (&[6, 7, 1023, 1024, 2047], 1),
            (&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 3),
        ];
        let mut stamps = vec![0u32; ROWS];
        stamps[1024] = 3; // splits the rank-2 run at the boundary
        stamps[1025] = 5; // splits the rank-4 run after it
        stamps[7] = 6;
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Asymmetric { bits: 4 },
            QuantScheme::Asymmetric { bits: 3 },
            QuantScheme::recommended_for_bits(2),
        ] {
            for with_acc in [false, true] {
                let frames: Vec<(Vec<u8>, u32)> = chunks
                    .iter()
                    .enumerate()
                    .map(|(i, &(rows, rank))| (frame(rows, &scheme, with_acc, i as f32), rank))
                    .collect();
                let mut start = TableState::zeroed(ROWS, DIM, with_acc);
                start.data.fill(-9.0);
                if let Some(acc) = &mut start.adagrad {
                    acc.fill(-9.0);
                }

                let (mut want, mut want_stamps) = (start.clone(), stamps.clone());
                for (frame, rank) in &frames {
                    land_per_row(frame, *rank, &mut want, &mut want_stamps);
                }

                let mut got = start.clone();
                let mut got_stamps = vec![stamps.clone()];
                let meta = TableMeta {
                    rows: ROWS as u64,
                    dim: DIM as u16,
                    has_optimizer_state: with_acc,
                };
                let dest = Destination::new(vec![got.view_mut()], &[meta], &mut got_stamps).unwrap();
                for (frame, rank) in &frames {
                    let header = open_frame(frame).unwrap();
                    dest.place(header.over(frame), *rank, "chunk").unwrap();
                }
                drop(dest);

                let bits = |t: &TableState| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{scheme}, acc {with_acc}");
                assert_eq!(got.adagrad, want.adagrad, "{scheme}, acc {with_acc}");
                assert_eq!(got_stamps[0], want_stamps, "{scheme}, acc {with_acc}");
                assert_ne!(want_stamps, stamps, "something landed");
            }
        }
    }

    /// The zero step over a destination that held -9.0 everywhere, after
    /// one placed chunk: a row no chunk names is zeroed; a row only a
    /// held-back chunk names keeps the -9.0 it held (stale, not zero); a
    /// placed row keeps its value. With no held-back chunk, a lazy mask
    /// (every row final) zeroes exactly what the eager step zeroes.
    #[test]
    fn zero_step_leaves_the_rows_a_held_back_chunk_owes() {
        let placed: &[u32] = &[0, 1, 2, 1500];
        let owed = [3, 4, 1024];
        let hot = frame(placed, &QuantScheme::Fp32, true, 0.5);
        let meta = TableMeta {
            rows: ROWS as u64,
            dim: DIM as u16,
            has_optimizer_state: true,
        };
        let after_zero_step = |materialized: Option<&[Vec<bool>]>| {
            let mut table = TableState::zeroed(ROWS, DIM, true);
            table.data.fill(-9.0);
            table.adagrad.as_mut().unwrap().fill(-9.0);
            let mut stamps = vec![vec![0u32; ROWS]];
            let dest = Destination::new(vec![table.view_mut()], &[meta], &mut stamps).unwrap();
            dest.place(open_frame(&hot).unwrap().over(&hot), 1, "hot").unwrap();
            dest.zero_unwritten(materialized).unwrap();
            table
        };
        let row = |t: &TableState, r: usize| (t.data[r * DIM], t.adagrad.as_ref().unwrap()[r]);

        let eager = after_zero_step(None);
        let mut materialized = vec![vec![true; ROWS]];
        assert!(after_zero_step(Some(&materialized)) == eager, "no held-back chunk");
        for r in owed {
            materialized[0][r] = false;
        }
        let lazy = after_zero_step(Some(&materialized));
        for r in 0..ROWS {
            if placed.contains(&(r as u32)) {
                assert_eq!(row(&lazy, r), row(&eager, r), "row {r} was placed");
                assert_ne!(row(&lazy, r).0, 0.0, "row {r} was placed");
            } else if owed.contains(&r) {
                assert_eq!(row(&lazy, r), (-9.0, -9.0), "row {r} is owed: stale");
                assert_eq!(row(&eager, r), (0.0, 0.0));
            } else {
                assert_eq!(row(&lazy, r), (0.0, 0.0), "row {r} is named by no chunk");
            }
        }
    }
}
