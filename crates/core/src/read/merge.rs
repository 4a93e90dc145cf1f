//! The merge stage: assembling decoded chunks into model state.
//!
//! Chunks of one manifest cover disjoint rows, so they can be fetched and
//! decoded in any order by any host; across the chain, later manifests
//! overwrite earlier ones. The merge therefore groups decoded chunks by
//! chain level and applies the levels oldest-first, sorting within a level
//! by chunk key (keys embed writer shard + sequence, zero-padded) — which
//! reproduces the serial restore's application order exactly, making the
//! sharded restore bit-identical to [`crate::restore::restore`].

use super::shard_reader::DecodedChunk;
use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointKind, Manifest};
use cnr_model::state::TableState;
use cnr_tracking::TrackerSnapshot;

/// What the merge produced: the restore-report ingredients that depend on
/// chunk contents.
pub struct MergedState {
    /// Reconstructed embedding tables (MLPs come from the newest manifest).
    pub tables: Vec<TableState>,
    /// Rows written while applying the chain (with overwrite multiplicity).
    pub rows_applied: u64,
    /// Union of rows covered by the incremental checkpoints in the chain.
    pub incremental_rows: TrackerSnapshot,
}

/// Merges `decoded` chunks (from any host, in any order) into a fresh
/// state template described by `chain` (oldest manifest first).
///
/// Verifies completeness: every manifest's chunk count must be matched by
/// the decoded chunks of its level — a lost chunk fails the restore rather
/// than silently zero-filling rows.
pub fn merge(chain: &[Manifest], decoded: &mut [DecodedChunk]) -> Result<MergedState> {
    merge_where(chain, decoded, |_| true)
}

/// [`merge`] with a row-application filter: every decoded chunk still
/// participates in the completeness check and the incremental-row union
/// (the tracker must know about cold incremental rows too), but embedding
/// values and optimizer state are written only for chunks where
/// `apply_values` returns true. A lazy restore merges hot chunks eagerly
/// and leaves cold chunks to materialize later (fault-in or background
/// drain); rows of filtered-out chunks stay at the zero template.
///
/// The chunks are borrowed (and left sorted in application order), so the
/// caller can hand the cold ones on to a [`super::LazyRestore`] without a
/// copy.
pub fn merge_where(
    chain: &[Manifest],
    decoded: &mut [DecodedChunk],
    apply_values: impl Fn(&DecodedChunk) -> bool,
) -> Result<MergedState> {
    let newest = chain.last().expect("chain is never empty");

    // Completeness: group counts per level before consuming.
    let mut per_level = vec![0usize; chain.len()];
    for d in decoded.iter() {
        if d.level >= chain.len() {
            return Err(CnrError::Corrupt(format!(
                "decoded chunk {} references chain level {} of {}",
                d.key,
                d.level,
                chain.len()
            )));
        }
        per_level[d.level] += 1;
    }
    for (level, manifest) in chain.iter().enumerate() {
        if per_level[level] != manifest.chunks.len() {
            return Err(CnrError::Corrupt(format!(
                "manifest {} expects {} chunks, merge received {}",
                manifest.id,
                manifest.chunks.len(),
                per_level[level]
            )));
        }
    }

    // Serial application order: levels oldest-first, keys within a level.
    decoded.sort_by(|a, b| (a.level, &a.key).cmp(&(b.level, &b.key)));

    let mut tables: Vec<TableState> = newest
        .tables
        .iter()
        .map(|t| TableState {
            data: vec![0.0; (t.rows * t.dim as u64) as usize],
            adagrad: t.has_optimizer_state.then(|| vec![0.0; t.rows as usize]),
        })
        .collect();
    let row_counts: Vec<usize> = newest.tables.iter().map(|t| t.rows as usize).collect();
    let mut incremental_rows = TrackerSnapshot::empty(&row_counts);
    let mut rows_applied = 0u64;

    for chunk in decoded.iter() {
        let t = chunk.table as usize;
        if t >= tables.len() {
            return Err(CnrError::Corrupt(format!(
                "chunk references table {t} beyond model"
            )));
        }
        let dim = newest.tables[t].dim as usize;
        let kind = chain[chunk.level].kind;
        let table = &mut tables[t];
        if chunk.values.len() != chunk.row_indices.len() * chunk.dim {
            return Err(CnrError::Corrupt(format!(
                "chunk {} decoded {} values for {} rows of {}",
                chunk.key,
                chunk.values.len(),
                chunk.row_indices.len(),
                chunk.dim
            )));
        }
        if chunk.dim != dim && !chunk.row_indices.is_empty() {
            return Err(CnrError::Corrupt(format!(
                "chunk {} rows decoded to {} values, expected {dim}",
                chunk.key, chunk.dim
            )));
        }
        let apply = apply_values(chunk);
        for (i, &row_idx) in chunk.row_indices.iter().enumerate() {
            let r = row_idx as usize;
            if (r + 1) * dim > table.data.len() {
                return Err(CnrError::Corrupt(format!(
                    "chunk row {row_idx} beyond table {t}"
                )));
            }
            if kind == CheckpointKind::Incremental {
                incremental_rows.tables[t].set(r);
            }
            if !apply {
                continue;
            }
            table.data[r * dim..(r + 1) * dim].copy_from_slice(chunk.row(i));
            if let (Some(acc), Some(src)) = (&mut table.adagrad, &chunk.optimizer_state) {
                acc[r] = src[i];
            }
            rows_applied += 1;
        }
    }

    Ok(MergedState {
        tables,
        rows_applied,
        incremental_rows,
    })
}
