//! Per-host shard readers — the read-side mirror of
//! [`crate::write::shard_writer`].
//!
//! A [`ShardReader`] is one reader host's side of a restore: it streams a
//! chunk through the [`FetchScheduler`](super::scheduler::FetchScheduler)
//! over the host's own downlink and de-quantizes it as it arrives —
//! straight into the restore's destination tables
//! (`merge::Destination`) — so CPU decode overlaps the
//! (simulated) network fetch of the next chunk. A host can also be
//! *killed* mid-restore (failure injection): it abandons the chunk it was
//! fetching, and the coordinator ([`crate::hosts`]) re-shards every chunk
//! it never read onto the surviving hosts — the exact mirror of the write
//! path's mid-upload host death.

use super::merge::Destination;
use super::planner::FetchItem;
use super::scheduler::FetchScheduler;
use crate::error::Result;
use crate::manifest::{open_frame, FlatChunk};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One chunk a reader host is done with: fetched, verified, and either
/// *placed* — its rows de-quantized straight into the restore's
/// destination tables — or, for a lazy restore's cold chunk, decoded and
/// held back ([`DecodedChunk::cold`]).
#[derive(Debug, Clone)]
pub struct DecodedChunk {
    /// Position of the owning manifest in the restore chain.
    pub level: usize,
    /// The chunk's place in the serial `(level, key)` application order
    /// ([`FetchItem::rank`]).
    pub rank: u32,
    /// Object key.
    pub key: String,
    /// Table the rows belong to.
    pub table: u16,
    /// Row indices within the table, ascending.
    pub row_indices: Vec<u32>,
    /// The rows' values, for a chunk that was *not* placed: a lazy restore
    /// keeps its cold chunks decoded until a fault-in or the drain writes
    /// them. `None` for a placed chunk — its values exist only in the
    /// destination.
    pub cold: Option<ColdRows>,
    /// Serialized chunk size (bytes fetched).
    pub bytes: u64,
    /// Simulated time at which the chunk's last range landed. A lazy
    /// restore stamps first-batch time as the latest arrival among placed
    /// chunks.
    pub arrived_at: std::time::Duration,
}

/// De-quantized rows of a chunk that is waiting to be applied.
#[derive(Debug, Clone)]
pub struct ColdRows {
    /// Flat row-major values: row `k` of the chunk's `row_indices` is
    /// `values[k * dim..(k + 1) * dim]`.
    pub values: Vec<f32>,
    /// Elements per row of `values`.
    pub dim: usize,
    /// Row-wise optimizer accumulators, when the table carries them.
    pub optimizer_state: Option<Vec<f32>>,
}

/// Executes chunk downloads for one restore on behalf of any host.
pub(crate) struct ShardReader<'a, 'd> {
    pub(crate) scheduler: &'a FetchScheduler<'a>,
    /// Where hot chunks' rows are written as they are decoded.
    pub(crate) dest: &'a Destination<'d>,
    /// Wall-clock nanoseconds spent decoding + de-quantizing (row
    /// placement included), shared across shards.
    pub(crate) decode_nanos: &'a AtomicU64,
}

impl ShardReader<'_, '_> {
    /// Fetches and verifies one chunk, then de-quantizes it: a hot chunk
    /// row by row into the destination, a cold one into a buffer of its
    /// own.
    pub(crate) fn read_one(&self, host: u16, item: &FetchItem) -> Result<DecodedChunk> {
        // The scheduler verified the envelope; opening checks the frame —
        // both before any row is written.
        let (object, arrived_at) = self
            .scheduler
            .fetch_chunk(host, &item.key, item.bytes, item.parts)?;
        let t0 = Instant::now();
        let opened = open_frame(object.payload())?;
        let (table, row_indices, cold) = if item.hot {
            self.dest.place(&opened, item.rank, &item.key)?;
            (opened.table, opened.row_indices, None)
        } else {
            self.dest.check(&opened, &item.key)?;
            let flat = FlatChunk::from_opened(opened)?;
            let cold = ColdRows {
                values: flat.values,
                dim: flat.dim,
                optimizer_state: flat.optimizer_state,
            };
            (flat.table, flat.row_indices, Some(cold))
        };
        self.decode_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(DecodedChunk {
            level: item.level,
            rank: item.rank,
            key: item.key.clone(),
            table,
            row_indices,
            cold,
            bytes: object.object().len() as u64,
            arrived_at,
        })
    }

    /// Simulates the host dying partway through fetching `item`: the first
    /// range of the chunk transfers (downlink bandwidth really spent) and
    /// the rest is abandoned.
    pub(crate) fn die_mid_fetch(&self, host: u16, item: &FetchItem) -> Result<()> {
        let first = item.bytes.div_ceil(item.parts.max(1) as u64).min(item.bytes);
        // Best-effort: a dying host cannot guarantee its read landed.
        let _ = self.scheduler.store().get_part(
            &item.key,
            0,
            first,
            host as u32,
            std::time::Duration::ZERO,
        );
        Ok(())
    }
}
