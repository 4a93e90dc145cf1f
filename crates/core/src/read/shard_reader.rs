//! Per-host shard readers — the read-side mirror of
//! [`crate::write::shard_writer`].
//!
//! A [`ShardReader`] is one reader host's side of a restore: it streams a
//! chunk through the [`FetchScheduler`](super::scheduler::FetchScheduler)
//! over the host's own downlink and decodes + de-quantizes it as it
//! arrives, so CPU decode overlaps the (simulated) network fetch of the
//! next chunk. A host can also be *killed* mid-restore (failure
//! injection): it abandons the chunk it was fetching, and the coordinator
//! ([`crate::hosts`]) re-shards every chunk it never read onto the
//! surviving hosts — the exact mirror of the write path's mid-upload host
//! death.

use super::planner::FetchItem;
use super::scheduler::FetchScheduler;
use crate::error::Result;
use crate::manifest::FlatChunk;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One chunk, fetched, decoded, and de-quantized, ready to merge.
#[derive(Debug, Clone)]
pub struct DecodedChunk {
    /// Position of the owning manifest in the restore chain.
    pub level: usize,
    /// Object key (embeds writer shard + sequence: sorting decoded chunks
    /// by `(level, key)` reproduces the serial application order).
    pub key: String,
    /// Table the rows belong to.
    pub table: u16,
    /// Row indices within the table.
    pub row_indices: Vec<u32>,
    /// De-quantized row values, flat row-major: row `k` of `row_indices`
    /// is `values[k * dim..(k + 1) * dim]` ([`DecodedChunk::row`]).
    pub values: Vec<f32>,
    /// Elements per row of `values`.
    pub dim: usize,
    /// Row-wise optimizer accumulators, when the table carries them.
    pub optimizer_state: Option<Vec<f32>>,
    /// Serialized chunk size (bytes fetched).
    pub bytes: u64,
    /// Simulated time at which the chunk's last range landed. A lazy
    /// restore stamps first-batch time as the latest arrival among hot
    /// chunks.
    pub arrived_at: std::time::Duration,
    /// Whether the planner required this chunk before first batch
    /// ([`FetchItem::hot`]).
    pub hot: bool,
}

impl DecodedChunk {
    /// De-quantized values of the chunk's `k`-th row.
    pub fn row(&self, k: usize) -> &[f32] {
        &self.values[k * self.dim..(k + 1) * self.dim]
    }
}

/// Executes chunk downloads for one restore on behalf of any host.
pub(crate) struct ShardReader<'a> {
    pub(crate) scheduler: &'a FetchScheduler<'a>,
    /// Wall-clock nanoseconds spent decoding + de-quantizing, shared across
    /// shards.
    pub(crate) decode_nanos: &'a AtomicU64,
}

impl ShardReader<'_> {
    /// Fetches, decodes, and de-quantizes one chunk.
    pub(crate) fn read_one(&self, host: u16, item: &FetchItem) -> Result<DecodedChunk> {
        // The scheduler verified the envelope; decoding checks the frame.
        let (object, arrived_at) = self
            .scheduler
            .fetch_chunk(host, &item.key, item.bytes, item.parts)?;
        let t0 = Instant::now();
        let chunk = FlatChunk::decode_verified(&object)?;
        self.decode_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(DecodedChunk {
            level: item.level,
            key: item.key.clone(),
            table: chunk.table,
            row_indices: chunk.row_indices,
            values: chunk.values,
            dim: chunk.dim,
            optimizer_state: chunk.optimizer_state,
            bytes: object.object().len() as u64,
            arrived_at,
            hot: item.hot,
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
