//! Per-host shard readers — the read-side mirror of
//! [`crate::write::shard_writer`].
//!
//! A [`ShardReader`] executes one reader host's share of a restore: it
//! streams the host's assigned chunks through the
//! [`FetchScheduler`](super::scheduler::FetchScheduler) over the host's own
//! downlink and decodes + de-quantizes each as it arrives, so CPU decode
//! overlaps the (simulated) network fetch of the next chunk. A host can
//! also be *killed* mid-restore (failure injection): it abandons the chunk
//! it was fetching and reports every chunk it never read, so the
//! coordinator can re-shard that work onto the surviving hosts — the exact
//! mirror of the write path's mid-upload host death.

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

/// What one host's fetch pass produced.
pub struct ReadOutcome {
    /// Reader host index.
    pub host: u16,
    /// Chunks fetched and decoded, in assignment order.
    pub decoded: Vec<DecodedChunk>,
    /// Whether the host was killed mid-restore.
    pub killed: bool,
    /// Items the killed host never read (empty for healthy hosts); the
    /// abandoned in-flight chunk is included.
    pub unread: Vec<FetchItem>,
}

/// Executes one host's chunk downloads for one restore.
pub struct ShardReader<'a> {
    pub(crate) scheduler: &'a FetchScheduler<'a>,
    /// Wall-clock nanoseconds spent decoding + de-quantizing, shared across
    /// shards.
    pub(crate) decode_nanos: &'a AtomicU64,
}

impl ShardReader<'_> {
    /// Runs host `host` over its assigned `items` on up to `threads`
    /// decode threads. `kill_after` injects a host death after that many
    /// completed chunks (the next chunk's fetch is abandoned mid-transfer);
    /// kill injection forces the sequential path so the death point is
    /// deterministic.
    pub fn run(
        &self,
        host: u16,
        items: Vec<FetchItem>,
        kill_after: Option<u32>,
        threads: usize,
    ) -> Result<ReadOutcome> {
        if threads > 1 && kill_after.is_none() && items.len() > 1 {
            return self.run_parallel(host, items, threads);
        }
        let mut outcome = ReadOutcome {
            host,
            decoded: Vec::with_capacity(items.len()),
            killed: false,
            unread: Vec::new(),
        };
        let mut iter = items.into_iter();
        let mut completed = 0u32;
        while let Some(item) = iter.next() {
            if kill_after == Some(completed) {
                self.die_mid_fetch(host, &item);
                outcome.killed = true;
                outcome.unread.push(item);
                outcome.unread.extend(iter);
                return Ok(outcome);
            }
            outcome.decoded.push(self.read_one(host, &item)?);
            completed += 1;
        }
        Ok(outcome)
    }

    /// Chunk-level pipeline within one host: `threads` workers pull items
    /// from a queue, fetch, and decode. Decoded chunks are re-sorted into
    /// assignment order, so the outcome is identical to the sequential
    /// path.
    fn run_parallel(
        &self,
        host: u16,
        items: Vec<FetchItem>,
        threads: usize,
    ) -> Result<ReadOutcome> {
        use crossbeam::channel;
        let capacity = items.len();
        let (work_tx, work_rx) = channel::unbounded::<(usize, FetchItem)>();
        for indexed in items.into_iter().enumerate() {
            work_tx.send(indexed).expect("receiver alive");
        }
        drop(work_tx);
        // Unbounded: drained only after the scope joins.
        let (out_tx, out_rx) = channel::unbounded::<Result<(usize, DecodedChunk)>>();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(capacity) {
                let work_rx = work_rx.clone();
                let out_tx = out_tx.clone();
                scope.spawn(move || {
                    while let Ok((idx, item)) = work_rx.recv() {
                        let result = self.read_one(host, &item).map(|d| (idx, d));
                        if out_tx.send(result).is_err() {
                            return; // collector gone; abort quietly
                        }
                    }
                });
            }
        });
        drop(out_tx);
        let mut decoded: Vec<(usize, DecodedChunk)> = Vec::with_capacity(capacity);
        for result in out_rx.iter() {
            decoded.push(result?);
        }
        decoded.sort_by_key(|(idx, _)| *idx);
        Ok(ReadOutcome {
            host,
            decoded: decoded.into_iter().map(|(_, d)| d).collect(),
            killed: false,
            unread: Vec::new(),
        })
    }

    /// Fetches, decodes, and de-quantizes one chunk.
    fn read_one(&self, host: u16, item: &FetchItem) -> Result<DecodedChunk> {
        // Plan ranges from the stored object's actual size, not the
        // manifest's recorded bytes: a scrub that upgraded a legacy chunk
        // to the enveloped format in place grew it by the header, and a
        // range plan built from the stale size would truncate the read.
        // (A missing object falls through to the fetch's own error path.)
        let size = self
            .scheduler
            .store()
            .head(&item.key)
            .map(|m| m.size)
            .unwrap_or(item.bytes);
        let (bytes, arrived_at) = self
            .scheduler
            .fetch_chunk(host, &item.key, size, item.parts)?;
        let t0 = Instant::now();
        let chunk = FlatChunk::decode(&bytes)?;
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
            bytes: bytes.len() as u64,
            arrived_at,
            hot: item.hot,
        })
    }

    /// Simulates the host dying partway through fetching `item`: the first
    /// range of the chunk transfers (downlink bandwidth really spent) and
    /// the rest is abandoned.
    fn die_mid_fetch(&self, host: u16, item: &FetchItem) {
        let first = item.bytes.div_ceil(item.parts.max(1) as u64).min(item.bytes);
        // Best-effort: a dying host cannot guarantee its read landed.
        let _ = self.scheduler.store().get_part(
            &item.key,
            0,
            first,
            host as u32,
            std::time::Duration::ZERO,
        );
    }
}
