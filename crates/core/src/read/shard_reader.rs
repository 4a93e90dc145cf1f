//! Per-host shard readers — the read-side mirror of
//! [`crate::write::shard_writer`].
//!
//! A [`ShardReader`] is one reader host's side of a restore: it streams a
//! chunk through the [`FetchScheduler`](super::scheduler::FetchScheduler)
//! over the host's own downlink and de-quantizes it as it arrives —
//! straight into the restore's destination tables
//! (`merge::Destination`) — so CPU decode overlaps the
//! (simulated) network fetch of the next chunk. A lazy restore's cold
//! chunk takes the same path up to the last step: it is verified, opened
//! and checked, and then kept as its frame instead of placed. A host can
//! also be *killed* mid-restore (failure injection): it abandons the chunk
//! it was fetching, and the coordinator ([`crate::hosts`]) re-shards every
//! chunk it never read onto the surviving hosts — the exact mirror of the
//! write path's mid-upload host death. The checkpoint's dense object comes
//! down exactly as a chunk does — verified, re-fetched when corrupt — and
//! is decoded against the newest manifest. A write-ahead log segment in a
//! host's list — or the prefix of it the plan reads — comes down the same
//! way and is handed back as fetched: the log's records are walked and
//! placed once every segment is in.

use super::merge::Destination;
use super::planner::{FetchItem, FetchKind};
use super::scheduler::FetchScheduler;
use crate::error::{CnrError, Result};
use crate::manifest::{open_frame, ChunkHeader, DenseLayers, Manifest};
use bytes::Bytes;
use cnr_storage::{envelope, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One chunk a reader host is done with: fetched, verified, opened and
/// checked against the destination, and either *placed* — its rows
/// de-quantized straight into the restore's destination tables — or, for a
/// lazy restore's cold chunk, held back as the frame that was fetched
/// ([`DecodedChunk::cold`]).
#[derive(Debug, Clone)]
pub(crate) struct DecodedChunk {
    /// Position of the owning manifest in the restore chain.
    pub level: usize,
    /// The chunk's place in the serial `(level, key)` application order
    /// ([`FetchItem::rank`]).
    pub rank: u32,
    /// Object key.
    pub key: String,
    /// The chunk's opened header: table, ascending row indices,
    /// accumulators, row encoding.
    pub header: ChunkHeader,
    /// The frame `header` was opened from — the verified object's payload,
    /// sharing its buffer — for a chunk that was *not* placed: a lazy
    /// restore keeps its cold chunks as fetched until a fault-in or the
    /// drain places their rows. `None` for a placed chunk: its values exist
    /// only in the destination.
    pub cold: Option<Bytes>,
    /// Serialized chunk size (bytes fetched).
    pub bytes: u64,
    /// Simulated time at which the chunk's last range landed. A lazy
    /// restore stamps first-batch time as the latest arrival among placed
    /// chunks.
    pub arrived_at: Duration,
}

/// One log segment a reader host is done with: the bytes it fetched, for
/// the log's walker, or nothing when the segment vanished after the list.
#[derive(Debug, Clone)]
pub(crate) struct FetchedSegment {
    /// The segment's place in the log's list, oldest first
    /// ([`FetchKind::LogSegment`]).
    pub index: u32,
    /// Object key.
    pub key: String,
    /// The bytes the plan read of the segment — all of them, or the prefix
    /// in front of its last trailer — unverified, and the simulated time
    /// they arrived; `None` when it was gone (raced with truncation),
    /// which ends the log in front of it.
    pub fetched: Option<(Bytes, Duration)>,
}

/// The newest level's dense object, fetched and decoded.
#[derive(Debug, Clone)]
pub(crate) struct FetchedDense {
    /// The checkpoint's MLPs.
    pub layers: DenseLayers,
    /// Stored size (bytes fetched).
    pub bytes: u64,
    /// Simulated time at which it arrived; first batch waits for it.
    pub arrived_at: Duration,
}

/// What one item of a host's fetch list became.
#[derive(Debug, Clone)]
pub(crate) enum Fetched {
    /// A chunk of the chain.
    Chunk(DecodedChunk),
    /// A segment of the write-ahead log.
    Segment(FetchedSegment),
    /// The newest level's dense object.
    Dense(FetchedDense),
}

/// Executes chunk downloads for one restore on behalf of any host.
pub(crate) struct ShardReader<'a, 'd> {
    pub(crate) scheduler: &'a FetchScheduler<'a>,
    /// Where hot chunks' rows are written as they are decoded.
    pub(crate) dest: &'a Destination<'d>,
    /// The chain's newest manifest: the one whose dense object is fetched.
    pub(crate) newest: &'a Manifest,
    /// Wall-clock nanoseconds spent opening chunks and de-quantizing the
    /// placed ones, shared across shards.
    pub(crate) decode_nanos: &'a AtomicU64,
    /// Rows the placed chunks de-quantized into the destination, shared
    /// across shards.
    pub(crate) rows_landed: &'a AtomicU64,
}

impl ShardReader<'_, '_> {
    /// Fetches the item at place `turn` of `host`'s list: a chunk through
    /// [`ShardReader::read_chunk`], the dense object through
    /// [`ShardReader::read_dense`], a log segment as one ranged read in its
    /// turn, unverified: the log's walker verifies its frames.
    pub(crate) fn read_one(&self, host: u16, turn: u32, item: &FetchItem) -> Result<Fetched> {
        let index = match item.kind {
            FetchKind::Chunk => return self.read_chunk(host, turn, item).map(Fetched::Chunk),
            FetchKind::Dense => return self.read_dense(host, turn, item).map(Fetched::Dense),
            FetchKind::LogSegment(index) => index,
        };
        let read = || self.scheduler.fetch_range(host, &item.key, 0, item.bytes, Duration::ZERO);
        let fetched = match self.scheduler.links().in_turn(host, Some(turn), read) {
            Ok(fetched) => Some(fetched),
            Err(CnrError::Storage(StorageError::NotFound(_))) => None,
            Err(e) => return Err(e),
        };
        Ok(Fetched::Segment(FetchedSegment { index, key: item.key.clone(), fetched }))
    }

    /// Fetches and verifies the dense object as a chunk is fetched — the
    /// same retries, corruption re-fetch and turn — and decodes it against
    /// the newest manifest, which it must belong to.
    fn read_dense(&self, host: u16, turn: u32, item: &FetchItem) -> Result<FetchedDense> {
        let (object, arrived_at) =
            self.scheduler.fetch_chunk(host, Some(turn), &item.key, item.bytes, item.parts)?;
        Ok(FetchedDense {
            layers: DenseLayers::decode_verified(&object, self.newest)?,
            bytes: object.object().len() as u64,
            arrived_at,
        })
    }

    /// Fetches, verifies and opens one chunk, then either de-quantizes it
    /// row by row into the destination (hot) or keeps its bytes (cold).
    fn read_chunk(&self, host: u16, turn: u32, item: &FetchItem) -> Result<DecodedChunk> {
        // The scheduler verified the envelope — the one checksum; opening
        // parses the frame and checks that every row body is whole, before
        // any row is written and before a cold chunk is trusted to be
        // placeable later.
        let (object, arrived_at) =
            self.scheduler.fetch_chunk(host, Some(turn), &item.key, item.bytes, item.parts)?;
        let t0 = Instant::now();
        let header = open_frame(object.payload())?;
        let opened = header.over(object.payload());
        if item.hot {
            let landed = self.dest.place(opened, item.rank, &item.key)?;
            self.rows_landed.fetch_add(landed, Ordering::Relaxed);
        } else {
            self.dest.check(opened, &item.key)?;
        }
        self.decode_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(DecodedChunk {
            level: item.level,
            rank: item.rank,
            key: item.key.clone(),
            header,
            bytes: object.object().len() as u64,
            cold: (!item.hot).then(|| object.object().slice(envelope::HEADER_LEN..)),
            arrived_at,
        })
    }

    /// Simulates the host dying partway through fetching `item`: the first
    /// range of the chunk transfers (downlink bandwidth really spent) and
    /// the rest is abandoned.
    pub(crate) fn die_mid_fetch(&self, host: u16, item: &FetchItem) -> Result<()> {
        let first = item.bytes.div_ceil(item.parts.max(1) as u64).min(item.bytes);
        // Best-effort: a dying host cannot guarantee its read landed.
        let _ = self.scheduler.store().get_part(&item.key, 0, first, host as u32, Duration::ZERO);
        Ok(())
    }
}
