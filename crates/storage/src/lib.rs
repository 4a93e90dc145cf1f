//! Object storage substrate for checkpoint data.
//!
//! Check-N-Run writes checkpoints to *remote* object storage (§2.2, §4) —
//! replicated, highly available, and most importantly **bandwidth-bound**:
//! the paper's whole point is that write bandwidth and capacity are the
//! bottleneck resources (§4.3).
//!
//! Everything speaks [`ObjectStore`], the minimal blob-store interface the
//! checkpoint engine needs (put/get/delete/list/head, ranged reads,
//! multipart), and the stores stack. Bottom to top, as a running engine
//! holds them:
//!
//! 1. **Where the bytes live** — [`memory::InMemoryStore`] (the default)
//!    or [`fs::FsStore`] (a directory; atomic writes by temp file +
//!    rename, for durable local runs).
//! 2. **Faults, optionally** — [`flaky::FlakyStore`] around layer 1,
//!    injecting a list of [`flaky::Fault`]s at once: a delayed, failed or
//!    vanished put, read, head, list or delete ([`flaky::Op`]), a torn
//!    put, a silently corrupted read — each deterministic by its own count
//!    of the calls it is eligible for — and journaling every call it
//!    forwards. This is the layer a test substitutes
//!    (`EngineBuilder::backing_store` in `cnr_core`) to put store failures
//!    under an unmodified engine; a test that stalls or hides objects
//!    from a restore, or reads which downlink each call rode, puts it
//!    above layer 3 instead.
//! 3. **The remote** — [`remote::SimulatedRemoteStore`] over layer 1 or 2:
//!    serialized transfer channels of configurable bandwidth, per-object
//!    latency, replication write-amplification and native multipart, all
//!    accounted against a shared [`cnr_cluster::SimClock`], with
//!    [`metrics::StoreMetrics`] (byte/operation accounting). Transfer
//!    completion times are what Figures 15–17 measure.
//!    The engine, its WAL writer ([`wal`]), controller and scrubber
//!    ([`scrub`]) all talk to this layer and nothing above it.

#![forbid(unsafe_code)]

pub mod envelope;
pub mod flaky;
pub mod fs;
pub mod memory;
pub mod metrics;
pub mod multipart;
pub mod remote;
pub mod scrub;
pub mod wal;
mod xxh64;

pub use flaky::{CorruptionKind, FailureMode, Fault, FlakyStore, Op};
pub use fs::FsStore;
pub use memory::InMemoryStore;
pub use metrics::StoreMetrics;
pub use multipart::{MultipartUpload, PartReceipt};
pub use remote::{RemoteConfig, SimulatedRemoteStore};
pub use scrub::{ScrubReport, Scrubber};
pub use wal::{WalConfig, WalRecord, WalReplay, WalTail, WalWriter};

use bytes::Bytes;
use std::time::Duration;

/// Errors returned by object stores.
#[derive(Debug)]
pub enum StorageError {
    /// The requested key does not exist.
    NotFound(String),
    /// An underlying I/O failure (filesystem backend).
    Io(std::io::Error),
    /// The key is syntactically unacceptable to this backend.
    InvalidKey(String),
    /// A ranged read asked for bytes beyond the object's end. Ranges come
    /// from checkpoint manifests, so an out-of-range request means the
    /// object and its metadata disagree — never silently clamped.
    OutOfRange(String),
    /// The object's bytes fail their integrity check: a v9 envelope with a
    /// bad magic/version/length/checksum (see [`envelope`]). Readers treat this
    /// as a damaged replica — retry another — never as data.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "object not found: {k}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::InvalidKey(k) => write!(f, "invalid object key: {k}"),
            StorageError::OutOfRange(m) => write!(f, "ranged read out of range: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt object: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Metadata of a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object key.
    pub key: String,
    /// Payload size in bytes (logical, before replication).
    pub size: u64,
}

/// Receipt returned by [`ObjectStore::put`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReceipt {
    /// Object key.
    pub key: String,
    /// Logical bytes written.
    pub bytes: u64,
    /// Time the transfer occupied the storage channel (zero for local
    /// backends).
    pub transfer_time: Duration,
    /// Absolute simulated time at which the object became durable (zero for
    /// local backends, which are instantaneous).
    pub completed_at: Duration,
}

/// Receipt returned by [`ObjectStore::get_part`] — the read-side mirror of
/// [`PartReceipt`]: how long the ranged download occupied its channel and
/// when (in simulated time) the bytes were available to the reader host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetReceipt {
    /// Logical bytes read.
    pub bytes: u64,
    /// Time the transfer occupied the download channel (zero for local
    /// backends).
    pub transfer_time: Duration,
    /// Absolute simulated time at which the bytes arrived (zero for local
    /// backends, which are instantaneous).
    pub completed_at: Duration,
}

/// Hit/miss counters of a store's cache tier (see
/// [`ObjectStore::cache_stats`]). No store in this crate has one: the type
/// is pinned by `benchmark/src/timed_store.rs` and goes when that does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served by the cache tier.
    pub hits: u64,
    /// Reads that fell through to the backing store.
    pub misses: u64,
}

/// Slices `[offset, offset + len)` out of `data`, erroring (never
/// clamping) on out-of-range requests — the shared bounds contract of
/// every ranged-read implementation in this crate.
pub(crate) fn checked_range(data: &Bytes, key: &str, offset: u64, len: u64) -> Result<Bytes> {
    let end = offset
        .checked_add(len)
        .ok_or_else(|| StorageError::OutOfRange(format!("{key}: {offset}+{len} overflows")))?;
    if end > data.len() as u64 {
        return Err(StorageError::OutOfRange(format!(
            "{key}: [{offset}, {end}) of {}-byte object",
            data.len()
        )));
    }
    Ok(data.slice(offset as usize..end as usize))
}

/// A blob store for checkpoint chunks and manifests.
///
/// All methods are `&self`: stores are shared across the background writer
/// threads of the checkpoint pipeline.
pub trait ObjectStore: Send + Sync {
    /// Stores `data` under `key`, overwriting any previous object.
    fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt>;

    /// Retrieves the object at `key`.
    fn get(&self, key: &str) -> Result<Bytes>;

    /// Deletes the object at `key`. Deleting a missing key is an error —
    /// the checkpoint controller tracks what it owns, and a failed delete of
    /// a tracked object means bookkeeping has diverged.
    fn delete(&self, key: &str) -> Result<()>;

    /// Lists keys with the given prefix, in lexicographic order.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Metadata of the object at `key` without fetching the payload.
    fn head(&self, key: &str) -> Result<ObjectMeta>;

    /// Sum of logical object sizes currently held (capacity accounting).
    fn total_bytes(&self) -> u64;

    // --- Ranged reads (the restore path's contract). --------------------
    //
    // The default implementations are stateless: `get_range` fetches the
    // whole object and slices it, `get_part` adds a zero-cost receipt.
    // Backends with transfer semantics (bandwidth simulation, real ranged
    // GETs) should override `get_part` so restore timing is meaningful.

    /// Reads bytes `[offset, offset + len)` of the object at `key`.
    /// Requesting past the object's end is an error
    /// ([`StorageError::OutOfRange`]), never a short read — ranges come from
    /// checkpoint manifests, so a mismatch means corruption.
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes> {
        let data = self.get(key)?;
        checked_range(&data, key, offset, len)
    }

    /// [`ObjectStore::get_range`] with download scheduling: the transfer
    /// runs over download channel `channel` and may not start before the
    /// *simulated* time `not_before` (the fetch scheduler passes its floor:
    /// no chunk fetch before the restore plan exists, mirroring
    /// [`ObjectStore::put_part`]). Local instantaneous backends ignore the
    /// channel and return a zero-cost receipt completed at `not_before`.
    fn get_part(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        channel: u32,
        not_before: Duration,
    ) -> Result<(Bytes, GetReceipt)> {
        let _ = channel;
        let data = self.get_range(key, offset, len)?;
        let bytes = data.len() as u64;
        Ok((
            data,
            GetReceipt {
                bytes,
                transfer_time: Duration::ZERO,
                completed_at: not_before,
            },
        ))
    }

    /// Hit/miss counters of this store's cache tier, when it has one.
    /// Inert: no store here has a cache tier and nothing samples this; the
    /// default stays because `benchmark/src/timed_store.rs` overrides it.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Offers a fully reassembled object back to a caching tier. Inert,
    /// and pinned like [`ObjectStore::cache_stats`]: nothing calls it.
    fn offer_cached(&self, key: &str, data: Bytes) {
        let _ = (key, data);
    }

    // --- Multipart protocol (see [`multipart`]). ------------------------
    //
    // The default implementation is stateless: parts are buffered as hidden
    // staging objects under `<key>.mp-<id>/` via `put`, and `complete`
    // assembles them with `get` + `put` + `delete`. Backends with their own
    // transfer semantics (bandwidth simulation, real multipart endpoints)
    // should override all four methods together.

    /// Starts a multipart upload that will materialize at `key` on
    /// [`ObjectStore::complete_multipart`]. Nothing is visible at `key`
    /// until then.
    fn begin_multipart(&self, key: &str) -> Result<MultipartUpload> {
        if key.is_empty() {
            return Err(StorageError::InvalidKey("empty key".into()));
        }
        Ok(MultipartUpload {
            key: key.to_string(),
            id: multipart::next_upload_id(),
            channel: 0,
        })
    }

    /// Uploads part `part` (0-based, contiguous) of `up`. `not_before` is
    /// the earliest *simulated* time the transfer may start — the upload
    /// scheduler passes its floor, the previous checkpoint's durability
    /// point (§4.3); local instantaneous backends only stamp it on the
    /// receipt.
    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> Result<PartReceipt> {
        let r = self.put(&up.part_key(part), data)?;
        Ok(PartReceipt {
            part,
            bytes: r.bytes,
            transfer_time: r.transfer_time,
            completed_at: r.completed_at.max(not_before),
        })
    }

    /// Assembles all uploaded parts of `up` into the final object at
    /// `up.key`. Returns the receipt of the assembled object.
    fn complete_multipart(&self, up: &MultipartUpload) -> Result<PutReceipt> {
        let part_keys = self.list(&up.part_prefix())?;
        let mut joined = Vec::new();
        for k in &part_keys {
            joined.extend_from_slice(&self.get(k)?);
        }
        let receipt = self.put(&up.key, Bytes::from(joined))?;
        for k in &part_keys {
            self.delete(k)?;
        }
        Ok(receipt)
    }

    /// Abandons `up`, discarding every uploaded part. Nothing becomes
    /// visible at `up.key`. Aborting an upload with no parts is a no-op.
    fn abort_multipart(&self, up: &MultipartUpload) -> Result<()> {
        for k in self.list(&up.part_prefix())? {
            self.delete(&k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod trait_tests {
    //! Conformance suite run against every backend.
    use super::*;

    pub(crate) fn conformance(store: &dyn ObjectStore) {
        // put / get roundtrip
        let r = store.put("a/b/obj1", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(r.bytes, 5);
        assert_eq!(store.get("a/b/obj1").unwrap(), Bytes::from_static(b"hello"));

        // overwrite
        store.put("a/b/obj1", Bytes::from_static(b"world!")).unwrap();
        assert_eq!(store.get("a/b/obj1").unwrap().len(), 6);

        // head
        let m = store.head("a/b/obj1").unwrap();
        assert_eq!(m.size, 6);

        // list with prefix
        store.put("a/b/obj2", Bytes::from_static(b"x")).unwrap();
        store.put("c/other", Bytes::from_static(b"y")).unwrap();
        let keys = store.list("a/b/").unwrap();
        assert_eq!(keys, vec!["a/b/obj1".to_string(), "a/b/obj2".to_string()]);

        // capacity
        assert_eq!(store.total_bytes(), 6 + 1 + 1);

        // delete
        store.delete("a/b/obj1").unwrap();
        assert!(matches!(
            store.get("a/b/obj1"),
            Err(StorageError::NotFound(_))
        ));
        assert!(matches!(
            store.delete("a/b/obj1"),
            Err(StorageError::NotFound(_))
        ));
        assert_eq!(store.total_bytes(), 2);

        // missing key errors
        assert!(matches!(store.get("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(store.head("nope"), Err(StorageError::NotFound(_))));

        // empty object
        store.put("empty", Bytes::new()).unwrap();
        assert_eq!(store.get("empty").unwrap().len(), 0);

        ranged_read_conformance(store);
        multipart_conformance(store);
    }

    pub(crate) fn ranged_read_conformance(store: &dyn ObjectStore) {
        store
            .put("ranged/obj", Bytes::from_static(b"0123456789"))
            .unwrap();

        // Interior, prefix, suffix, whole, and empty ranges.
        assert_eq!(
            store.get_range("ranged/obj", 2, 5).unwrap(),
            Bytes::from_static(b"23456")
        );
        assert_eq!(
            store.get_range("ranged/obj", 0, 10).unwrap(),
            Bytes::from_static(b"0123456789")
        );
        assert_eq!(
            store.get_range("ranged/obj", 7, 3).unwrap(),
            Bytes::from_static(b"789")
        );
        assert_eq!(store.get_range("ranged/obj", 10, 0).unwrap().len(), 0);

        // Past-the-end and overflowing ranges are errors, not short reads.
        assert!(matches!(
            store.get_range("ranged/obj", 8, 3),
            Err(StorageError::OutOfRange(_))
        ));
        assert!(matches!(
            store.get_range("ranged/obj", u64::MAX, 2),
            Err(StorageError::OutOfRange(_))
        ));
        assert!(matches!(
            store.get_range("ranged/missing", 0, 1),
            Err(StorageError::NotFound(_))
        ));

        // get_part returns the same bytes plus a receipt that respects
        // `not_before`.
        let (data, receipt) = store
            .get_part("ranged/obj", 3, 4, 0, Duration::from_secs(5))
            .unwrap();
        assert_eq!(data, Bytes::from_static(b"3456"));
        assert_eq!(receipt.bytes, 4);
        assert!(receipt.completed_at >= Duration::from_secs(5));

        store.delete("ranged/obj").unwrap();
    }

    pub(crate) fn multipart_conformance(store: &dyn ObjectStore) {
        let before = store.total_bytes();

        // Nothing is visible at the key until complete.
        let up = store.begin_multipart("mp/obj").unwrap();
        store
            .put_part(&up, 0, Bytes::from_static(b"hello "), Duration::ZERO)
            .unwrap();
        store
            .put_part(&up, 1, Bytes::from_static(b"world"), Duration::ZERO)
            .unwrap();
        assert!(matches!(
            store.get("mp/obj"),
            Err(StorageError::NotFound(_))
        ));

        // Complete assembles parts in order and leaves no staging debris.
        let r = store.complete_multipart(&up).unwrap();
        assert_eq!(r.bytes, 11);
        assert_eq!(
            store.get("mp/obj").unwrap(),
            Bytes::from_static(b"hello world")
        );
        assert_eq!(store.list(&up.part_prefix()).unwrap(), Vec::<String>::new());
        assert_eq!(store.total_bytes(), before + 11);

        // Abort discards parts; the target key stays untouched.
        let up2 = store.begin_multipart("mp/aborted").unwrap();
        store
            .put_part(&up2, 0, Bytes::from_static(b"junk"), Duration::ZERO)
            .unwrap();
        store.abort_multipart(&up2).unwrap();
        assert!(matches!(
            store.get("mp/aborted"),
            Err(StorageError::NotFound(_))
        ));
        assert_eq!(store.list(&up2.part_prefix()).unwrap(), Vec::<String>::new());
        assert_eq!(store.total_bytes(), before + 11);

        // Aborting an empty upload is a no-op.
        let up3 = store.begin_multipart("mp/never").unwrap();
        store.abort_multipart(&up3).unwrap();

        // Distinct uploads get distinct ids.
        let a = store.begin_multipart("mp/x").unwrap();
        let b = store.begin_multipart("mp/x").unwrap();
        assert_ne!(a.id, b.id);

        store.delete("mp/obj").unwrap();
    }
}
