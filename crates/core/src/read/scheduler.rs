//! The fetch scheduler: every chunk comes down as ranged reads over its
//! reader host's downlink, by the link rule of `crate::hosts` — none
//! before the restore's floor, a host's items in its list order — the
//! read-side mirror of [`crate::write::scheduler`].
//!
//! Every chunk downloads as a sequence of ranged reads
//! ([`ObjectStore::get_part`]) over its reader host's downlink (channel),
//! where they transfer one after another. The scheduler's *floor* is the
//! failure instant, raised to the chain-load completion once the manifests
//! are in: no chunk fetch starts before the plan that names it exists.
//! The checkpoint's dense object comes down exactly as a chunk does. The
//! write-ahead log's segments are items of the same plan: each comes
//! down as one ranged read on its host's downlink — of an older segment,
//! the prefix in front of its last record's trailer — unverified, for the
//! log's own walker. A trailer the restore finds it needs after all is one
//! more ranged read ([`FetchScheduler::fetch_range`]), once the plan's
//! items are in, on the downlink that frees first. An item's first pass of
//! reads is in its turn. Transient read failures (and `head` failures) are
//! retried in place (a bounded number of times) rather than failing the
//! whole restore: remote reads time out in practice and the paper's
//! time-to-resume model only cares that the bytes eventually arrive.

use crate::error::{CnrError, Result};
use crate::hosts::Links;
use bytes::Bytes;
use cnr_storage::envelope::Verified;
use cnr_storage::{ObjectStore, StorageError};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// What one restore's fetches have done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStatus {
    /// Simulated time at which everything fetched so far has arrived
    /// (never earlier than the floor).
    pub ready_at: Duration,
    /// Ranged reads completed so far.
    pub parts_fetched: u64,
    /// Transient read failures — of ranged reads and of `head`s — absorbed
    /// by retries.
    pub retries_performed: u64,
    /// Whole-chunk re-fetches triggered by a failed envelope verification
    /// (corruption healing) — distinct from `retries_performed`, which
    /// counts only transient I/O retries of individual ranges.
    pub corruption_refetches: u64,
    /// Envelope verification failures on assembled chunks (each failed
    /// verification counts, including repeat failures of one chunk).
    pub corruption_detected: u64,
    /// Chunks that failed verification at least once and were then served
    /// clean by a re-fetch from another replica.
    pub corruption_repaired: u64,
}

/// Schedules chunk downloads for one restore across all reader hosts.
pub struct FetchScheduler<'a> {
    store: &'a dyn ObjectStore,
    retries: u32,
    links: Links,
    /// The counters of [`FetchStatus`]; its `ready_at` is the links'
    /// completion point.
    status: Mutex<FetchStatus>,
}

impl<'a> FetchScheduler<'a> {
    /// Creates a scheduler over `store` for `hosts` reader hosts, retrying
    /// each transiently failed range up to `retries` times before giving
    /// up. No transfer starts before `start_floor` (the failure instant).
    pub fn new(
        store: &'a dyn ObjectStore,
        hosts: usize,
        retries: u32,
        start_floor: Duration,
    ) -> Self {
        assert!(hosts >= 1);
        Self {
            store,
            retries,
            links: Links::new(hosts, start_floor),
            status: Mutex::default(),
        }
    }

    /// The reader hosts' downlinks.
    pub(crate) fn links(&self) -> &Links {
        &self.links
    }

    fn counts(&self) -> MutexGuard<'_, FetchStatus> {
        self.status.lock().unwrap()
    }

    /// Raises the start floor: subsequent ranges may not begin before `t`.
    /// The coordinator calls this after the manifest chain loads — chunk
    /// fetches cannot start before the plan that names them exists.
    pub fn set_floor(&self, t: Duration) {
        self.links.raise_floor(t);
    }

    /// Downloads the `bytes`-byte object at `key` over host `host`'s
    /// downlink as `parts` ranged reads, returning the assembled bytes and
    /// the simulated time the last range arrived. Given the object's
    /// `turn` in its host's fetch list, its first pass of reads waits for
    /// the objects before it in that list to reserve theirs.
    /// Transient failures (I/O timeouts) retry in place;
    /// exhausted retries and non-transient errors (missing object, bad
    /// range) propagate immediately.
    ///
    /// Every object is verified end-to-end after reassembly: one whose
    /// envelope does not verify is re-fetched whole from another replica
    /// (the per-range retry budget also bounds whole-object re-fetches),
    /// and one that never verifies surfaces as [`StorageError::Corrupt`] —
    /// corrupted bytes are never handed to the decoder. What comes back is
    /// the [`Verified`] object: the decoders take it as proof and do not
    /// hash the bytes again.
    pub fn fetch_chunk(
        &self,
        host: u16,
        turn: Option<u32>,
        key: &str,
        bytes: u64,
        parts: u32,
    ) -> Result<(Verified, Duration)> {
        let mut pass = self.links.in_turn(host, turn, || self.fetch_chunk_once(host, key, bytes, parts));
        let mut refetches = 0u32;
        loop {
            let (data, arrived_at) = pass?;
            match self.verify(key, data) {
                Ok(verified) => {
                    if refetches > 0 {
                        self.counts().corruption_repaired += 1;
                    }
                    return Ok((verified, arrived_at));
                }
                Err(e) if refetches < self.retries => {
                    refetches += 1;
                    // Healing is not a transient retry: whole-chunk
                    // re-fetches keep their own counter so `ResumeStats`
                    // can tell flaky networks from rotten replicas.
                    self.counts().corruption_refetches += 1;
                    let _ = e; // re-fetch the whole chunk from another replica
                }
                Err(e) => return Err(CnrError::from(e)),
            }
            pass = self.fetch_chunk_once(host, key, bytes, parts);
        }
    }

    /// One assembly pass of [`FetchScheduler::fetch_chunk`]: every range
    /// downloads in turn, transient I/O failures retry per range, and the
    /// raw (unverified) reassembly comes back.
    fn fetch_chunk_once(
        &self,
        host: u16,
        key: &str,
        bytes: u64,
        parts: u32,
    ) -> Result<(Bytes, Duration)> {
        let nparts = parts.max(1) as u64;
        if nparts <= 1 || bytes == 0 {
            // Zero-copy fast path: a single range *is* the whole object,
            // so the buffer the store returned flows straight to the
            // decoder — no reassembly vector, no copy.
            return self.fetch_range(host, key, 0, bytes, Duration::ZERO);
        }
        let part_len = bytes.div_ceil(nparts).max(1);
        let mut assembled = Vec::with_capacity(bytes as usize);
        let mut arrived_at = Duration::ZERO;
        let mut offset = 0u64;
        while offset < bytes {
            let len = part_len.min(bytes - offset);
            let (data, completed_at) = self.fetch_range(host, key, offset, len, Duration::ZERO)?;
            arrived_at = arrived_at.max(completed_at);
            assembled.extend_from_slice(&data);
            offset += len;
        }
        Ok((Bytes::from(assembled), arrived_at))
    }

    /// Downloads `len` bytes at `offset` of `key` over host `host`'s
    /// downlink as one ranged read starting no earlier than `not_before`
    /// (nor the floor), retrying transient I/O failures in place. Returns
    /// the bytes *unverified*, with the simulated time they arrived: a log
    /// segment of the plan (in its turn), or a trailer the plan left unread
    /// (in none, once the plan's items are in).
    pub fn fetch_range(
        &self,
        host: u16,
        key: &str,
        offset: u64,
        len: u64,
        not_before: Duration,
    ) -> Result<(Bytes, Duration)> {
        let not_before = self.links.floor().max(not_before);
        let (data, receipt) =
            self.retrying(|| self.store.get_part(key, offset, len, host as u32, not_before))?;
        self.counts().parts_fetched += 1;
        self.links.carried(Some(host), receipt.completed_at);
        Ok((data, receipt.completed_at))
    }

    /// Runs `op` — one store call — until it succeeds, retrying a transient
    /// I/O failure in place up to the retry budget (each retry counted);
    /// exhausted retries and any other error propagate.
    pub(crate) fn retrying<T>(&self, mut op: impl FnMut() -> std::result::Result<T, StorageError>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(ok) => return Ok(ok),
                Err(StorageError::Io(_)) if attempt < self.retries => {
                    attempt += 1;
                    self.counts().retries_performed += 1;
                }
                Err(e) => return Err(CnrError::from(e)),
            }
        }
    }

    /// Verifies an assembled object's envelope. A short read (in-transit
    /// truncation), damage to the magic and a checksum mismatch all count
    /// as detected corruption.
    fn verify(&self, key: &str, data: Bytes) -> std::result::Result<Verified, StorageError> {
        Verified::check(data).map_err(|why| {
            self.counts().corruption_detected += 1;
            StorageError::Corrupt(format!("{key}: {why}"))
        })
    }

    /// The store downloads come from.
    pub fn store(&self) -> &'a dyn ObjectStore {
        self.store
    }

    /// Simulated time at which everything fetched so far has arrived.
    pub fn ready_at(&self) -> Duration {
        self.links.done_at()
    }

    /// What the fetches have done so far.
    pub fn status(&self) -> FetchStatus {
        FetchStatus { ready_at: self.ready_at(), ..*self.counts() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_storage::envelope;
    use crate::write::scheduler::tests::remote;
    use cnr_storage::{FailureMode, Fault, FlakyStore, InMemoryStore, Op};

    /// A stored object of exactly `len` bytes, envelope included.
    fn stored(len: usize) -> Bytes {
        Bytes::from(envelope::wrap(&vec![7u8; len - envelope::HEADER_LEN]))
    }

    fn mb(n: usize) -> Bytes {
        stored(n * 1024 * 1024)
    }

    #[test]
    fn fetches_in_ranges_and_reassembles() {
        let store = InMemoryStore::new();
        let payload = Bytes::from(envelope::wrap(&(0u8..=229).collect::<Vec<u8>>()));
        assert_eq!(payload.len(), 250);
        store.put("obj", payload.clone()).unwrap();
        let sched = FetchScheduler::new(&store, 1, 0, Duration::ZERO);
        let (data, _) = sched.fetch_chunk(0, None, "obj", 250, 3).unwrap();
        assert_eq!(data.object(), &payload);
        assert_eq!(data.payload(), (0u8..=229).collect::<Vec<u8>>());
        assert_eq!(sched.status().parts_fetched, 3);
    }

    #[test]
    fn zero_byte_object_is_one_range_and_never_verifies() {
        let store = InMemoryStore::new();
        store.put("obj", Bytes::new()).unwrap();
        let sched = FetchScheduler::new(&store, 1, 0, Duration::ZERO);
        assert!(matches!(
            sched.fetch_chunk(0, None, "obj", 0, 3),
            Err(CnrError::Corrupt(_))
        ));
        let status = sched.status();
        assert_eq!(status.parts_fetched, 1);
        assert_eq!(status.corruption_detected, 1);
    }

    #[test]
    fn ranges_queue_one_after_another_on_the_host_downlink() {
        let store = remote(1.0, 1);
        store.put("obj", mb(3)).unwrap(); // channel busy until 3s
        let sched = FetchScheduler::new(&store, 1, 0, Duration::ZERO);
        let (_, arrived) = sched.fetch_chunk(0, None, "obj", 3 * 1024 * 1024, 3).unwrap();
        // 3 MB written + 3 MB read back over the same 1 MB/s channel.
        assert!((arrived.as_secs_f64() - 6.0).abs() < 1e-6);
        assert_eq!(sched.ready_at(), arrived);
        assert_eq!(sched.status().parts_fetched, 3);
    }

    #[test]
    fn ready_at_tracks_the_slowest_host() {
        let store = remote(1.0, 2);
        store.put("a", mb(1)).unwrap();
        store.put("b", mb(2)).unwrap();
        let write_drain = store.drained_at();
        let sched = FetchScheduler::new(&store, 2, 0, Duration::ZERO);
        sched.fetch_chunk(0, None, "a", 1024 * 1024, 1).unwrap();
        sched.fetch_chunk(1, None, "b", 2 * 1024 * 1024, 1).unwrap();
        assert!((sched.ready_at().as_secs_f64() - (write_drain.as_secs_f64() + 2.0)).abs() < 1e-6);
    }

    #[test]
    fn transient_read_failures_are_retried() {
        let outage = Fault::fail(Op::Read, FailureMode::FirstN(2));
        let store = FlakyStore::new(InMemoryStore::new(), [outage]);
        store.put("obj", stored(100)).unwrap();
        let sched = FetchScheduler::new(&store, 1, 3, Duration::ZERO);
        let (data, _) = sched.fetch_chunk(0, None, "obj", 100, 2).unwrap();
        assert_eq!(data.object().len(), 100);
        let status = sched.status();
        assert_eq!(status.retries_performed, 2);
        assert_eq!(status.corruption_refetches, 0, "no healing involved");
    }

    #[test]
    fn exhausted_retries_propagate_the_error() {
        let down = Fault::fail(Op::Read, FailureMode::Every(1));
        let store = FlakyStore::new(InMemoryStore::new(), [down]);
        store.put("obj", Bytes::from(vec![7u8; 100])).unwrap();
        let sched = FetchScheduler::new(&store, 1, 2, Duration::ZERO);
        assert!(matches!(
            sched.fetch_chunk(0, None, "obj", 100, 1),
            Err(CnrError::Storage(_))
        ));
    }

    #[test]
    fn missing_object_fails_without_retry_help() {
        let store = InMemoryStore::new();
        let sched = FetchScheduler::new(&store, 1, 2, Duration::ZERO);
        assert!(sched.fetch_chunk(0, None, "nope", 10, 1).is_err());
        // Non-transient errors never consume retries.
        assert_eq!(sched.status().retries_performed, 0);
    }

    #[test]
    fn start_floor_delays_every_range() {
        let store = remote(1.0, 2);
        store.put("obj", mb(1)).unwrap(); // channel 0 busy until 1s
        let floor = Duration::from_secs(10);
        let sched = FetchScheduler::new(&store, 2, 0, floor);
        assert_eq!(sched.ready_at(), floor, "nothing fetched yet");
        let (_, arrived) = sched.fetch_chunk(1, None, "obj", 1024 * 1024, 1).unwrap();
        assert!(arrived >= floor + Duration::from_secs(1), "read starts at the floor");
        // Raising the floor moves subsequent ranges, not completed ones.
        sched.set_floor(Duration::from_secs(20));
        let (_, arrived2) = sched.fetch_chunk(1, None, "obj", 1024 * 1024, 1).unwrap();
        assert!(arrived2 >= Duration::from_secs(20));
    }

    #[test]
    fn corrupt_chunk_is_healed_by_refetching_another_replica() {
        use cnr_storage::CorruptionKind;
        let inner = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&[7u8; 300]));
        inner.put("obj", enveloped.clone()).unwrap();
        // The very first eligible read is bit-flipped; the refetch hits a
        // healthy replica (the corruption counter has moved on).
        let damage = Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Once(1));
        let store = FlakyStore::new(inner, [damage]);
        let sched = FetchScheduler::new(&store, 1, 2, Duration::ZERO);
        let (data, _) = sched
            .fetch_chunk(0, None, "obj", enveloped.len() as u64, 1)
            .unwrap();
        assert_eq!(data.object(), &enveloped, "healed fetch is bit-identical");
        let status = sched.status();
        assert_eq!(status.corruption_detected, 1);
        assert_eq!(status.corruption_repaired, 1);
        assert_eq!(status.corruption_refetches, 1);
        assert_eq!(
            status.retries_performed, 0,
            "healing a rotten replica is not a transient I/O retry"
        );
    }

    #[test]
    fn persistent_corruption_surfaces_as_a_typed_error() {
        use cnr_storage::CorruptionKind;
        let inner = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&[9u8; 128]));
        inner.put("obj", enveloped.clone()).unwrap();
        // Every replica is bad: all reads come back damaged.
        let damage = Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Every(1));
        let store = FlakyStore::new(inner, [damage]);
        let sched = FetchScheduler::new(&store, 1, 2, Duration::ZERO);
        let err = sched
            .fetch_chunk(0, None, "obj", enveloped.len() as u64, 1)
            .unwrap_err();
        assert!(
            matches!(err, CnrError::Corrupt(_)),
            "typed corruption error, got {err:?}"
        );
        let status = sched.status();
        // Initial attempt + 2 refetches, all detected; nothing repaired.
        assert_eq!(status.corruption_detected, 3);
        assert_eq!(status.corruption_repaired, 0);
        assert_eq!(status.corruption_refetches, 2);
        assert_eq!(status.retries_performed, 0);
    }

    /// A v3 object is not transit damage a refetch can heal: every replica
    /// holds it, the retry budget runs out, and the typed error names the
    /// version.
    #[test]
    fn a_v3_object_is_corrupt_naming_its_version() {
        let store = InMemoryStore::new();
        let mut v3 = envelope::wrap(&[3u8; 64]);
        v3[..4].copy_from_slice(b"CNR3");
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let len = v3.len() as u64;
        store.put("obj", Bytes::from(v3)).unwrap();
        let sched = FetchScheduler::new(&store, 1, 2, Duration::ZERO);
        match sched.fetch_chunk(0, None, "obj", len, 1) {
            Err(CnrError::Corrupt(why)) => {
                assert!(why.contains("obj") && why.contains("version 3"), "{why}")
            }
            other => panic!("v3 object not rejected as corrupt: {other:?}"),
        }
        let status = sched.status();
        assert_eq!(status.corruption_detected, 3);
        assert_eq!(status.corruption_repaired, 0);
    }

    /// A chunk exactly as an older writer stored it — valid for its
    /// version — is rejected by number after the retry budget, never
    /// decoded.
    fn assert_corrupt_naming_version(sealed: &'static [u8], version: u16) {
        let store = InMemoryStore::new();
        store.put("obj", Bytes::from_static(sealed)).unwrap();
        let sched = FetchScheduler::new(&store, 1, 2, Duration::ZERO);
        match sched.fetch_chunk(0, None, "obj", sealed.len() as u64, 1) {
            Err(CnrError::Corrupt(why)) => assert!(
                why.contains(&format!("unsupported envelope version {version} ")),
                "{why}"
            ),
            other => panic!("v{version} object not rejected as corrupt: {other:?}"),
        }
        assert_eq!(sched.status().corruption_detected, 3);
    }

    #[test]
    fn a_v4_object_is_corrupt_naming_its_version() {
        assert_corrupt_naming_version(
            b"CNR4\x04\x00\x00\x00\x15\x00\x00\x00\x0f\xe8\xa5\x20written under wire v4",
            4,
        );
    }

    #[test]
    fn a_v5_object_is_corrupt_naming_its_version() {
        assert_corrupt_naming_version(
            b"CNR5\x05\x00\x00\x00\x15\x00\x00\x00\xf4\xca\x13\x19\x73\x76\xf7\x5e\
              written under wire v5",
            5,
        );
    }

    #[test]
    fn a_v6_object_is_corrupt_naming_its_version() {
        assert_corrupt_naming_version(
            b"CNR6\x06\x00\x00\x00\x15\x00\x00\x00\x13\x3a\xa1\x51\x14\x64\xe5\x95\
              written under wire v6",
            6,
        );
    }

    #[test]
    fn truncated_transfer_never_passes_verification() {
        use cnr_storage::CorruptionKind;
        let inner = InMemoryStore::new();
        let enveloped = Bytes::from(envelope::wrap(&(0u8..=255).collect::<Vec<u8>>()));
        inner.put("obj", enveloped.clone()).unwrap();
        let damage = Fault::corrupt(CorruptionKind::Truncate, FailureMode::Once(1));
        let store = FlakyStore::new(inner, [damage]);
        let sched = FetchScheduler::new(&store, 1, 1, Duration::ZERO);
        let (data, _) = sched
            .fetch_chunk(0, None, "obj", enveloped.len() as u64, 2)
            .unwrap();
        assert_eq!(data.object(), &enveloped);
        let status = sched.status();
        assert!(status.corruption_detected >= 1, "short range was caught");
        assert_eq!(status.corruption_repaired, 1);
        assert!(status.corruption_refetches >= 1);
    }
}
