//! Two-tier store: a bounded local cache in front of a remote backend.
//!
//! Production checkpoint stacks put a local NVMe tier in front of the
//! remote object store: writes land durably on the remote (the paper's
//! durability domain, §2.2) but a copy stays on local flash, so the common
//! restore — same host, recent checkpoint — reads at NVMe speed instead of
//! paying the remote channel again. [`TieredStore`] composes any two
//! [`ObjectStore`]s that way:
//!
//! * `put` writes through: remote first (durability), then the cache. The
//!   receipt is the remote's — durability timing is what the checkpoint
//!   controller cares about.
//! * `get` serves from the cache when it can, falling back to the remote
//!   and re-populating the cache on a miss.
//! * the cache is bounded and size-aware: victims are evicted once
//!   `cache_capacity` logical bytes are exceeded, in insertion order
//!   ([`EvictionPolicy::Fifo`], the default — checkpoint write traffic is
//!   sequential) or least-recently-*read* order ([`EvictionPolicy::Lru`],
//!   the better fit for restore traffic that re-reads a working set).
//! * ranged reads ([`ObjectStore::get_range`] / [`ObjectStore::get_part`])
//!   are served by slicing a cached object locally; a miss falls through to
//!   the remote's ranged read (paying its channel), and re-populates the
//!   cache when the range covered the whole object.
//! * multipart uploads go straight to the remote — parts are transient and
//!   a checkpoint chunk is only read back on restore, when `get` caches it.
//! * cache hits are *revalidated*: local flash rots too, so a cached
//!   object's v4 envelope (see [`crate::envelope`]) is checksum-verified
//!   on every hit. A failed check evicts the poisoned entry and falls
//!   through to the remote — the cache can delay detection of remote
//!   corruption, but it can never convert local corruption into data.
//!
//! Listing, metadata, and capacity reflect the remote tier: the cache is an
//! invisible accelerator, never the source of truth.

use crate::envelope;
use crate::multipart::{MultipartUpload, PartReceipt};
use crate::{CacheStats, GetReceipt, ObjectMeta, ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How [`TieredStore`] picks eviction victims once the cache budget is
/// exceeded. Eviction is size-aware under either policy: victims are
/// evicted until the resident bytes fit the budget again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict in insertion order.
    #[default]
    Fifo,
    /// Evict the least-recently-read object: every cache hit refreshes the
    /// object's position in the eviction queue.
    Lru,
}

/// A local cache tier in front of a remote backend.
pub struct TieredStore<C, R> {
    cache: C,
    remote: R,
    /// Cache budget in logical bytes.
    cache_capacity: u64,
    policy: EvictionPolicy,
    /// Cached keys in eviction order (front = next victim).
    resident: Mutex<VecDeque<String>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cache entries evicted because their envelope failed verification
    /// on a hit.
    verify_evictions: AtomicU64,
    /// When attached, hit/miss increments are mirrored into the
    /// `cnr_obs::names::CACHE_*` counters.
    obs: Option<cnr_obs::Obs>,
}

impl<C: ObjectStore, R: ObjectStore> TieredStore<C, R> {
    /// Composes `cache` (fast, bounded to `cache_capacity` logical bytes)
    /// in front of `remote` (durable, source of truth) with FIFO eviction.
    pub fn new(cache: C, remote: R, cache_capacity: u64) -> Self {
        Self::with_policy(cache, remote, cache_capacity, EvictionPolicy::Fifo)
    }

    /// [`TieredStore::new`] with an explicit eviction policy.
    pub fn with_policy(
        cache: C,
        remote: R,
        cache_capacity: u64,
        policy: EvictionPolicy,
    ) -> Self {
        assert!(cache_capacity > 0, "cache capacity must be positive");
        Self {
            cache,
            remote,
            cache_capacity,
            policy,
            resident: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            verify_evictions: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Attaches an observability handle; hit/miss counters recorded from
    /// now on.
    pub fn with_obs(mut self, obs: cnr_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The cache tier.
    pub fn cache(&self) -> &C {
        &self.cache
    }

    /// The remote tier.
    pub fn remote(&self) -> &R {
        &self.remote
    }

    /// Cache hits served so far.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (reads that fell through to the remote).
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of reads served by the cache so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// The eviction policy in use.
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Cache entries evicted because their v4 envelope failed verification
    /// on a hit (poisoned local copies caught before being served).
    pub fn cache_verify_evictions(&self) -> u64 {
        self.verify_evictions.load(Ordering::Relaxed)
    }

    /// Looks `key` up in the cache, revalidating the entry: a cached
    /// object that is not (or no longer) a valid v4 envelope is evicted
    /// and reported as absent, so the caller falls through to the remote.
    /// Verification is pure CPU: it adds no simulated time and touches no
    /// remote channel.
    fn cache_lookup(&self, key: &str) -> Result<Option<Bytes>> {
        match self.cache.get(key) {
            Ok(data) => {
                if envelope::unwrap(&data).is_err() {
                    self.verify_evictions.fetch_add(1, Ordering::Relaxed);
                    self.cache_forget(key);
                    return Ok(None);
                }
                Ok(Some(data))
            }
            Err(StorageError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Records a miss (a read that fell through to the remote).
    fn on_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.registry().counter_add(cnr_obs::names::CACHE_MISSES, 1);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Records a cache hit, refreshing the key's eviction position under
    /// LRU.
    fn on_hit(&self, key: &str) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.registry().counter_add(cnr_obs::names::CACHE_HITS, 1);
        }
        if self.policy == EvictionPolicy::Lru {
            let mut resident = self.resident.lock();
            if let Some(pos) = resident.iter().position(|k| k == key) {
                let k = resident.remove(pos).expect("position is valid");
                resident.push_back(k);
            }
        }
    }

    /// Inserts `data` into the cache under `key`, evicting oldest entries
    /// until the budget holds. Objects larger than the whole budget are not
    /// cached — but any previously cached value under the key is dropped,
    /// so an overwrite can never leave a stale cached read behind.
    fn cache_insert(&self, key: &str, data: Bytes) {
        if data.len() as u64 > self.cache_capacity {
            self.cache_forget(key);
            return;
        }
        let mut resident = self.resident.lock();
        if self.cache.put(key, data).is_err() {
            return; // a cache tier that errors is just a smaller cache
        }
        if !resident.iter().any(|k| k == key) {
            resident.push_back(key.to_string());
        }
        while self.cache.total_bytes() > self.cache_capacity {
            let Some(victim) = resident.pop_front() else {
                break;
            };
            let _ = self.cache.delete(&victim);
        }
    }

    fn cache_forget(&self, key: &str) {
        let mut resident = self.resident.lock();
        resident.retain(|k| k != key);
        let _ = self.cache.delete(key);
    }

    /// Best-effort population after a remote ranged read that may have
    /// covered the whole object. The data already arrived, so nothing here
    /// may fail the read: a `head` that errors (metadata hiccup, flaky
    /// remote) just skips population. The size probe is also skipped when
    /// the data itself already settles the question — a range that did not
    /// start at offset 0, or one larger than the whole cache budget, can
    /// never populate, so the extra remote round-trip is not paid.
    fn maybe_cache_whole(&self, key: &str, offset: u64, data: &Bytes) {
        if offset != 0 || data.len() as u64 > self.cache_capacity {
            return;
        }
        if matches!(self.remote.head(key), Ok(meta) if meta.size == data.len() as u64) {
            self.cache_insert(key, data.clone());
        }
    }
}

impl<C: ObjectStore, R: ObjectStore> ObjectStore for TieredStore<C, R> {
    fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
        // Remote first: if the durable write fails, the cache must not hold
        // an object the remote never accepted.
        let receipt = self.remote.put(key, data.clone())?;
        self.cache_insert(key, data);
        Ok(receipt)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        if let Some(data) = self.cache_lookup(key)? {
            self.on_hit(key);
            return Ok(data);
        }
        // The miss is counted before the remote read: a lookup that fell
        // through to the remote is a miss whether or not the remote then
        // fails, so failure injection cannot make the hit rate lie.
        self.on_miss();
        let data = self.remote.get(key)?;
        self.cache_insert(key, data.clone());
        Ok(data)
    }

    // Ranged reads are served by slicing the cached whole object (after
    // revalidating it — a slice of a rotten object is rotten); a miss
    // falls through to the remote's ranged read (which pays the remote
    // channel) and caches the object when the range covered all of it.

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes> {
        if let Some(data) = self.cache_lookup(key)? {
            self.on_hit(key);
            return crate::checked_range(&data, key, offset, len);
        }
        self.on_miss();
        let data = self.remote.get_range(key, offset, len)?;
        self.maybe_cache_whole(key, offset, &data);
        Ok(data)
    }

    fn get_part(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        channel: u32,
        not_before: Duration,
    ) -> Result<(Bytes, GetReceipt)> {
        if let Some(data) = self.cache_lookup(key)? {
            self.on_hit(key);
            let data = crate::checked_range(&data, key, offset, len)?;
            let bytes = data.len() as u64;
            // A local NVMe read: instantaneous in simulated time, no
            // remote channel occupied.
            return Ok((
                data,
                GetReceipt {
                    bytes,
                    transfer_time: Duration::ZERO,
                    completed_at: not_before,
                },
            ));
        }
        self.on_miss();
        let (data, receipt) = self.remote.get_part(key, offset, len, channel, not_before)?;
        self.maybe_cache_whole(key, offset, &data);
        Ok((data, receipt))
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }

    fn offer_cached(&self, key: &str, data: Bytes) {
        // A reader reassembled the object from ranged reads (multi-part
        // chunks can never populate via the miss path). Verify that the
        // checksum holds and the payload matches the remote's view of the
        // object before retaining it.
        if envelope::unwrap(&data).is_err() {
            return;
        }
        if matches!(self.remote.head(key), Ok(meta) if meta.size == data.len() as u64) {
            self.cache_insert(key, data);
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.remote.delete(key)?;
        self.cache_forget(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.remote.list(prefix)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.remote.head(key)
    }

    fn total_bytes(&self) -> u64 {
        self.remote.total_bytes()
    }

    // Multipart passes through to the remote tier (including its timing
    // semantics); the assembled object is cached lazily on first `get`.

    fn begin_multipart(&self, key: &str) -> Result<MultipartUpload> {
        self.remote.begin_multipart(key)
    }

    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> Result<PartReceipt> {
        self.remote.put_part(up, part, data, not_before)
    }

    fn complete_multipart(&self, up: &MultipartUpload) -> Result<PutReceipt> {
        let receipt = self.remote.complete_multipart(up)?;
        // The remote now holds a new object at the key; drop any stale
        // cached predecessor (the new value is cached on first `get`).
        self.cache_forget(&up.key);
        Ok(receipt)
    }

    fn abort_multipart(&self, up: &MultipartUpload) -> Result<()> {
        self.remote.abort_multipart(up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{RemoteConfig, SimulatedRemoteStore};
    use crate::InMemoryStore;
    use cnr_cluster::SimClock;

    fn tiered(capacity: u64) -> TieredStore<InMemoryStore, InMemoryStore> {
        TieredStore::new(InMemoryStore::new(), InMemoryStore::new(), capacity)
    }

    /// `payload` as stored: hits are served only for valid envelopes.
    fn obj(payload: &[u8]) -> Bytes {
        Bytes::from(envelope::wrap(payload))
    }

    /// Stored size of a `payload_len`-byte payload.
    const fn stored(payload_len: u64) -> u64 {
        envelope::HEADER_LEN as u64 + payload_len
    }

    #[test]
    fn conformance() {
        let store = tiered(1 << 30);
        crate::trait_tests::conformance(&store);
    }

    #[test]
    fn reads_hit_the_cache_after_write_through() {
        let store = tiered(1024);
        store.put("a", obj(b"hello")).unwrap();
        assert_eq!(store.get("a").unwrap(), obj(b"hello"));
        assert_eq!(store.cache_hits(), 1);
        assert_eq!(store.cache_misses(), 0);
    }

    #[test]
    fn eviction_bounds_the_cache_but_not_the_remote() {
        let store = tiered(2 * stored(4) + 2);
        for i in 0..5 {
            store.put(&format!("k{i}"), obj(&[0u8; 4])).unwrap();
        }
        assert!(store.cache().total_bytes() <= 2 * stored(4) + 2);
        assert_eq!(store.total_bytes(), 5 * stored(4), "remote keeps everything");
        // Oldest entries were evicted: reading them is a miss served by the
        // remote, which re-populates the cache.
        assert_eq!(store.get("k0").unwrap(), obj(&[0u8; 4]));
        assert_eq!(store.cache_misses(), 1);
        assert_eq!(store.get("k0").unwrap(), obj(&[0u8; 4]));
        assert_eq!(store.cache_hits(), 1);
    }

    #[test]
    fn oversized_objects_bypass_the_cache() {
        let store = tiered(8);
        store.put("big", Bytes::from(vec![0u8; 64])).unwrap();
        assert_eq!(store.cache().total_bytes(), 0);
        assert_eq!(store.get("big").unwrap().len(), 64);
        assert_eq!(store.cache_misses(), 1);
    }

    #[test]
    fn overwrites_never_serve_stale_cached_data() {
        // Cacheable value, then an uncacheable overwrite: the stale cached
        // entry must be dropped, not served.
        let store = tiered(8);
        store.put("k", Bytes::from_static(b"v1")).unwrap();
        store.put("k", Bytes::from(vec![9u8; 64])).unwrap();
        assert_eq!(store.get("k").unwrap().len(), 64, "no stale read");

        // Cached value overwritten via multipart: same guarantee.
        store.put("m", Bytes::from_static(b"old")).unwrap();
        let up = store.begin_multipart("m").unwrap();
        store
            .put_part(&up, 0, Bytes::from_static(b"newer"), Duration::ZERO)
            .unwrap();
        store.complete_multipart(&up).unwrap();
        assert_eq!(store.get("m").unwrap(), Bytes::from_static(b"newer"));
    }

    #[test]
    fn delete_clears_both_tiers() {
        let store = tiered(1024);
        store.put("a", Bytes::from_static(b"x")).unwrap();
        store.delete("a").unwrap();
        assert!(store.get("a").is_err());
        assert!(store.cache().get("a").is_err());
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn remote_receipt_carries_durability_timing() {
        let clock = SimClock::new();
        let remote = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0,
                base_latency: Duration::from_millis(10),
                replication: 1,
                channels: 1,
            },
            clock,
        );
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        // Exactly the cache budget once enveloped.
        let r = store
            .put("a", obj(&vec![0u8; (1 << 20) - envelope::HEADER_LEN]))
            .unwrap();
        assert!(r.completed_at >= Duration::from_secs(1), "remote timing");
        // ...but the read is a local cache hit.
        assert_eq!(store.get("a").unwrap().len(), 1 << 20);
        assert_eq!(store.cache_hits(), 1);
        assert_eq!(store.remote().metrics().snapshot().gets, 0);
    }

    #[test]
    fn lru_eviction_keeps_recently_read_objects() {
        // The budget holds three 4-byte-payload objects.
        let store = TieredStore::with_policy(
            InMemoryStore::new(),
            InMemoryStore::new(),
            3 * stored(4),
            EvictionPolicy::Lru,
        );
        for k in ["a", "b", "c"] {
            store.put(k, obj(&[0u8; 4])).unwrap();
        }
        // Touch "a": it becomes most-recently-read, so inserting "d" must
        // evict "b" (the LRU victim), not "a".
        store.get("a").unwrap();
        store.put("d", obj(&[0u8; 4])).unwrap();
        assert!(store.cache().get("a").is_ok(), "recently read survives");
        assert!(store.cache().get("b").is_err(), "LRU victim evicted");
        assert!(store.cache().get("c").is_ok());
        assert!(store.cache().get("d").is_ok());

        // Under FIFO the same sequence evicts "a" (oldest inserted).
        let fifo = tiered(3 * stored(4));
        for k in ["a", "b", "c"] {
            fifo.put(k, obj(&[0u8; 4])).unwrap();
        }
        fifo.get("a").unwrap();
        fifo.put("d", obj(&[0u8; 4])).unwrap();
        assert!(fifo.cache().get("a").is_err(), "FIFO ignores recency");
        assert_eq!(fifo.eviction_policy(), EvictionPolicy::Fifo);
    }

    #[test]
    fn hit_rate_and_cache_stats_accessors() {
        let store = tiered(1024);
        store.put("a", obj(b"xy")).unwrap();
        store.get("a").unwrap(); // hit (write-through cached it)
        store.cache_forget("a");
        store.get("a").unwrap(); // miss
        store.get("a").unwrap(); // hit (re-populated)
        let stats = store.cache_stats().unwrap();
        assert_eq!(stats, CacheStats { hits: 2, misses: 1 });
        assert!((store.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.since(CacheStats { hits: 1, misses: 1 }).hits, 1);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn ranged_reads_hit_the_cache_without_touching_the_remote() {
        let clock = SimClock::new();
        let remote = SimulatedRemoteStore::new(RemoteConfig::default(), clock);
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        store.put("obj", obj(b"0123456789")).unwrap();
        // Cached by write-through: the ranged read is a local slice.
        assert_eq!(
            store.get_range("obj", stored(2), 3).unwrap(),
            Bytes::from_static(b"234")
        );
        let (data, receipt) = store
            .get_part("obj", stored(5), 4, 0, Duration::from_secs(3))
            .unwrap();
        assert_eq!(data, Bytes::from_static(b"5678"));
        assert_eq!(receipt.transfer_time, Duration::ZERO, "local NVMe read");
        assert_eq!(receipt.completed_at, Duration::from_secs(3));
        assert_eq!(store.cache_hits(), 2);
        assert_eq!(store.remote().metrics().snapshot().gets, 0);
    }

    #[test]
    fn whole_object_ranged_miss_repopulates_the_cache() {
        let clock = SimClock::new();
        let remote = SimulatedRemoteStore::new(RemoteConfig::default(), clock);
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        // Multipart write: durable on the remote, not yet cached.
        let whole = obj(b"abcdef");
        let len = whole.len() as u64;
        let up = store.begin_multipart("chunk").unwrap();
        store
            .put_part(&up, 0, whole.clone(), Duration::ZERO)
            .unwrap();
        store.complete_multipart(&up).unwrap();
        // A partial range miss does not populate (a cached prefix would be
        // indistinguishable from the whole object)...
        let (_, _) = store.get_part("chunk", 1, 2, 0, Duration::ZERO).unwrap();
        assert!(store.cache().get("chunk").is_err());
        // ...but a whole-object range does, so the next read is a hit.
        let (data, _) = store.get_part("chunk", 0, len, 0, Duration::ZERO).unwrap();
        assert_eq!(data, whole);
        assert!(store.cache().get("chunk").is_ok());
        let before = store.cache_hits();
        store.get_part("chunk", 0, len, 0, Duration::ZERO).unwrap();
        assert_eq!(store.cache_hits(), before + 1);
    }

    #[test]
    fn poisoned_cache_entry_is_evicted_and_refetched() {
        let store = tiered(1 << 20);
        let clean = Bytes::from(crate::envelope::wrap(b"the chunk payload"));
        store.put("obj", clean.clone()).unwrap();

        // Rot the *cached* copy: flip a payload byte behind the tier's back.
        let mut poisoned = store.cache().get("obj").unwrap().to_vec();
        let last = poisoned.len() - 1;
        poisoned[last] ^= 0x40;
        store.cache().put("obj", Bytes::from(poisoned)).unwrap();

        // The hit path must detect the damage, evict, and serve the clean
        // remote copy — never the poisoned bytes.
        assert_eq!(store.get("obj").unwrap(), clean);
        assert_eq!(store.cache_verify_evictions(), 1);
        assert_eq!(store.cache_misses(), 1, "fell through to the remote");
        // The eviction re-populated the cache with verified bytes.
        assert_eq!(store.cache().get("obj").unwrap(), clean);
        assert_eq!(store.get("obj").unwrap(), clean);
        assert_eq!(store.cache_hits(), 1);

        // Ranged hits revalidate too.
        let mut poisoned = store.cache().get("obj").unwrap().to_vec();
        poisoned[crate::envelope::HEADER_LEN] ^= 0x01;
        store.cache().put("obj", Bytes::from(poisoned)).unwrap();
        let slice = store.get_range("obj", 0, clean.len() as u64).unwrap();
        assert_eq!(slice, clean);
        assert_eq!(store.cache_verify_evictions(), 2);

        let mut poisoned = store.cache().get("obj").unwrap().to_vec();
        poisoned[5] ^= 0x02; // header damage (version field)
        store.cache().put("obj", Bytes::from(poisoned)).unwrap();
        let (slice, _) = store
            .get_part("obj", 0, clean.len() as u64, 0, Duration::ZERO)
            .unwrap();
        assert_eq!(slice, clean);
        assert_eq!(store.cache_verify_evictions(), 3);

        // Damage on the magic is damage too: the entry is not served as
        // some other format, it is evicted.
        let mut poisoned = store.cache().get("obj").unwrap().to_vec();
        poisoned[0] ^= 0x01;
        store.cache().put("obj", Bytes::from(poisoned)).unwrap();
        assert_eq!(store.get("obj").unwrap(), clean);
        assert_eq!(store.cache_verify_evictions(), 4);
    }

    #[test]
    fn offer_cached_rejects_corrupt_envelopes() {
        let store = tiered(1 << 20);
        let clean = Bytes::from(crate::envelope::wrap(b"reassembled chunk"));
        store.put("obj", clean.clone()).unwrap();
        store.cache_forget("obj");

        // A reassembly that lost a bit must not poison the cache...
        let mut bad = clean.to_vec();
        bad[clean.len() - 1] ^= 0x10;
        store.offer_cached("obj", Bytes::from(bad));
        assert!(store.cache().get("obj").is_err(), "corrupt offer rejected");

        // ...while a verified reassembly populates it.
        store.offer_cached("obj", clean.clone());
        assert_eq!(store.cache().get("obj").unwrap(), clean);
    }

    #[test]
    fn head_failure_does_not_fail_a_ranged_miss() {
        use crate::{FailureMode, FlakyStore};
        // Remote whose data path works but whose metadata probe is down:
        // cache population is best-effort, so the read must still succeed.
        let remote = FlakyStore::failing_heads(InMemoryStore::new(), FailureMode::Every(1));
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        store.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        store.cache_forget("obj");
        let data = store.get_range("obj", 0, 10).unwrap();
        assert_eq!(data, Bytes::from_static(b"0123456789"));
        let (data, _) = store.get_part("obj", 0, 10, 0, Duration::ZERO).unwrap();
        assert_eq!(data, Bytes::from_static(b"0123456789"));
        // The probe could not confirm the range covered the whole object,
        // so nothing was cached — but nothing failed either.
        assert!(store.cache().get("obj").is_err());
        assert_eq!(store.cache_misses(), 2);
        assert!(store.remote().head_failures_injected() >= 2);
    }

    #[test]
    fn partial_ranges_skip_the_size_probe_entirely() {
        use crate::{FailureMode, FlakyStore};
        // Every head would fail — but a range that does not start at
        // offset 0 can never populate, so the probe is never even sent.
        let remote = FlakyStore::failing_heads(InMemoryStore::new(), FailureMode::Every(1));
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        store.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        store.cache_forget("obj");
        assert_eq!(store.get_range("obj", 3, 4).unwrap(), Bytes::from_static(b"3456"));
        assert_eq!(store.remote().head_failures_injected(), 0, "no probe paid");
    }

    #[test]
    fn failed_remote_reads_still_count_as_misses() {
        use crate::{FailureMode, FlakyStore};
        let remote = FlakyStore::failing_reads(InMemoryStore::new(), FailureMode::Every(1));
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        store.put("obj", Bytes::from_static(b"abcd")).unwrap();
        store.cache_forget("obj");
        assert!(store.get("obj").is_err());
        assert!(store.get_range("obj", 0, 2).is_err());
        assert!(store.get_part("obj", 0, 2, 0, Duration::ZERO).is_err());
        // A lookup that fell through to the remote is a miss whether or
        // not the remote then failed: injected failures may not inflate
        // the hit rate.
        assert_eq!(store.cache_misses(), 3);
        assert_eq!(store.cache_hits(), 0);
        assert_eq!(store.cache_hit_rate(), 0.0);
    }

    #[test]
    fn multipart_goes_to_the_remote_and_caches_on_first_get() {
        let clock = SimClock::new();
        let remote = SimulatedRemoteStore::new(RemoteConfig::default(), clock);
        let store = TieredStore::new(InMemoryStore::new(), remote, 1 << 20);
        let whole = obj(b"abcd");
        let up = store.begin_multipart("obj").unwrap();
        store
            .put_part(&up, 0, whole.slice(..10), Duration::ZERO)
            .unwrap();
        store
            .put_part(&up, 1, whole.slice(10..), Duration::ZERO)
            .unwrap();
        store.complete_multipart(&up).unwrap();
        assert_eq!(store.cache().total_bytes(), 0, "not cached yet");
        assert_eq!(store.get("obj").unwrap(), whole);
        assert_eq!(store.cache_misses(), 1);
        assert_eq!(store.get("obj").unwrap(), whole);
        assert_eq!(store.cache_hits(), 1);
    }

    #[test]
    fn obs_counters_track_hits_and_misses() {
        use cnr_obs::names as n;
        let obs = cnr_obs::Obs::wall();
        let store = TieredStore::new(InMemoryStore::new(), InMemoryStore::new(), 1 << 20)
            .with_obs(obs.clone());
        store.put("k", obj(b"v")).unwrap();
        store.get("k").unwrap();
        store.get("k").unwrap();
        store.get("missing").unwrap_err();
        assert_eq!(obs.registry().counter(n::CACHE_MISSES), store.cache_misses());
        assert_eq!(obs.registry().counter(n::CACHE_HITS), store.cache_hits());
        assert_eq!(obs.registry().counter(n::CACHE_HITS), 2);
        assert!(obs.registry().counter(n::CACHE_MISSES) >= 1);
    }
}
