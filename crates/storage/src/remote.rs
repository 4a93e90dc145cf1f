//! Bandwidth-simulated remote object store.
//!
//! The paper's checkpoints go to remote storage whose *write bandwidth* is
//! the limiting resource (§4.3): "two consecutive checkpoints cannot
//! overlap, and writing of the current checkpoint must be completed or
//! cancelled before a new checkpoint can be created. That way, the current
//! checkpoint can utilize all available resources."
//!
//! [`SimulatedRemoteStore`] models exactly that regime: `channels` parallel
//! serialized transfer uplinks, each of configurable bandwidth, with a
//! per-object (or per-part) latency. Every transfer reserves one channel
//! from `max(now, channel_free, not_before)` for
//! `latency + replicated_bytes/bandwidth` and reports when the data became
//! durable. In the production deployment each trainer host writes its shard
//! over its own uplink (§4.4), which is what `channels > 1` models: a
//! sharded writer pins each host's uploads to one channel, so aggregate
//! write bandwidth scales with the host count. The global [`SimClock`] is
//! *not* advanced by writes — uploads run in background CPU processes while
//! training continues (§4.2); the checkpoint controller decides when it
//! must wait (non-overlap rule) and advances the clock then.
//!
//! The multipart protocol is implemented natively: parts buffer in memory
//! and are charged on the upload's channel individually (per-part bandwidth
//! accounting), `complete` makes the assembled object visible at the key,
//! and `abort` discards the buffered parts (bandwidth already spent stays
//! spent — the bytes really crossed the wire).
//!
//! The store holds no objects itself: it is the timing, replication and
//! multipart layer over a *backing* [`ObjectStore`] that says where the
//! bytes live — an [`InMemoryStore`] by default
//! ([`SimulatedRemoteStore::new`]), an [`crate::FsStore`] or a
//! fault-injecting [`crate::FlakyStore`] through
//! [`SimulatedRemoteStore::over`]. The backing sees one `put` per object
//! (a multipart upload reaches it assembled, at `complete`), ranged reads
//! as ranged reads, and every delete; an error it returns comes back to the
//! caller as it is, with the channel time of the failed transfer spent.

use crate::metrics::StoreMetrics;
use crate::multipart::{next_upload_id, MultipartUpload, PartReceipt};
use crate::{InMemoryStore, ObjectMeta, ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;
use cnr_cluster::SimClock;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the simulated remote store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteConfig {
    /// Sustained write bandwidth in bytes/second *per channel*.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer latency (request + commit round trips), charged
    /// per object and per multipart part.
    pub base_latency: Duration,
    /// Replication factor: physical bytes written = logical × replication.
    pub replication: u32,
    /// Parallel transfer uplinks. One per simulated writer host: a sharded
    /// checkpoint writer pins each host's uploads to its own channel.
    pub channels: u32,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        Self {
            // A deliberately constrained per-job share of a storage cluster:
            // the regime the paper operates in.
            bandwidth_bytes_per_sec: 256.0 * 1024.0 * 1024.0,
            base_latency: Duration::from_millis(20),
            replication: 3,
            channels: 1,
        }
    }
}

/// One buffered multipart upload: parts held in memory until `complete`.
struct PendingUpload {
    key: String,
    parts: BTreeMap<u32, Bytes>,
    /// Latest part completion time seen so far.
    durable_at: Duration,
    /// Channel transfer time accumulated by this upload's parts.
    transfer_time: Duration,
}

/// A remote store: transfer-time simulation over a backing store's contents.
pub struct SimulatedRemoteStore {
    inner: Arc<dyn ObjectStore>,
    config: RemoteConfig,
    clock: SimClock,
    /// Absolute simulated time at which each transfer channel becomes free.
    channel_free_at: Mutex<Vec<Duration>>,
    /// Multipart uploads in progress, by upload id.
    pending: Mutex<HashMap<u64, PendingUpload>>,
    metrics: Arc<StoreMetrics>,
}

impl SimulatedRemoteStore {
    /// Creates a remote store on the given clock, holding its objects in
    /// memory.
    pub fn new(config: RemoteConfig, clock: SimClock) -> Self {
        Self::over(Arc::new(InMemoryStore::new()), config, clock)
    }

    /// Creates a remote store on the given clock whose objects live in
    /// `backing`.
    pub fn over(backing: Arc<dyn ObjectStore>, config: RemoteConfig, clock: SimClock) -> Self {
        assert!(
            config.bandwidth_bytes_per_sec > 0.0,
            "bandwidth must be positive"
        );
        assert!(config.replication >= 1, "replication must be >= 1");
        assert!(config.channels >= 1, "need at least one channel");
        Self {
            inner: backing,
            config,
            clock,
            channel_free_at: Mutex::new(vec![Duration::ZERO; config.channels as usize]),
            pending: Mutex::new(HashMap::new()),
            metrics: Arc::new(StoreMetrics::new()),
        }
    }

    /// The store's metrics handle.
    pub fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The configuration in use.
    pub fn config(&self) -> RemoteConfig {
        self.config
    }

    /// Absolute time at which all issued transfers will have completed
    /// (max over channels).
    pub fn drained_at(&self) -> Duration {
        self.channel_free_at
            .lock()
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Blocks (in simulated time) until all issued transfers complete:
    /// advances the shared clock to [`SimulatedRemoteStore::drained_at`].
    /// This is the controller's non-overlap wait.
    pub fn wait_for_drain(&self) -> Duration {
        let t = self.drained_at();
        self.clock.advance_to(t);
        t
    }

    /// Transfer time for writing `bytes` logical bytes over one channel.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let physical = bytes.saturating_mul(self.config.replication as u64);
        self.config.base_latency
            + Duration::from_secs_f64(physical as f64 / self.config.bandwidth_bytes_per_sec)
    }

    /// Transfer time for *reading* `bytes` logical bytes over one channel.
    /// Reads fetch a single replica, so unlike [`Self::transfer_time`]
    /// there is no replication amplification.
    pub fn read_transfer_time(&self, bytes: u64) -> Duration {
        self.config.base_latency
            + Duration::from_secs_f64(bytes as f64 / self.config.bandwidth_bytes_per_sec)
    }

    /// Reserves channel `channel % channels` for a transfer of duration
    /// `transfer` starting no earlier than `not_before`, returning the
    /// completion time.
    fn reserve_for(&self, channel: u32, transfer: Duration, not_before: Duration) -> Duration {
        let mut free_at = self.channel_free_at.lock();
        let slot = (channel as usize) % free_at.len();
        let start = free_at[slot].max(self.clock.now()).max(not_before);
        let end = start + transfer;
        free_at[slot] = end;
        end
    }

    /// Reserves channel `channel % channels` for writing `bytes` starting
    /// no earlier than `not_before`, returning (transfer_time, completed_at).
    fn reserve(
        &self,
        channel: u32,
        bytes: u64,
        not_before: Duration,
    ) -> (Duration, Duration) {
        let transfer = self.transfer_time(bytes);
        let end = self.reserve_for(channel, transfer, not_before);
        (transfer, end)
    }

    /// Reserves the channel that frees earliest (used by whole-object puts,
    /// which carry no host affinity).
    fn reserve_least_loaded(&self, bytes: u64) -> (Duration, Duration) {
        let slot = {
            let free_at = self.channel_free_at.lock();
            free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        self.reserve(slot as u32, bytes, Duration::ZERO)
    }
}

impl ObjectStore for SimulatedRemoteStore {
    fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
        let bytes = data.len() as u64;
        let (transfer, completed_at) = self.reserve_least_loaded(bytes);
        let receipt_inner = self.inner.put(key, data)?;
        self.metrics.record_put(bytes, transfer);
        Ok(PutReceipt {
            key: receipt_inner.key,
            bytes,
            transfer_time: transfer,
            completed_at,
        })
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let data = self.inner.get(key)?;
        self.metrics.record_get(data.len() as u64);
        Ok(data)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)?;
        self.metrics.record_delete();
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.inner.head(key)
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    // --- Native ranged reads: per-part download bandwidth accounting. ----
    //
    // Each ranged read occupies its download channel for
    // `base_latency + len / bandwidth` (one replica — no replication
    // amplification on reads), so a sharded restore's fetch time scales
    // down with the number of reader hosts exactly as the write path's
    // durability scales with writer hosts.

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes> {
        let data = self.inner.get_range(key, offset, len)?;
        self.metrics.record_get(data.len() as u64);
        Ok(data)
    }

    fn get_part(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        channel: u32,
        not_before: Duration,
    ) -> Result<(Bytes, crate::GetReceipt)> {
        let data = self.inner.get_range(key, offset, len)?;
        let bytes = data.len() as u64;
        let transfer = self.read_transfer_time(bytes);
        let completed_at = self.reserve_for(channel, transfer, not_before);
        self.metrics.record_get(bytes);
        Ok((
            data,
            crate::GetReceipt {
                bytes,
                transfer_time: transfer,
                completed_at,
            },
        ))
    }

    // --- Native multipart: in-memory part buffers, per-part bandwidth. ---

    fn begin_multipart(&self, key: &str) -> Result<MultipartUpload> {
        if key.is_empty() {
            return Err(StorageError::InvalidKey("empty key".into()));
        }
        let id = next_upload_id();
        self.pending.lock().insert(
            id,
            PendingUpload {
                key: key.to_string(),
                parts: BTreeMap::new(),
                durable_at: Duration::ZERO,
                transfer_time: Duration::ZERO,
            },
        );
        Ok(MultipartUpload {
            key: key.to_string(),
            id,
            channel: 0,
        })
    }

    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> Result<PartReceipt> {
        let bytes = data.len() as u64;
        let (transfer, completed_at) = self.reserve(up.channel, bytes, not_before);
        {
            let mut pending = self.pending.lock();
            let entry = pending
                .get_mut(&up.id)
                .ok_or_else(|| StorageError::NotFound(format!("upload {} of {}", up.id, up.key)))?;
            entry.parts.insert(part, data);
            entry.durable_at = entry.durable_at.max(completed_at);
            entry.transfer_time += transfer;
        }
        self.metrics.record_put(bytes, transfer);
        Ok(PartReceipt {
            part,
            bytes,
            transfer_time: transfer,
            completed_at,
        })
    }

    fn complete_multipart(&self, up: &MultipartUpload) -> Result<PutReceipt> {
        let entry = self
            .pending
            .lock()
            .remove(&up.id)
            .ok_or_else(|| StorageError::NotFound(format!("upload {} of {}", up.id, up.key)))?;
        let object = if entry.parts.len() == 1 {
            // A single part is the object: the buffer the writer built
            // moves through as it is.
            entry.parts.into_values().next().expect("one part")
        } else {
            let mut joined = Vec::with_capacity(entry.parts.values().map(Bytes::len).sum());
            for part in entry.parts.values() {
                joined.extend_from_slice(part);
            }
            Bytes::from(joined)
        };
        let bytes = object.len() as u64;
        // The bytes already transferred part by part; completing is one
        // commit round trip, not a re-upload.
        let completed_at = entry.durable_at.max(self.clock.now()) + self.config.base_latency;
        self.inner.put(&entry.key, object)?;
        Ok(PutReceipt {
            key: entry.key,
            bytes,
            transfer_time: entry.transfer_time,
            completed_at,
        })
    }

    fn abort_multipart(&self, up: &MultipartUpload) -> Result<()> {
        // Bandwidth stays spent; the buffered parts are simply dropped and
        // nothing becomes visible at the key.
        self.pending.lock().remove(&up.id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> Bytes {
        Bytes::from(vec![0u8; (n * 1024 * 1024) as usize])
    }

    fn store_with(bw_mbps: f64, latency_ms: u64, repl: u32) -> (SimulatedRemoteStore, SimClock) {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: bw_mbps * 1024.0 * 1024.0,
                base_latency: Duration::from_millis(latency_ms),
                replication: repl,
                channels: 1,
            },
            clock.clone(),
        );
        (store, clock)
    }

    #[test]
    fn conformance() {
        let (store, _clock) = store_with(1000.0, 0, 1);
        crate::trait_tests::conformance(&store);
    }

    /// The layer is the same layer over any backing: a filesystem one, and
    /// a fault-injecting one that injects nothing.
    #[test]
    fn conformance_over_fs_and_flaky_backings() {
        use crate::{FailureMode, Fault, FlakyStore, FsStore, Op};
        let config = RemoteConfig {
            base_latency: Duration::ZERO,
            ..RemoteConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("cnr-remote-over-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = Arc::new(FsStore::open(&dir).unwrap());
        crate::trait_tests::conformance(&SimulatedRemoteStore::over(fs, config, SimClock::new()));
        let _ = std::fs::remove_dir_all(&dir);

        let never = Fault::fail(Op::Put, FailureMode::Every(0));
        let flaky = Arc::new(FlakyStore::new(InMemoryStore::new(), [never]));
        let store = SimulatedRemoteStore::over(flaky.clone(), config, SimClock::new());
        crate::trait_tests::conformance(&store);
        assert_eq!(flaky.injected(0), 0);
    }

    #[test]
    fn transfer_time_scales_with_size_and_replication() {
        let (store, _clock) = store_with(100.0, 0, 1);
        let t1 = store.transfer_time(100 * 1024 * 1024);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);

        let (store3, _clock) = store_with(100.0, 0, 3);
        let t3 = store3.transfer_time(100 * 1024 * 1024);
        assert!((t3.as_secs_f64() - 3.0).abs() < 1e-6, "3x replication = 3x time");
    }

    #[test]
    fn serialized_channel_queues_transfers() {
        let (store, _clock) = store_with(100.0, 0, 1);
        // Two 100 MB puts at 100 MB/s: first completes at 1s, second at 2s.
        let r1 = store.put("a", mb(100)).unwrap();
        let r2 = store.put("b", mb(100)).unwrap();
        assert!((r1.completed_at.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((r2.completed_at.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn puts_do_not_advance_global_clock() {
        let (store, clock) = store_with(10.0, 0, 1);
        store.put("a", mb(100)).unwrap(); // 10 seconds of transfer
        assert_eq!(clock.now(), Duration::ZERO, "uploads run in background");
    }

    #[test]
    fn wait_for_drain_advances_clock() {
        let (store, clock) = store_with(100.0, 0, 1);
        store.put("a", mb(100)).unwrap();
        let t = store.wait_for_drain();
        assert_eq!(clock.now(), t);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn channel_idles_until_clock_catches_up() {
        let (store, clock) = store_with(100.0, 0, 1);
        store.put("a", mb(100)).unwrap(); // busy until t=1s
        clock.advance(Duration::from_secs(10)); // training continues
        let r = store.put("b", mb(100)).unwrap();
        // Channel was free at t=1s; put starts at now=10s, ends at 11s.
        assert!((r.completed_at.as_secs_f64() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn base_latency_applies_per_object() {
        let (store, _clock) = store_with(1000.0, 50, 1);
        let r = store.put("tiny", Bytes::from_static(b"x")).unwrap();
        assert!(r.transfer_time >= Duration::from_millis(50));
    }

    #[test]
    fn metrics_track_bandwidth_and_capacity() {
        let (store, _clock) = store_with(100.0, 0, 3);
        store.put("a", mb(10)).unwrap();
        store.put("b", mb(20)).unwrap();
        store.delete("a").unwrap();
        let snap = store.metrics().snapshot();
        assert_eq!(snap.bytes_put, 30 * 1024 * 1024);
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.deletes, 1);
        assert_eq!(store.total_bytes(), 20 * 1024 * 1024);
    }

    /// A put, a delete and a completed multipart upload each reach the
    /// backing as one call: the remote times transfers, it does not scan
    /// what the backing holds (a directory walk on an `FsStore`).
    #[test]
    fn each_mutation_is_one_backing_call() {
        let backing = Arc::new(crate::FlakyStore::new(InMemoryStore::new(), []));
        let store =
            SimulatedRemoteStore::over(backing.clone(), RemoteConfig::default(), SimClock::new());
        let calls = || backing.take_journal().len();
        store.put("a", Bytes::from_static(b"abc")).unwrap();
        assert_eq!(calls(), 1, "put");
        store.delete("a").unwrap();
        assert_eq!(calls(), 1, "delete");
        let up = store.begin_multipart("b").unwrap();
        store
            .put_part(&up, 0, Bytes::from_static(b"de"), Duration::ZERO)
            .unwrap();
        store
            .put_part(&up, 1, Bytes::from_static(b"f"), Duration::ZERO)
            .unwrap();
        assert_eq!(calls(), 0, "parts buffer in the remote");
        store.complete_multipart(&up).unwrap();
        assert_eq!(calls(), 1, "complete_multipart");
        assert_eq!(backing.inner().get("b").unwrap(), Bytes::from_static(b"def"));
    }

    #[test]
    fn parallel_channels_overlap_transfers() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 100.0 * 1024.0 * 1024.0,
                base_latency: Duration::ZERO,
                replication: 1,
                channels: 4,
            },
            clock,
        );
        // Four 100 MB puts land on four distinct channels: all durable at 1s.
        for i in 0..4 {
            let r = store.put(&format!("k{i}"), mb(100)).unwrap();
            assert!((r.completed_at.as_secs_f64() - 1.0).abs() < 1e-6);
        }
        // The fifth queues behind the earliest-free channel.
        let r = store.put("k4", mb(100)).unwrap();
        assert!((r.completed_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((store.drained_at().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn multipart_parts_are_charged_individually() {
        let (store, _clock) = store_with(100.0, 0, 1);
        let up = store.begin_multipart("obj").unwrap();
        let r0 = store.put_part(&up, 0, mb(100), Duration::ZERO).unwrap();
        let r1 = store.put_part(&up, 1, mb(100), Duration::ZERO).unwrap();
        assert!((r0.completed_at.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((r1.completed_at.as_secs_f64() - 2.0).abs() < 1e-6);
        // Not visible until complete.
        assert!(store.get("obj").is_err());
        let r = store.complete_multipart(&up).unwrap();
        assert_eq!(r.bytes, 200 * 1024 * 1024);
        // Complete is a commit round trip, not a re-upload: durability is
        // the last part's completion (zero latency here), not 2x the bytes.
        assert!((r.completed_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(store.get("obj").unwrap().len(), 200 * 1024 * 1024);
    }

    #[test]
    fn multipart_respects_not_before_backpressure() {
        let (store, _clock) = store_with(100.0, 0, 1);
        let up = store.begin_multipart("obj").unwrap();
        let r = store
            .put_part(&up, 0, mb(100), Duration::from_secs(5))
            .unwrap();
        assert!((r.completed_at.as_secs_f64() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn multipart_channel_affinity_pins_uplink() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 100.0 * 1024.0 * 1024.0,
                base_latency: Duration::ZERO,
                replication: 1,
                channels: 2,
            },
            clock,
        );
        // Two uploads pinned to the same channel serialize...
        let a = store.begin_multipart("a").unwrap().on_channel(0);
        let b = store.begin_multipart("b").unwrap().on_channel(0);
        store.put_part(&a, 0, mb(100), Duration::ZERO).unwrap();
        let rb = store.put_part(&b, 0, mb(100), Duration::ZERO).unwrap();
        assert!((rb.completed_at.as_secs_f64() - 2.0).abs() < 1e-6);
        // ...while a third on the other channel overlaps them.
        let c = store.begin_multipart("c").unwrap().on_channel(1);
        let rc = store.put_part(&c, 0, mb(100), Duration::ZERO).unwrap();
        assert!((rc.completed_at.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ranged_reads_charge_one_replica_on_the_channel() {
        // Replication 3 amplifies writes but not reads.
        let (store, _clock) = store_with(100.0, 0, 3);
        store.put("obj", mb(100)).unwrap(); // write busy until 3s
        let (data, r) = store
            .get_part("obj", 0, 100 * 1024 * 1024, 0, Duration::ZERO)
            .unwrap();
        assert_eq!(data.len(), 100 * 1024 * 1024);
        assert!((r.transfer_time.as_secs_f64() - 1.0).abs() < 1e-6, "one replica");
        // The read queues behind the write on the shared channel: 3s + 1s.
        assert!((r.completed_at.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_read_channels_overlap_fetches() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 100.0 * 1024.0 * 1024.0,
                base_latency: Duration::ZERO,
                replication: 1,
                channels: 4,
            },
            clock,
        );
        store.put("obj", mb(400)).unwrap(); // lands on one channel
        let free = store.drained_at();
        // Four 100 MB ranged reads on four distinct channels all complete
        // one second after the slowest channel frees.
        for c in 0..4u32 {
            let (_, r) = store
                .get_part("obj", c as u64 * 100 * 1024 * 1024, 100 * 1024 * 1024, c, Duration::ZERO)
                .unwrap();
            assert!(r.completed_at <= free + Duration::from_secs(1) + Duration::from_micros(1));
        }
    }

    #[test]
    fn ranged_read_respects_not_before() {
        let (store, _clock) = store_with(100.0, 0, 1);
        store.put("obj", mb(100)).unwrap(); // busy until 1s
        let (_, r) = store
            .get_part("obj", 0, 1024, 0, Duration::from_secs(10))
            .unwrap();
        assert!(r.completed_at >= Duration::from_secs(10));
    }

    #[test]
    fn out_of_range_read_is_an_error() {
        let (store, _clock) = store_with(100.0, 0, 1);
        store.put("obj", Bytes::from_static(b"abc")).unwrap();
        assert!(matches!(
            store.get_range("obj", 2, 2),
            Err(StorageError::OutOfRange(_))
        ));
        assert!(matches!(
            store.get_part("obj", 0, 4, 0, Duration::ZERO),
            Err(StorageError::OutOfRange(_))
        ));
    }

    #[test]
    fn multipart_abort_discards_everything() {
        let (store, _clock) = store_with(100.0, 0, 1);
        let up = store.begin_multipart("obj").unwrap();
        store.put_part(&up, 0, mb(1), Duration::ZERO).unwrap();
        store.abort_multipart(&up).unwrap();
        assert!(store.get("obj").is_err());
        assert_eq!(store.total_bytes(), 0);
        // The upload handle is dead: further parts error.
        assert!(store.put_part(&up, 1, mb(1), Duration::ZERO).is_err());
        assert!(store.complete_multipart(&up).is_err());
    }
}
