//! The upload scheduler: a checkpoint's chunks and its dense object go up
//! as multipart objects over the writer hosts' uplinks, by the link rule
//! of `crate::hosts` — no part before the §4.3 floor, a host's chunks in
//! its list order.
//!
//! A host's parts transfer one after another on its own uplink (channel),
//! so the store already queues them. What the scheduler adds is the paper's
//! one rule for the checkpoint link (§4.3): two consecutive checkpoints
//! must not overlap, so that the current one can use all available
//! bandwidth. Its *floor* is the previous checkpoint's durability point,
//! passed to every part as its earliest start, and its running
//! [`UploadScheduler::durable_at`] — the links' completion point — is what
//! the engine reads (instead of blocking) to decide when this checkpoint
//! is durable.
//!
//! There is one multipart loop, and it places parts by dealing: an object
//! goes up in near-equal parts of at most `part_bytes`, at least one per
//! host it is dealt over, and each part rides the uplink of the one of
//! those hosts that frees first (the lowest index on a tie). A chunk is
//! held only by the host that encoded it, so it is dealt over that host
//! alone, and all its parts go up in the chunk's turn: quantizing runs
//! outside the turn on any worker, but the host's uplink takes its chunks
//! in list order, so a write's part schedule is the one-worker schedule
//! ([`UploadScheduler::upload`]). The dense layers are replicated on every
//! trainer (data parallelism), so any live host can send any slice of them
//! (`UploadScheduler::upload_dealt`): their object does not queue on one
//! channel behind every chunk. However its parts were placed, the object
//! is assembled byte for byte as sent.

use crate::error::{CnrError, Result};
use crate::hosts::Links;
use bytes::Bytes;
use cnr_storage::{ObjectStore, PutReceipt};
use std::time::Duration;

/// Schedules the uploads of one checkpoint write across all hosts.
pub struct UploadScheduler<'a> {
    store: &'a dyn ObjectStore,
    part_bytes: usize,
    links: Links,
}

impl<'a> UploadScheduler<'a> {
    /// Creates a scheduler over `store` for `hosts` writer hosts, each
    /// uploading parts of at most `part_bytes`.
    pub fn new(store: &'a dyn ObjectStore, hosts: usize, part_bytes: usize) -> Self {
        assert!(hosts >= 1 && part_bytes >= 1);
        Self {
            store,
            part_bytes,
            links: Links::new(hosts, Duration::ZERO),
        }
    }

    /// The writer hosts' uplinks.
    pub(crate) fn links(&self) -> &Links {
        &self.links
    }

    /// Uploads `data` under `key` over host `host`'s uplink as a multipart
    /// object of near-equal parts of at most `part_bytes`, none starting
    /// before the floor, and — given the object's `turn` in its host's
    /// list — after the objects before it in that list. Returns the
    /// assembled object's receipt and the part count. On any storage error
    /// the upload is aborted (no partial object, no staged parts left
    /// behind).
    pub fn upload(
        &self,
        host: u16,
        turn: Option<u32>,
        key: &str,
        data: Bytes,
    ) -> Result<(PutReceipt, u32)> {
        self.links.in_turn(host, turn, || self.upload_dealt(&[host], key, data))
    }

    /// [`UploadScheduler::upload`] for an object every host in `hosts`
    /// holds, in no turn: it goes up in `max(hosts.len(), ⌈len /
    /// part_bytes⌉)` near-equal parts, each over the uplink of the host in
    /// `hosts` that frees first, the lowest index on a tie. `hosts` names
    /// the live writer hosts: a dead host's idle uplink carries no part.
    pub(crate) fn upload_dealt(
        &self,
        hosts: &[u16],
        key: &str,
        data: Bytes,
    ) -> Result<(PutReceipt, u32)> {
        let mut up = self.store.begin_multipart(key).map_err(CnrError::from)?;
        let len = data.len();
        let nparts = len.div_ceil(self.part_bytes).max(hosts.len());
        for p in 0..nparts {
            let host = self.links.earliest_free(hosts);
            up.channel = host as u32;
            let part = data.slice(p * len / nparts..(p + 1) * len / nparts);
            match self.store.put_part(&up, p as u32, part, self.links.floor()) {
                Ok(receipt) => self.links.carried(Some(host), receipt.completed_at),
                Err(e) => {
                    let _ = self.store.abort_multipart(&up);
                    return Err(e.into());
                }
            }
        }
        match self.store.complete_multipart(&up) {
            Ok(receipt) => {
                self.links.carried(None, receipt.completed_at);
                Ok((receipt, nparts as u32))
            }
            Err(e) => {
                let _ = self.store.abort_multipart(&up);
                Err(e.into())
            }
        }
    }

    /// Forbids any part from starting before `floor` in simulated time.
    /// The engine sets this to the *previous* checkpoint's durability
    /// point: under the §4.3 relaxation the new interval's snapshot and
    /// quantization overlap the old drain, but the uploads themselves
    /// must queue behind it.
    pub fn set_floor(&self, floor: Duration) {
        self.links.raise_floor(floor);
    }

    /// The store uploads go to.
    pub fn store(&self) -> &'a dyn ObjectStore {
        self.store
    }

    /// Configured multipart part size.
    pub fn part_bytes(&self) -> usize {
        self.part_bytes
    }

    /// Simulated time at which everything submitted so far is durable.
    pub fn durable_at(&self) -> Duration {
        self.links.done_at()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cnr_cluster::SimClock;
    use cnr_storage::flaky::Receipt;
    use cnr_storage::{FlakyStore, InMemoryStore, RemoteConfig, SimulatedRemoteStore};

    /// The channel and receipt of every part `store` forwarded under `key`
    /// since its journal was last taken, in the order they were sent.
    pub(crate) fn sent_parts<S: ObjectStore>(
        store: &FlakyStore<S>,
        key: &str,
    ) -> Vec<(u32, Receipt)> {
        store
            .take_journal()
            .into_iter()
            .filter(|call| call.method == "put_part" && call.key == key)
            .map(|call| (call.channel.unwrap(), call.receipt.unwrap()))
            .collect()
    }

    /// A remote of `channels` `bw_mbps` MiB/s channels, no latency and one
    /// replica.
    pub(crate) fn remote(bw_mbps: f64, channels: u32) -> SimulatedRemoteStore {
        SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: bw_mbps * 1024.0 * 1024.0,
                base_latency: Duration::ZERO,
                replication: 1,
                channels,
            },
            SimClock::new(),
        )
    }

    fn mb(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n * 1024 * 1024])
    }

    #[test]
    fn splits_into_parts_and_assembles() {
        let store = InMemoryStore::new();
        let sched = UploadScheduler::new(&store, 1, 1024);
        let payload = Bytes::from(vec![7u8; 2500]);
        let (receipt, parts) = sched.upload(0, None, "obj", payload.clone()).unwrap();
        assert_eq!(parts, 3);
        assert_eq!(receipt.bytes, 2500);
        assert_eq!(store.get("obj").unwrap(), payload);
    }

    #[test]
    fn empty_payload_is_one_part() {
        let store = InMemoryStore::new();
        let sched = UploadScheduler::new(&store, 1, 1024);
        let (_, parts) = sched.upload(0, None, "obj", Bytes::new()).unwrap();
        assert_eq!(parts, 1);
        assert_eq!(store.get("obj").unwrap().len(), 0);
    }

    #[test]
    fn parts_queue_one_after_another_on_the_host_uplink() {
        // The host's uplink runs its parts back to back: 3 MiB in three
        // parts at 1 MiB/s is durable at 3 s.
        let store = remote(1.0, 1);
        let sched = UploadScheduler::new(&store, 1, 1024 * 1024);
        let (receipt, parts) = sched.upload(0, None, "obj", mb(3)).unwrap();
        assert_eq!(parts, 3);
        assert!((receipt.completed_at.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(sched.durable_at(), receipt.completed_at);
    }

    #[test]
    fn floored_uploads_queue_behind_the_previous_drain() {
        // A 5 s floor (the previous checkpoint's durability point) delays
        // the first part's start: 1 MiB at 1 MiB/s lands at 6 s, not 1 s.
        let store = remote(1.0, 1);
        let sched = UploadScheduler::new(&store, 1, 1024 * 1024);
        sched.set_floor(Duration::from_secs(5));
        let (receipt, parts) = sched.upload(0, None, "obj", mb(1)).unwrap();
        assert_eq!(parts, 1);
        assert!(
            (receipt.completed_at.as_secs_f64() - 6.0).abs() < 1e-6,
            "floored part must start at the floor, got {:?}",
            receipt.completed_at
        );
        assert!(sched.durable_at() >= Duration::from_secs(6));
    }

    #[test]
    fn durable_at_tracks_the_slowest_host() {
        let store = remote(1.0, 2);
        let sched = UploadScheduler::new(&store, 2, 1024 * 1024);
        sched.upload(0, None, "a", mb(1)).unwrap();
        sched.upload(1, None, "b", mb(2)).unwrap();
        assert!((sched.durable_at().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn errors_abort_the_upload() {
        use cnr_storage::{FailureMode, Fault, Op};
        let store =
            FlakyStore::new(InMemoryStore::new(), [Fault::fail(Op::Put, FailureMode::Every(2))]);
        let sched = UploadScheduler::new(&store, 1, 1024);
        // 3 parts; part #2 is injected to fail.
        let err = sched.upload(0, None, "obj", Bytes::from(vec![0u8; 2500]));
        assert!(matches!(err, Err(CnrError::Storage(_))));
        // No partial object and no staged parts remain.
        assert!(store.get("obj").is_err());
        assert_eq!(store.list("obj").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn a_hosts_chunks_take_its_uplink_in_turn_order() {
        // Turn 1 reaches the uplink first, and still goes up second.
        let store = FlakyStore::new(remote(1.0, 1), []);
        let sched = UploadScheduler::new(&store, 1, 1024 * 1024);
        std::thread::scope(|scope| {
            scope.spawn(|| sched.upload(0, Some(1), "second", mb(1)).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            sched.upload(0, Some(0), "first", mb(2)).unwrap();
        });
        let sent: Vec<(String, f64)> = store
            .take_journal()
            .into_iter()
            .filter(|call| call.method == "put_part")
            .map(|call| (call.key, call.receipt.unwrap().completed_at.as_secs_f64()))
            .collect();
        assert_eq!(sent.len(), 3);
        assert_eq!(sent.iter().map(|(key, _)| key.as_str()).collect::<Vec<_>>(), ["first", "first", "second"]);
        assert!((sent[2].1 - 3.0).abs() < 1e-6, "{sent:?}");
    }

    fn channels(parts: &[(u32, Receipt)]) -> Vec<u32> {
        parts.iter().map(|(channel, _)| *channel).collect()
    }

    #[test]
    fn dealt_parts_ride_the_earliest_free_live_host_ties_to_the_lowest() {
        // Host 0's uplink is busy until 2 s, hosts 1 and 2 until 1 s, host
        // 3 is idle but not among the live hosts.
        let store = FlakyStore::new(remote(1.0, 4), []);
        let sched = UploadScheduler::new(&store, 4, 1024 * 1024);
        sched.upload(0, None, "a", mb(2)).unwrap();
        sched.upload(1, None, "b", mb(1)).unwrap();
        sched.upload(2, None, "c", mb(1)).unwrap();
        let payload = Bytes::from((0..4 * 1024 * 1024).map(|i| i as u8).collect::<Vec<_>>());
        let (receipt, parts) = sched
            .upload_dealt(&[2, 1, 0], "dense", payload.clone())
            .unwrap();
        // Four 1 MiB parts: hosts 1 and 2 tie at 1 s (1 first), then all
        // three tie at 2 s (0 first), then hosts 1 and 2 tie at 2 s.
        assert_eq!(parts, 4);
        let sent = sent_parts(&store, "dense");
        assert_eq!(channels(&sent), [1, 2, 0, 1]);
        for ((_, r), start) in sent.iter().zip([1.0, 1.0, 2.0, 2.0]) {
            let started = (r.completed_at - r.transfer_time).as_secs_f64();
            assert!((started - start).abs() < 1e-6, "{r:?} starts at {start} s");
        }
        assert!((receipt.completed_at.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(store.get("dense").unwrap(), payload, "assembled as sent");
    }

    #[test]
    fn no_dealt_part_starts_before_the_floor_even_on_an_idle_host() {
        // Host 1 carries a chunk before the floor is raised; host 0 carries
        // nothing. Every dealt part still waits for the 5 s floor.
        let store = FlakyStore::new(remote(1.0, 2), []);
        let sched = UploadScheduler::new(&store, 2, 1024 * 1024);
        sched.upload(1, None, "chunk", mb(1)).unwrap();
        sched.set_floor(Duration::from_secs(5));
        sched.upload_dealt(&[0, 1], "dense", mb(3)).unwrap();
        let sent = sent_parts(&store, "dense");
        assert_eq!(channels(&sent), [0, 1, 0]);
        for (_, r) in &sent {
            assert!(
                r.completed_at - r.transfer_time >= Duration::from_secs(5),
                "a part started before the floor: {r:?}"
            );
        }
        assert!((sched.durable_at().as_secs_f64() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn with_one_host_every_dealt_part_rides_host_0() {
        let store = FlakyStore::new(remote(1.0, 1), []);
        let sched = UploadScheduler::new(&store, 1, 1024);
        let (_, parts) = sched
            .upload_dealt(&[0], "dense", Bytes::from(vec![3u8; 2500]))
            .unwrap();
        assert_eq!(parts, 3);
        assert_eq!(channels(&sent_parts(&store, "dense")), [0, 0, 0]);
    }

    #[test]
    fn an_object_larger_than_hosts_times_part_bytes_streams_in_bounded_parts() {
        let store = FlakyStore::new(InMemoryStore::new(), []);
        let sched = UploadScheduler::new(&store, 2, 1024);
        let payload = Bytes::from((0..5000).map(|i| (i * 7) as u8).collect::<Vec<_>>());
        let (_, parts) = sched
            .upload_dealt(&[0, 1], "dense", payload.clone())
            .unwrap();
        assert_eq!(parts, 5, "⌈5000 / 1024⌉ parts, more than the two hosts");
        let sizes: Vec<u64> = sent_parts(&store, "dense")
            .iter()
            .map(|(_, r)| r.bytes)
            .collect();
        assert_eq!(sizes, [1000; 5], "near-equal parts of at most part_bytes");
        assert_eq!(store.get("dense").unwrap(), payload);
        // A small object still goes up in one part per host.
        let (_, parts) = sched
            .upload_dealt(&[0, 1], "small", Bytes::from(vec![1u8; 9]))
            .unwrap();
        assert_eq!(parts, 2);
        let sizes: Vec<u64> = sent_parts(&store, "small")
            .iter()
            .map(|(_, r)| r.bytes)
            .collect();
        assert_eq!(sizes, [4, 5]);
    }
}
