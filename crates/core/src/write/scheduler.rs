//! The upload scheduler: every chunk goes up as a multipart object over its
//! writer host's uplink, and no part starts before the §4.3 floor.
//!
//! A host's parts transfer one after another on its own uplink (channel),
//! so the store already queues them. What the scheduler adds is the paper's
//! one rule for the checkpoint link (§4.3): two consecutive checkpoints
//! must not overlap, so that the current one can use all available
//! bandwidth. Its *floor* is the previous checkpoint's durability point,
//! passed to every part as its earliest start, and its running
//! [`UploadScheduler::durable_at`] is what the engine reads (instead of
//! blocking) to decide when this checkpoint is durable.

use crate::error::{CnrError, Result};
use bytes::Bytes;
use cnr_storage::{ObjectStore, PutReceipt};
use std::sync::Mutex;
use std::time::Duration;

/// The simulated instants an upload scheduler keeps.
#[derive(Debug, Clone, Copy)]
struct Floored {
    /// No part starts before this instant.
    floor: Duration,
    /// Everything submitted so far is durable at this instant (never
    /// earlier than the floor).
    durable_at: Duration,
}

/// Schedules chunk uploads for one checkpoint write across all hosts.
pub struct UploadScheduler<'a> {
    store: &'a dyn ObjectStore,
    hosts: usize,
    part_bytes: usize,
    times: Mutex<Floored>,
}

impl<'a> UploadScheduler<'a> {
    /// Creates a scheduler over `store` for `hosts` writer hosts, each
    /// uploading parts of at most `part_bytes`.
    pub fn new(store: &'a dyn ObjectStore, hosts: usize, part_bytes: usize) -> Self {
        assert!(hosts >= 1 && part_bytes >= 1);
        Self {
            store,
            hosts,
            part_bytes,
            times: Mutex::new(Floored {
                floor: Duration::ZERO,
                durable_at: Duration::ZERO,
            }),
        }
    }

    fn times(&self) -> std::sync::MutexGuard<'_, Floored> {
        self.times
            .lock()
            .expect("no upload panics holding the times lock")
    }

    fn note_durable(&self, completed_at: Duration) {
        let mut t = self.times();
        t.durable_at = t.durable_at.max(completed_at);
    }

    /// Uploads `data` under `key` over host `host`'s uplink as a multipart
    /// object of `part_bytes` parts, none starting before the floor.
    /// Returns the assembled object's receipt and the part count. On any
    /// storage error the upload is aborted (no partial object, no staged
    /// parts left behind).
    pub fn upload(&self, host: u16, key: &str, data: Bytes) -> Result<(PutReceipt, u32)> {
        assert!(
            (host as usize) < self.hosts,
            "writer host {host} of {}",
            self.hosts
        );
        let up = self
            .store
            .begin_multipart(key)
            .map_err(CnrError::from)?
            .on_channel(host as u32);
        let nparts = data.len().div_ceil(self.part_bytes).max(1) as u32;
        for p in 0..nparts {
            let lo = p as usize * self.part_bytes;
            let hi = (lo + self.part_bytes).min(data.len());
            let not_before = self.times().floor;
            match self.store.put_part(&up, p, data.slice(lo..hi), not_before) {
                Ok(receipt) => self.note_durable(receipt.completed_at),
                Err(e) => {
                    let _ = self.store.abort_multipart(&up);
                    return Err(e.into());
                }
            }
        }
        match self.store.complete_multipart(&up) {
            Ok(receipt) => {
                self.note_durable(receipt.completed_at);
                Ok((receipt, nparts))
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
        let mut t = self.times();
        t.floor = t.floor.max(floor);
        t.durable_at = t.durable_at.max(t.floor);
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
        self.times().durable_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_cluster::SimClock;
    use cnr_storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};

    fn remote(bw_mbps: f64, channels: u32) -> SimulatedRemoteStore {
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
        let (receipt, parts) = sched.upload(0, "obj", payload.clone()).unwrap();
        assert_eq!(parts, 3);
        assert_eq!(receipt.bytes, 2500);
        assert_eq!(store.get("obj").unwrap(), payload);
    }

    #[test]
    fn empty_payload_is_one_part() {
        let store = InMemoryStore::new();
        let sched = UploadScheduler::new(&store, 1, 1024);
        let (_, parts) = sched.upload(0, "obj", Bytes::new()).unwrap();
        assert_eq!(parts, 1);
        assert_eq!(store.get("obj").unwrap().len(), 0);
    }

    #[test]
    fn parts_queue_one_after_another_on_the_host_uplink() {
        // The host's uplink runs its parts back to back: 3 MiB in three
        // parts at 1 MiB/s is durable at 3 s.
        let store = remote(1.0, 1);
        let sched = UploadScheduler::new(&store, 1, 1024 * 1024);
        let (receipt, parts) = sched.upload(0, "obj", mb(3)).unwrap();
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
        let (receipt, parts) = sched.upload(0, "obj", mb(1)).unwrap();
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
        sched.upload(0, "a", mb(1)).unwrap();
        sched.upload(1, "b", mb(2)).unwrap();
        assert!((sched.durable_at().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn errors_abort_the_upload() {
        use cnr_storage::{FailureMode, Fault, FlakyStore, Op};
        let store =
            FlakyStore::new(InMemoryStore::new(), [Fault::fail(Op::Put, FailureMode::Every(2))]);
        let sched = UploadScheduler::new(&store, 1, 1024);
        // 3 parts; part #2 is injected to fail.
        let err = sched.upload(0, "obj", Bytes::from(vec![0u8; 2500]));
        assert!(matches!(err, Err(CnrError::Storage(_))));
        // No partial object and no staged parts remain.
        assert!(store.get("obj").is_err());
        assert_eq!(store.list("obj").unwrap(), Vec::<String>::new());
    }
}
