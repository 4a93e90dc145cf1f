//! `TimedStore`: an [`ObjectStore`] decorator that times every call from
//! outside — wall busy time, calls and bytes per kind of operation, plus a
//! log of call intervals that become child spans of whatever probe was
//! running. It changes nothing about what is stored or when (in simulated
//! time) it becomes durable.

use bytes::Bytes;
use check_n_run::storage::multipart::{MultipartUpload, PartReceipt};
use check_n_run::storage::{
    CacheStats, GetReceipt, ObjectMeta, ObjectStore, PutReceipt, Result as StoreResult,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kind of a store call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `put`, `put_part`, `complete_multipart`.
    Put,
    /// `get`, `get_range`, `get_part`.
    Get,
    /// `delete`, `abort_multipart`.
    Delete,
    /// `list`, `head`, `begin_multipart`.
    Meta,
}

impl Op {
    /// Span name of this kind of call.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Put => "storage.put",
            Op::Get => "storage.get",
            Op::Delete => "storage.delete",
            Op::Meta => "storage.meta",
        }
    }
}

/// Totals of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Calls made.
    pub calls: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall time spent inside the calls (summed over threads).
    pub busy: Duration,
}

/// One logged call.
#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    /// Kind of call.
    pub op: Op,
    /// Start, since the store's epoch.
    pub start: Duration,
    /// End, since the store's epoch.
    pub end: Duration,
}

#[derive(Debug, Default)]
struct State {
    put: OpStats,
    get: OpStats,
    delete: OpStats,
    meta: OpStats,
    log: Vec<CallRecord>,
}

/// Totals of every kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTotals {
    /// Writes.
    pub put: OpStats,
    /// Reads.
    pub get: OpStats,
    /// Deletes.
    pub delete: OpStats,
    /// Metadata calls.
    pub meta: OpStats,
}

/// Times every call into `S`.
pub struct TimedStore<S: ObjectStore> {
    inner: S,
    epoch: Instant,
    state: Mutex<State>,
}

impl<S: ObjectStore> TimedStore<S> {
    /// Wraps `inner`; call intervals are stamped relative to `epoch`.
    pub fn new(inner: S, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            state: Mutex::new(State::default()),
        }
    }

    /// Totals so far.
    pub fn totals(&self) -> StoreTotals {
        let s = self.state.lock().expect("timed store state poisoned");
        StoreTotals {
            put: s.put,
            get: s.get,
            delete: s.delete,
            meta: s.meta,
        }
    }

    /// Zeroes the totals and the call log (the stored objects stay).
    pub fn reset(&self) {
        *self.state.lock().expect("timed store state poisoned") = State::default();
    }

    /// Takes the call log accumulated since the last drain.
    pub fn drain_log(&self) -> Vec<CallRecord> {
        std::mem::take(&mut self.state.lock().expect("timed store state poisoned").log)
    }

    fn timed<T>(
        &self,
        op: Op,
        call: impl FnOnce(&S) -> StoreResult<T>,
        bytes_of: impl FnOnce(&T) -> u64,
    ) -> StoreResult<T> {
        let start = self.epoch.elapsed();
        let out = call(&self.inner);
        let end = self.epoch.elapsed();
        let bytes = out.as_ref().map_or(0, bytes_of);
        let mut s = self.state.lock().expect("timed store state poisoned");
        let stats = match op {
            Op::Put => &mut s.put,
            Op::Get => &mut s.get,
            Op::Delete => &mut s.delete,
            Op::Meta => &mut s.meta,
        };
        stats.calls += 1;
        stats.bytes += bytes;
        stats.busy += end - start;
        s.log.push(CallRecord { op, start, end });
        out
    }
}

impl<S: ObjectStore> ObjectStore for TimedStore<S> {
    fn put(&self, key: &str, data: Bytes) -> StoreResult<PutReceipt> {
        self.timed(Op::Put, |s| s.put(key, data), |r| r.bytes)
    }

    fn get(&self, key: &str) -> StoreResult<Bytes> {
        self.timed(Op::Get, |s| s.get(key), |b| b.len() as u64)
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        self.timed(Op::Delete, |s| s.delete(key), |()| 0)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        self.timed(Op::Meta, |s| s.list(prefix), |_| 0)
    }

    fn head(&self, key: &str) -> StoreResult<ObjectMeta> {
        self.timed(Op::Meta, |s| s.head(key), |_| 0)
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> StoreResult<Bytes> {
        self.timed(
            Op::Get,
            |s| s.get_range(key, offset, len),
            |b| b.len() as u64,
        )
    }

    fn get_part(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        channel: u32,
        not_before: Duration,
    ) -> StoreResult<(Bytes, GetReceipt)> {
        self.timed(
            Op::Get,
            |s| s.get_part(key, offset, len, channel, not_before),
            |(_, r)| r.bytes,
        )
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn offer_cached(&self, key: &str, data: Bytes) {
        self.inner.offer_cached(key, data);
    }

    fn begin_multipart(&self, key: &str) -> StoreResult<MultipartUpload> {
        self.timed(Op::Meta, |s| s.begin_multipart(key), |_| 0)
    }

    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> StoreResult<PartReceipt> {
        self.timed(
            Op::Put,
            |s| s.put_part(up, part, data, not_before),
            |r| r.bytes,
        )
    }

    // The parts' bytes were counted as they were put; completing moves no
    // new payload.
    fn complete_multipart(&self, up: &MultipartUpload) -> StoreResult<PutReceipt> {
        self.timed(Op::Put, |s| s.complete_multipart(up), |_| 0)
    }

    fn abort_multipart(&self, up: &MultipartUpload) -> StoreResult<()> {
        self.timed(Op::Delete, |s| s.abort_multipart(up), |()| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check_n_run::cluster::SimClock;
    use check_n_run::core::config::CheckpointConfig;
    use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
    use check_n_run::core::policy::{Decision, TrackerAction};
    use check_n_run::core::read::{restore_sharded, RestoreOptions};
    use check_n_run::core::snapshot::SnapshotTaker;
    use check_n_run::core::write::CheckpointWriter;
    use check_n_run::model::{DlrmModel, ModelConfig, ShardPlan};
    use check_n_run::quant::QuantScheme;
    use check_n_run::reader::ReaderState;
    use check_n_run::storage::{RemoteConfig, SimulatedRemoteStore};
    use check_n_run::trainer::{Trainer, TrainerConfig};
    use check_n_run::workload::{DatasetSpec, SyntheticDataset};

    /// Writes a full and an incremental checkpoint into `store` and
    /// restores the chain; returns every stored object and the restored
    /// state.
    fn write_and_restore(
        store: &dyn ObjectStore,
    ) -> (
        Vec<(String, Bytes)>,
        check_n_run::model::ModelState,
        Duration,
    ) {
        let spec = DatasetSpec::tiny(11);
        let dataset = SyntheticDataset::new(spec.clone());
        let model_cfg = ModelConfig::for_dataset(&spec, 8);
        let mut trainer = Trainer::new(
            DlrmModel::new(model_cfg.clone()),
            SimClock::new(),
            TrainerConfig::default(),
        );
        let taker = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2));
        let config = CheckpointConfig {
            chunk_rows: 128,
            part_bytes: 1024,
            writer_hosts: 2,
            reader_hosts: 2,
            ..CheckpointConfig::default()
        };
        let scheme = QuantScheme::Asymmetric { bits: 4 };
        let writer = CheckpointWriter::new(store, "job");
        let mut completed = Duration::ZERO;
        for (id, kind, action) in [
            (0u64, CheckpointKind::Full, TrackerAction::SnapshotReset),
            (
                1u64,
                CheckpointKind::Incremental,
                TrackerAction::SnapshotReset,
            ),
        ] {
            for i in id * 10..(id + 1) * 10 {
                trainer.train_one(&dataset.batch(i));
            }
            let snapshot = taker.take(
                &mut trainer,
                ReaderState::at((id + 1) * 10),
                Decision {
                    kind,
                    tracker: action,
                },
                &config,
            );
            let base = (id > 0).then(|| CheckpointId(id - 1));
            let record = writer
                .write(&snapshot, CheckpointId(id), base, scheme, &config)
                .unwrap();
            completed = record.completed_at;
        }
        let restored = restore_sharded(
            store,
            "job",
            CheckpointId(1),
            &model_cfg,
            &RestoreOptions {
                reader_hosts: 2,
                ..RestoreOptions::default()
            },
            completed,
        )
        .unwrap();
        let objects = store
            .list("")
            .unwrap()
            .into_iter()
            .map(|k| {
                let data = store.get(&k).unwrap();
                (k, data)
            })
            .collect();
        (objects, restored.report.state, restored.ready_at)
    }

    #[test]
    fn decorated_store_is_bit_identical_to_the_plain_one() {
        let remote = RemoteConfig {
            channels: 2,
            ..RemoteConfig::default()
        };
        let plain = SimulatedRemoteStore::new(remote, SimClock::new());
        let timed = TimedStore::new(
            SimulatedRemoteStore::new(remote, SimClock::new()),
            Instant::now(),
        );
        let (plain_objects, plain_state, plain_ready) = write_and_restore(&plain);
        let (timed_objects, timed_state, timed_ready) = write_and_restore(&timed);

        let keys = |o: &[(String, Bytes)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&plain_objects), keys(&timed_objects), "same keys");
        assert!(plain_objects.iter().any(|(k, _)| k.ends_with("/manifest")));
        for ((k, a), (_, b)) in plain_objects.iter().zip(&timed_objects) {
            assert_eq!(a, b, "object {k} (manifests included) is byte-identical");
        }
        assert_eq!(plain_state, timed_state, "restored state is identical");
        assert_eq!(plain_ready, timed_ready, "simulated timing is untouched");
        assert_eq!(plain.total_bytes(), timed.total_bytes());

        // And the decorator saw the traffic.
        let t = timed.totals();
        assert!(t.put.calls > 0 && t.put.bytes > 0);
        assert!(t.get.calls > 0 && t.get.bytes > 0);
        assert!(t.meta.calls > 0);
        assert!(t.put.busy > Duration::ZERO);
        let log = timed.drain_log();
        assert_eq!(
            log.len() as u64,
            t.put.calls + t.get.calls + t.delete.calls + t.meta.calls
        );
        assert!(log.iter().all(|c| c.end >= c.start));
        assert!(timed.drain_log().is_empty());
    }

    #[test]
    fn every_trait_method_delegates() {
        let timed = TimedStore::new(
            SimulatedRemoteStore::new(RemoteConfig::default(), SimClock::new()),
            Instant::now(),
        );
        timed.put("a/x", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(timed.head("a/x").unwrap().size, 10);
        assert_eq!(
            timed.get_range("a/x", 2, 3).unwrap(),
            Bytes::from_static(b"234")
        );
        let (part, receipt) = timed
            .get_part("a/x", 0, 4, 0, Duration::from_secs(1))
            .unwrap();
        assert_eq!((part.len(), receipt.bytes), (4, 4));
        assert!(receipt.completed_at >= Duration::from_secs(1));
        assert_eq!(
            timed.cache_stats(),
            None,
            "the simulated store has no cache tier"
        );

        let up = timed.begin_multipart("a/mp").unwrap();
        timed
            .put_part(&up, 0, Bytes::from_static(b"ab"), Duration::ZERO)
            .unwrap();
        timed
            .put_part(&up, 1, Bytes::from_static(b"cd"), Duration::ZERO)
            .unwrap();
        assert_eq!(timed.complete_multipart(&up).unwrap().bytes, 4);
        assert_eq!(timed.get("a/mp").unwrap(), Bytes::from_static(b"abcd"));
        let dead = timed.begin_multipart("a/dead").unwrap();
        timed
            .put_part(&dead, 0, Bytes::from_static(b"zz"), Duration::ZERO)
            .unwrap();
        timed.abort_multipart(&dead).unwrap();
        assert_eq!(
            timed.list("a/").unwrap(),
            vec!["a/mp".to_string(), "a/x".to_string()]
        );
        timed.delete("a/x").unwrap();
        assert_eq!(timed.total_bytes(), 4);

        let t = timed.totals();
        assert_eq!(
            t.put.bytes,
            10 + 2 + 2 + 2,
            "completed parts are not double counted"
        );
        assert_eq!(t.put.calls, 1 + 3 + 1);
        assert_eq!(t.get.bytes, 3 + 4 + 4);
        assert_eq!(t.delete.calls, 2);
    }
}
