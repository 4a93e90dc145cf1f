//! The Check-N-Run controller (§4.4): checkpoint registry, validity, and
//! retention.
//!
//! A checkpoint becomes *valid* only when every chunk, the dense object
//! and the manifest are durable; the controller then registers it and
//! applies the retention policy — keep the restore chains of the most
//! recent `retained_chains` checkpoints, delete everything else. Chain-aware retention is what makes
//! the capacity curves of Figure 16 policy-dependent: one-shot keeps
//! {baseline, latest delta}, consecutive keeps everything, intermittent
//! resets at each re-baseline.

use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointId, CheckpointKind, Manifest};
use cnr_storage::{ObjectStore, StorageError};
use std::collections::BTreeMap;
use std::collections::HashSet;
use std::sync::Arc;

/// A registered (valid) checkpoint's bookkeeping entry.
#[derive(Debug, Clone)]
struct Registered {
    kind: CheckpointKind,
    base: Option<CheckpointId>,
    /// All object keys belonging to this checkpoint: chunks, the dense
    /// object, and the manifest last.
    keys: Vec<String>,
    bytes: u64,
}

/// Tracks valid checkpoints of one job and enforces retention.
pub struct CheckpointController {
    store: Arc<dyn ObjectStore>,
    job: String,
    retained_chains: usize,
    checkpoints: BTreeMap<CheckpointId, Registered>,
    /// Live delta-WAL segment keys (engine-reported). They are owned
    /// objects for the orphan sweep and scrub targets via [`Self::live_keys`].
    /// WAL keys are flat (`{job}/wal-...`, no id directory), so the sweep
    /// would leave them alone anyway — tracking them keeps the ownership
    /// story explicit and puts them on the scrubber's work-list.
    wal_segments: Vec<String>,
    orphans_swept: u64,
    collection_failures: u64,
}

impl CheckpointController {
    /// Creates a controller for `job` retaining `retained_chains` chains.
    pub fn new(store: Arc<dyn ObjectStore>, job: impl Into<String>, retained_chains: usize) -> Self {
        assert!(retained_chains >= 1, "must retain at least one chain");
        Self {
            store,
            job: job.into(),
            retained_chains,
            checkpoints: BTreeMap::new(),
            wal_segments: Vec::new(),
            orphans_swept: 0,
            collection_failures: 0,
        }
    }

    /// Declares a stored checkpoint valid and applies retention. Returns the
    /// ids that were deleted.
    ///
    /// Registration also garbage-collects *orphans*: objects under the
    /// job's namespace that no valid checkpoint owns — chunks of writes
    /// that failed before their manifest landed, and staged parts of
    /// aborted multipart uploads. A failed write cannot clean up after
    /// itself (the writer is gone), so the next successful registration
    /// sweeps for it. That keeps the job's storage footprint
    /// crash-consistent: after every register, bytes held == bytes owned
    /// by valid checkpoints (plus any pre-existing manifested checkpoints
    /// this controller instance has never seen, which are left intact).
    ///
    /// The checkpoint is valid once its manifest is durable, so it is
    /// recorded first, and a store call that fails afterwards never undoes
    /// that: collecting garbage is best effort. A failed `list` or orphan
    /// `delete` skips what it could not collect, and the next registration
    /// sweeps again. Retention deletes a doomed checkpoint's manifest
    /// first, and the checkpoint leaves the books only once that delete
    /// succeeds — if it fails, the next registration retries it; a chunk
    /// whose delete fails after that is manifestless debris the next sweep
    /// collects. `NotFound` counts as deleted. Each failed call counts in
    /// [`Self::collection_failures`].
    pub fn register(&mut self, manifest: &Manifest, manifest_key: &str) -> Result<Vec<CheckpointId>> {
        let mut keys: Vec<String> = manifest.chunks.iter().map(|c| c.key.clone()).collect();
        keys.push(manifest.dense.key.clone());
        keys.push(manifest_key.to_string());
        let bytes = manifest.total_bytes();
        self.checkpoints.insert(
            manifest.id,
            Registered {
                kind: manifest.kind,
                base: manifest.base,
                keys,
                bytes,
            },
        );
        self.sweep_orphans();
        self.apply_retention()
    }

    /// Deletes orphaned objects under the job's prefix. An object is an
    /// orphan when (a) it is multipart staging debris (its key contains the
    /// `.mp-` infix — always transient, and no upload is in progress while
    /// the controller registers), or (b) it lives under a checkpoint-id
    /// directory that has **no manifest object**: writers store the
    /// manifest last, so a manifest-less directory can only be the debris
    /// of a write that died partway. Directories *with* a manifest are
    /// never touched, even when this controller has no record of them — a
    /// freshly constructed controller over a pre-existing store (crash
    /// recovery) must not eat earlier valid checkpoints.
    fn sweep_orphans(&mut self) {
        let job_prefix = format!("{}/", self.job);
        let Ok(keys) = self.store.list(&job_prefix) else {
            self.collection_failures += 1;
            return;
        };
        let owned: HashSet<&str> = self
            .checkpoints
            .values()
            .flat_map(|r| r.keys.iter().map(String::as_str))
            .chain(self.wal_segments.iter().map(String::as_str))
            .collect();
        // Checkpoint-id directories that contain a manifest: `{job}/{id}`
        // for every listed `{job}/{id}/manifest`.
        let with_manifest: HashSet<&str> = keys
            .iter()
            .filter_map(|k| k.strip_suffix("/manifest"))
            .collect();

        let mut orphans = Vec::new();
        for key in &keys {
            if owned.contains(key.as_str()) {
                continue;
            }
            let staging_debris = key.contains(".mp-");
            // `{job}/{id}/...` → `{job}/{id}`; keys directly under the job
            // prefix (no further '/') have no id directory and are left
            // alone unless they are staging debris.
            let id_dir = key[job_prefix.len()..]
                .find('/')
                .map(|i| &key[..job_prefix.len() + i]);
            let manifestless = id_dir.is_some_and(|d| !with_manifest.contains(d));
            if staging_debris || manifestless {
                orphans.push(key);
            }
        }
        for key in orphans {
            if self.delete(key) {
                self.orphans_swept += 1;
            }
        }
    }

    /// Deletes `key`, counting a failure; `NotFound` counts as deleted.
    fn delete(&mut self, key: &str) -> bool {
        match self.store.delete(key) {
            Ok(()) | Err(StorageError::NotFound(_)) => true,
            Err(_) => {
                self.collection_failures += 1;
                false
            }
        }
    }

    /// Orphaned objects deleted over this controller's lifetime.
    pub fn orphans_swept(&self) -> u64 {
        self.orphans_swept
    }

    /// Store calls of the orphan sweep and of retention that failed over
    /// this controller's lifetime; what they left is collected by a later
    /// registration.
    pub fn collection_failures(&self) -> u64 {
        self.collection_failures
    }

    /// The newest valid checkpoint, if any.
    pub fn latest(&self) -> Option<CheckpointId> {
        self.checkpoints.keys().next_back().copied()
    }

    /// All live checkpoint ids, ascending.
    pub fn live(&self) -> Vec<CheckpointId> {
        self.checkpoints.keys().copied().collect()
    }

    /// Total logical bytes held by live checkpoints.
    pub fn live_bytes(&self) -> u64 {
        self.checkpoints.values().map(|r| r.bytes).sum()
    }

    /// Every object key owned by a live checkpoint (chunks, dense objects
    /// and manifests)
    /// plus any unreclaimed delta-WAL segments — the work-list of a
    /// background scrub sweep.
    pub fn live_keys(&self) -> Vec<String> {
        self.checkpoints
            .values()
            .flat_map(|r| r.keys.iter().cloned())
            .chain(self.wal_segments.iter().cloned())
            .collect()
    }

    /// Replaces the set of live delta-WAL segment keys. The engine reports
    /// the writer's current segments after each truncation and before each
    /// scrub sweep, so sweeps always cover the live log.
    pub fn set_wal_segments(&mut self, keys: Vec<String>) {
        self.wal_segments = keys;
    }

    /// The restore chain of `id` (oldest first), from the registry.
    pub fn chain_of(&self, id: CheckpointId) -> Result<Vec<CheckpointId>> {
        let mut chain = vec![id];
        let mut cur = id;
        loop {
            let reg = self
                .checkpoints
                .get(&cur)
                .ok_or_else(|| CnrError::Corrupt(format!("chain references unknown {cur}")))?;
            if reg.kind == CheckpointKind::Full {
                break;
            }
            let base = reg
                .base
                .ok_or_else(|| CnrError::Corrupt(format!("incremental {cur} has no base")))?;
            chain.push(base);
            cur = base;
        }
        chain.reverse();
        Ok(chain)
    }

    /// Deletes every checkpoint not needed by the newest `retained_chains`
    /// checkpoints' restore chains, manifest first, and returns the ids
    /// whose manifest is gone; a checkpoint whose manifest delete failed
    /// stays registered (see [`Self::register`]).
    fn apply_retention(&mut self) -> Result<Vec<CheckpointId>> {
        let newest: Vec<CheckpointId> = self
            .checkpoints
            .keys()
            .rev()
            .take(self.retained_chains)
            .copied()
            .collect();
        let mut needed: HashSet<CheckpointId> = HashSet::new();
        for id in newest {
            for link in self.chain_of(id)? {
                needed.insert(link);
            }
        }
        let doomed: Vec<CheckpointId> = self
            .checkpoints
            .keys()
            .filter(|id| !needed.contains(id))
            .copied()
            .collect();
        let mut deleted = Vec::new();
        for id in doomed {
            let reg = self.checkpoints.remove(&id).expect("doomed id exists");
            let (manifest, rest) = reg.keys.split_last().expect("the manifest is the last key");
            if !self.delete(manifest) {
                self.checkpoints.insert(id, reg);
                continue;
            }
            for key in rest {
                self.delete(key);
            }
            deleted.push(id);
        }
        Ok(deleted)
    }

    /// The job this controller manages.
    pub fn job(&self) -> &str {
        &self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{DenseLayers, TableMeta};
    use bytes::Bytes;
    use cnr_reader::ReaderState;
    use cnr_storage::InMemoryStore;

    /// Builds and stores a synthetic manifest (+ fake chunk objects).
    fn store_ckpt(
        store: &InMemoryStore,
        id: u64,
        kind: CheckpointKind,
        base: Option<u64>,
        chunk_bytes: usize,
    ) -> (Manifest, String) {
        let cid = CheckpointId(id);
        let chunk_key = Manifest::chunk_key("job", cid, 0, 0);
        store
            .put(&chunk_key, Bytes::from(vec![0u8; chunk_bytes]))
            .unwrap();
        let dense = DenseLayers {
            id: cid,
            iteration: id * 100,
            bottom: vec![],
            top: vec![],
        }
        .encode_enveloped();
        let dense = crate::manifest::DenseMeta {
            key: Manifest::dense_key("job", cid),
            bytes: store.put(&Manifest::dense_key("job", cid), dense.into()).unwrap().bytes,
            bottom_params: 0,
            top_params: 0,
        };
        let manifest = Manifest {
            id: cid,
            kind,
            base: base.map(CheckpointId),
            iteration: id * 100,
            reader_state: ReaderState::at(id * 100),
            tables: vec![TableMeta {
                rows: 10,
                dim: 4,
                has_optimizer_state: false,
            }],
            dense,
            chunks: vec![crate::manifest::ChunkMeta {
                key: chunk_key,
                rows: 10,
                bytes: chunk_bytes as u64,
                parts: 1,
                table: 0,
                first_row: 0,
                last_row: 9,
            }],
            payload_bytes: chunk_bytes as u64,
        };
        let key = Manifest::key("job", cid);
        store
            .put(&key, Bytes::from(manifest.encode_enveloped()))
            .unwrap();
        (manifest, key)
    }

    #[test]
    fn one_shot_retention_keeps_baseline_and_latest() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        let (m0, k0) = store_ckpt(&store, 0, CheckpointKind::Full, None, 100);
        ctl.register(&m0, &k0).unwrap();
        // Three one-shot incrementals, all based on 0.
        for i in 1..=3 {
            let (m, k) = store_ckpt(&store, i, CheckpointKind::Incremental, Some(0), 50);
            let deleted = ctl.register(&m, &k).unwrap();
            if i > 1 {
                // The previous incremental is obsolete.
                assert_eq!(deleted, vec![CheckpointId(i - 1)]);
            }
        }
        assert_eq!(ctl.live(), vec![CheckpointId(0), CheckpointId(3)]);
        // Deleted objects are actually gone from the store.
        assert!(store.get(&Manifest::key("job", CheckpointId(1))).is_err());
        assert!(store
            .get(&Manifest::chunk_key("job", CheckpointId(1), 0, 0))
            .is_err());
    }

    #[test]
    fn consecutive_retention_keeps_whole_chain() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        let (m0, k0) = store_ckpt(&store, 0, CheckpointKind::Full, None, 100);
        ctl.register(&m0, &k0).unwrap();
        for i in 1..=4 {
            let (m, k) = store_ckpt(&store, i, CheckpointKind::Incremental, Some(i - 1), 30);
            let deleted = ctl.register(&m, &k).unwrap();
            assert!(deleted.is_empty(), "consecutive chains delete nothing");
        }
        assert_eq!(ctl.live().len(), 5);
        assert_eq!(ctl.live_bytes(), {
            let manifests: u64 = ctl
                .live()
                .iter()
                .map(|&id| {
                    Manifest::decode(&store.get(&Manifest::key("job", id)).unwrap())
                        .unwrap()
                        .total_bytes()
                })
                .sum();
            manifests
        });
    }

    #[test]
    fn failed_retention_deletes_are_retried_or_swept_later() {
        use cnr_storage::{FailureMode, Fault, FlakyStore, Op};
        let store = Arc::new(FlakyStore::new(
            InMemoryStore::new(),
            [
                Fault::fail(Op::Delete, FailureMode::Once(1)).on_keys("manifest"),
                Fault::fail(Op::Delete, FailureMode::Once(1)).on_keys("-chunk-"),
            ],
        ));
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        let mut register = |id| {
            let (m, k) = store_ckpt(store.inner(), id, CheckpointKind::Full, None, 100);
            ctl.register(&m, &k).unwrap()
        };
        // Checkpoint 0's manifest delete fails: it stays, whole and owned.
        register(0);
        assert!(register(1).is_empty());
        // Its retry succeeds; the chunk delete behind it fails, leaving
        // manifestless debris beside checkpoint 2's chunk, dense object and
        // manifest.
        assert_eq!(register(2), [CheckpointId(0), CheckpointId(1)]);
        assert_eq!(store.list("job/").unwrap().len(), 1 + 3);
        // The next sweep collects it.
        assert_eq!(register(3), [CheckpointId(2)]);
        assert_eq!(store.list("job/").unwrap().len(), 3);
        assert_eq!((ctl.collection_failures(), ctl.orphans_swept()), (2, 1));
    }

    /// A doomed checkpoint whose manifest is already gone when retention
    /// deletes it (an earlier, unrecorded delete got there) leaves the
    /// books as deleted, with its other objects, and counts no failure.
    #[test]
    fn a_manifest_delete_that_finds_nothing_counts_as_deleted() {
        use cnr_storage::{FailureMode, Fault, FlakyStore, Op};
        let gone = Fault::gone(Op::Delete, FailureMode::Once(1)).on_keys("manifest");
        let store = Arc::new(FlakyStore::new(InMemoryStore::new(), [gone]));
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        let (m0, k0) = store_ckpt(store.inner(), 0, CheckpointKind::Full, None, 100);
        ctl.register(&m0, &k0).unwrap();
        let (m1, k1) = store_ckpt(store.inner(), 1, CheckpointKind::Full, None, 100);
        assert_eq!(ctl.register(&m1, &k1).unwrap(), [CheckpointId(0)]);
        assert_eq!(store.injected(0), 1);
        assert_eq!(ctl.live(), [CheckpointId(1)]);
        assert_eq!(ctl.collection_failures(), 0);
        assert!(store.get(&m0.chunks[0].key).is_err(), "its chunk went too");
    }

    #[test]
    fn rebaseline_drops_the_old_chain() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        let (m0, k0) = store_ckpt(&store, 0, CheckpointKind::Full, None, 100);
        ctl.register(&m0, &k0).unwrap();
        let (m1, k1) = store_ckpt(&store, 1, CheckpointKind::Incremental, Some(0), 40);
        ctl.register(&m1, &k1).unwrap();
        // New baseline: everything before it is obsolete.
        let (m2, k2) = store_ckpt(&store, 2, CheckpointKind::Full, None, 100);
        let deleted = ctl.register(&m2, &k2).unwrap();
        assert_eq!(deleted, vec![CheckpointId(0), CheckpointId(1)]);
        assert_eq!(ctl.live(), vec![CheckpointId(2)]);
    }

    #[test]
    fn retained_chains_2_keeps_previous_restore_point() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 2);
        let (m0, k0) = store_ckpt(&store, 0, CheckpointKind::Full, None, 100);
        ctl.register(&m0, &k0).unwrap();
        for i in 1..=3 {
            let (m, k) = store_ckpt(&store, i, CheckpointKind::Incremental, Some(0), 50);
            ctl.register(&m, &k).unwrap();
        }
        // Chains of 3 and 2 are kept: {0,3} ∪ {0,2} = {0,2,3}.
        assert_eq!(
            ctl.live(),
            vec![CheckpointId(0), CheckpointId(2), CheckpointId(3)]
        );
    }

    #[test]
    fn register_sweeps_orphans_of_failed_writes() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        // Debris of a write that died before its manifest: chunks and a
        // staged multipart part under an id that never registered.
        let dead = CheckpointId(0);
        store
            .put(
                &Manifest::chunk_key("job", dead, 0, 0),
                Bytes::from(vec![0u8; 64]),
            )
            .unwrap();
        store
            .put(
                &format!("{}.mp-0000000000000001/000000", Manifest::chunk_key("job", dead, 1, 0)),
                Bytes::from(vec![0u8; 32]),
            )
            .unwrap();
        // Another job's objects must never be touched.
        store.put("other/ckpt-00000000/x", Bytes::from(vec![1u8])).unwrap();

        let (m1, k1) = store_ckpt(&store, 1, CheckpointKind::Full, None, 100);
        ctl.register(&m1, &k1).unwrap();
        assert_eq!(ctl.orphans_swept(), 2);
        assert!(store.get(&Manifest::chunk_key("job", dead, 0, 0)).is_err());
        assert!(store.get("other/ckpt-00000000/x").is_ok());
        // Registered objects survive the sweep.
        assert!(store.get(&k1).is_ok());
        assert_eq!(store.total_bytes(), m1.total_bytes() + 1);
    }

    #[test]
    fn sweep_never_eats_preexisting_manifested_checkpoints() {
        // Crash recovery: a fresh controller over a store that already
        // holds a valid chain must not delete it when registering new
        // work — its restore chain stays readable.
        let store = Arc::new(InMemoryStore::new());
        let (_m0, k0) = store_ckpt(&store, 0, CheckpointKind::Full, None, 100);
        let (_m1, k1) = store_ckpt(&store, 1, CheckpointKind::Incremental, Some(0), 40);

        // (The in-memory retention registry can only walk chains it has
        // registered itself, so the new work is a fresh full baseline; the
        // sweep must still leave the unknown-but-manifested chain alone.)
        let mut fresh = CheckpointController::new(store.clone(), "job", 1);
        let (m2, k2) = store_ckpt(&store, 2, CheckpointKind::Full, None, 40);
        fresh.register(&m2, &k2).unwrap();
        assert_eq!(fresh.orphans_swept(), 0);
        assert!(store.get(&k0).is_ok(), "pre-existing baseline survives");
        assert!(store.get(&k1).is_ok(), "pre-existing delta survives");
        assert!(
            store
                .get(&Manifest::chunk_key("job", CheckpointId(0), 0, 0))
                .is_ok(),
            "its chunks survive too"
        );
    }

    #[test]
    fn orphans_from_a_flaky_write_are_swept_on_next_register() {
        use crate::config::CheckpointConfig;
        use crate::policy::{Decision, TrackerAction};
        use crate::snapshot::SnapshotTaker;
        use crate::write::CheckpointWriter;
        use cnr_cluster::SimClock;
        use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
        use cnr_storage::{FailureMode, Fault, FlakyStore, Op};
        use cnr_trainer::{Trainer, TrainerConfig};
        use cnr_workload::{DatasetSpec, SyntheticDataset};

        let spec = DatasetSpec::tiny(31);
        let ds = SyntheticDataset::new(spec.clone());
        let model_cfg = ModelConfig::for_dataset(&spec, 8);
        let model = DlrmModel::new(model_cfg.clone());
        let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
        for i in 0..3 {
            trainer.train_one(&ds.batch(i));
        }
        let snap = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2)).take(
            &mut trainer,
            cnr_reader::ReaderState::at(3),
            Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotReset,
            },
            &CheckpointConfig::default(),
        );
        let cfg = CheckpointConfig {
            chunk_rows: 128,
            ..CheckpointConfig::default()
        };

        // The 6th put dies: five chunks land, the write fails, and they are
        // left orphaned under ckpt-0. Or the manifest's put dies: every
        // chunk and the dense object land without it. Either way the retry
        // runs on healed storage.
        let dense_key = Manifest::dense_key("job", CheckpointId(0));
        for (fault, dense_left) in [
            (Fault::fail(Op::Put, FailureMode::Once(6)), false),
            (Fault::fail(Op::Put, FailureMode::Once(1)).on_keys("/manifest"), true),
        ] {
            let store = Arc::new(FlakyStore::new(InMemoryStore::new(), [fault]));
            let writer = CheckpointWriter::new(store.as_ref(), "job");
            let failed = writer.write(&snap, CheckpointId(0), None, cnr_quant::QuantScheme::Fp32, &cfg);
            assert!(failed.is_err(), "injected failure must surface");
            let debris = store.list("job/").unwrap();
            assert!(!debris.is_empty(), "failed write leaves orphaned chunks");
            assert_eq!(debris.contains(&dense_key), dense_left);

            // The retry (against now-healthy storage) succeeds; registering
            // it sweeps the debris of the failed attempt.
            let mut ctl = CheckpointController::new(store.clone() as Arc<dyn ObjectStore>, "job", 1);
            let rec = writer
                .write(&snap, CheckpointId(1), None, cnr_quant::QuantScheme::Fp32, &cfg)
                .unwrap();
            ctl.register(&rec.manifest, &rec.manifest_key).unwrap();
            assert_eq!(ctl.orphans_swept() as usize, debris.len());
            for key in debris {
                assert!(store.get(&key).is_err(), "orphan {key} must be gone");
            }
            // Exactly the registered checkpoint's objects remain: its
            // chunks, dense object and manifest.
            let remaining = store.list("job/").unwrap();
            assert_eq!(remaining.len(), rec.manifest.chunks.len() + 2);
        }
    }

    #[test]
    fn wal_segments_survive_the_sweep_and_join_live_keys() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        // A live WAL segment (flat key) plus genuine orphan debris.
        let wal_key = cnr_storage::wal::segment_key("job", 0);
        store.put(&wal_key, Bytes::from(vec![7u8; 48])).unwrap();
        store
            .put(
                &Manifest::chunk_key("job", CheckpointId(0), 0, 0),
                Bytes::from(vec![0u8; 64]),
            )
            .unwrap();
        ctl.set_wal_segments(vec![wal_key.clone()]);

        let (m1, k1) = store_ckpt(&store, 1, CheckpointKind::Full, None, 100);
        ctl.register(&m1, &k1).unwrap();
        assert_eq!(ctl.orphans_swept(), 1, "only the manifestless chunk is debris");
        assert!(store.get(&wal_key).is_ok(), "live WAL segment survives the sweep");
        assert!(ctl.live_keys().contains(&wal_key), "scrub work-list covers the log");

        // After truncation the engine reports an empty set: gone from the
        // work-list (but never deleted by the sweep — the writer owns
        // deletion).
        ctl.set_wal_segments(Vec::new());
        assert!(!ctl.live_keys().contains(&wal_key));
    }

    #[test]
    fn latest_and_chain_of() {
        let store = Arc::new(InMemoryStore::new());
        let mut ctl = CheckpointController::new(store.clone(), "job", 1);
        assert!(ctl.latest().is_none());
        let (m0, k0) = store_ckpt(&store, 0, CheckpointKind::Full, None, 10);
        ctl.register(&m0, &k0).unwrap();
        let (m1, k1) = store_ckpt(&store, 1, CheckpointKind::Incremental, Some(0), 10);
        ctl.register(&m1, &k1).unwrap();
        assert_eq!(ctl.latest(), Some(CheckpointId(1)));
        assert_eq!(
            ctl.chain_of(CheckpointId(1)).unwrap(),
            vec![CheckpointId(0), CheckpointId(1)]
        );
    }
}
