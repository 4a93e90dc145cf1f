//! Store faults under a running engine.
//!
//! The simulated remote is a timing layer over a backing store, and the
//! engine builder says which one (`EngineBuilder::backing_store`). These
//! suites put a `FlakyStore` or an `FsStore` there and drive the unchanged
//! public API — train, checkpoint, fail, restore — so every fault reaches
//! the engine through the path a real store failure would take. The
//! invariant is the one the hand-damage tests in `engine.rs` state: a
//! restore is bit-identical to the serial training reference at its restore
//! point, or it fails typed.

use check_n_run::core::stats::RestoreMode;
use check_n_run::core::CnrError;
use check_n_run::obs::names;
use check_n_run::prelude::*;
use check_n_run::storage::{wal, CorruptionKind, FsStore};
use std::panic::resume_unwind;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

const JOB: &str = "job";

fn spec() -> DatasetSpec {
    DatasetSpec::tiny(101)
}

/// An engine over `backing`, checkpointing every 5 batches.
fn builder(backing: Arc<dyn ObjectStore>) -> EngineBuilder {
    EngineBuilder::new(spec(), ModelConfig::for_dataset(&spec(), 8))
        .checkpoint_every_batches(5)
        .cluster_shape(1, 2)
        .backing_store(backing)
}

/// Serially trains a fresh model on batches `0..n` — the ground truth any
/// recovery must reproduce exactly.
fn reference_state_hash(n: u64) -> u64 {
    let ds = SyntheticDataset::new(spec());
    let mut model = check_n_run::model::DlrmModel::new(ModelConfig::for_dataset(&spec(), 8));
    for i in 0..n {
        model.train_batch(&ds.batch(i), |_, _| {});
    }
    model.state_hash()
}

#[test]
fn corrupt_chunk_reads_heal_by_refetch() {
    // Every third read of a chunk key comes back bit-flipped; the refetch
    // (the counter has moved on) is served by a healthy replica.
    let flaky = Arc::new(FlakyStore::new(
        InMemoryStore::new(),
        [Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Every(3)).on_keys("-chunk-")],
    ));
    let mut e = builder(flaky.clone()).policy(PolicyKind::Consecutive).build().unwrap();
    e.train_batches(13).unwrap();
    e.simulate_failure_and_restore().unwrap();
    assert!(flaky.injected(0) > 0, "damage was served");
    let r = e.stats().resumes.last().unwrap();
    assert!(r.corruption_detected > 0);
    assert_eq!(r.corruption_repaired, r.corruption_detected, "every one healed");
    let reg = e.obs().registry();
    assert_eq!(reg.counter(names::RESTORE_CORRUPTION_DETECTED), r.corruption_detected);
    assert_eq!(reg.counter(names::RESTORE_CORRUPTION_REPAIRED), r.corruption_repaired);
    assert_eq!(e.trainer().model().iteration(), 10);
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(10));
}

#[test]
fn read_outage_fails_typed_then_a_later_restore_recovers() {
    // The first five reads time out. `fetch_retries` is 2: the first
    // restore spends three of them on the manifest and gives up; the second
    // meets the last two, retries through them and completes.
    let flaky = Arc::new(FlakyStore::new(
        InMemoryStore::new(),
        [Fault::fail(Op::Read, FailureMode::FirstN(5))],
    ));
    let mut e = builder(flaky.clone()).build().unwrap();
    assert_eq!(e.config().fetch_retries, 2);
    e.train_batches(12).unwrap();
    assert_eq!(flaky.injected(0), 0, "training and writing read nothing");

    let err = e.simulate_failure_and_restore().unwrap_err();
    assert!(matches!(err, CnrError::Storage(_)), "typed, got {err:?}");
    assert_eq!(flaky.injected(0), 3);
    assert!(matches!(e.train_batches(1), Err(CnrError::TrainingStateLost)));
    assert!(e.stats().resumes.is_empty(), "a failed restore records no resume");

    e.simulate_failure_and_restore().unwrap();
    assert_eq!(flaky.injected(0), 5, "the outage's tail was retried through");
    let retries = e.obs().registry().histogram(names::RESTORE_FETCH_RETRIES).unwrap();
    assert_eq!(retries.sum, 2.0, "absorbed inside the retry budget, and counted");
    assert_eq!(e.trainer().model().iteration(), 10);
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(10));
    e.train_batches(3).unwrap();
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(13));
}

#[test]
fn torn_wal_segment_write_recovers_the_clean_prefix() {
    // The third WAL sync dies one byte short of the segment's end: the
    // store keeps the prefix, the writer gets no acknowledgement.
    let flaky = Arc::new(FlakyStore::new(
        InMemoryStore::new(),
        [Fault::tear(FailureMode::Once(3)).at_byte(usize::MAX).on_keys("wal-")],
    ));
    let mut e = builder(flaky.clone())
        .delta_wal(DeltaWalConfig)
        .build()
        .unwrap();
    // Checkpoint at 5; iterations 6 and 7 log cleanly, 8 trains and tears.
    let err = e.train_batches(10).unwrap_err();
    assert!(matches!(err, CnrError::Storage(_)), "typed, got {err:?}");
    assert_eq!(flaky.injected(0), 1);
    assert_eq!(e.trainer().model().iteration(), 8);

    e.simulate_failure_and_restore().unwrap();
    let r = e.stats().resumes.last().unwrap();
    assert_eq!(r.restore_point, RestorePoint::WalTip);
    assert_eq!(r.wal_replayed_iterations, 2, "the two whole frames before the tear");
    assert_eq!(r.lost_iterations, 1, "only the torn iteration");
    assert_eq!(e.trainer().model().iteration(), 7);
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(7));
}

/// Training goes on after a WAL sync that failed mid-run: the interval
/// position and the reader budget stay in step with the batches actually
/// handed out, so the next boundary lands at iteration 10 instead of
/// waiting for budgeted batches nobody will read. The engine runs on its
/// own thread: should the boundary wait forever, the timeout fails the
/// test instead of hanging the suite.
#[test]
fn training_on_after_a_failed_wal_sync_checkpoints_at_the_boundary() {
    let (done, outcome) = std::sync::mpsc::channel();
    let engine = std::thread::spawn(move || {
        let flaky = Arc::new(FlakyStore::new(
            InMemoryStore::new(),
            [Fault::tear(FailureMode::Once(3)).at_byte(usize::MAX).on_keys("wal-")],
        ));
        let mut e = builder(flaky).delta_wal(DeltaWalConfig).build().unwrap();
        // Checkpoint at 5; iterations 6 and 7 log cleanly, 8 trains and tears.
        let err = e.train_batches(10).unwrap_err();
        assert!(matches!(err, CnrError::Storage(_)), "typed, got {err:?}");
        assert_eq!(e.trainer().model().iteration(), 8);
        e.train_batches(2).unwrap();
        let intervals_at_10 = e.stats().intervals.len();
        e.train_batches(3).unwrap();

        let cfg = ModelConfig::for_dataset(&spec(), 8);
        let latest = e.controller().latest().unwrap();
        let stored = check_n_run::core::restore::restore(e.store().as_ref(), JOB, latest, &cfg)
            .unwrap()
            .state;
        let mut model = check_n_run::model::DlrmModel::new(cfg);
        stored.restore(&mut model);
        e.simulate_failure_and_restore().unwrap();
        let r = e.stats().resumes.last().unwrap().clone();
        let _ = done.send((
            intervals_at_10,
            stored.iteration,
            model.state_hash(),
            r,
            e.trainer().model().state_hash(),
        ));
    });
    let (intervals_at_10, checkpoint_iteration, checkpoint_hash, r, resumed_hash) =
        match outcome.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => panic!("the engine waited forever at a boundary"),
            Err(RecvTimeoutError::Disconnected) => resume_unwind(engine.join().unwrap_err()),
        };
    engine.join().unwrap();
    assert_eq!(intervals_at_10, 2, "the second boundary came at iteration 10");
    assert_eq!(checkpoint_iteration, 10);
    assert_eq!(checkpoint_hash, reference_state_hash(10));
    // The engine's own restore: that checkpoint plus the three logged
    // iterations since.
    assert_eq!(r.restore_point, RestorePoint::WalTip);
    assert_eq!((r.wal_replayed_iterations, r.lost_iterations), (3, 0));
    assert_eq!(resumed_hash, reference_state_hash(13));
}

/// A restore whose WAL tail ends exactly at a boundary whose checkpoint
/// failed owes that checkpoint at once, as the engine that failed did: the
/// next batch registers it first, at the boundary, rather than a whole
/// interval later.
#[test]
fn a_restore_at_a_failed_boundary_owes_its_checkpoint_at_once() {
    // Checkpoint at 5 (four puts: two chunks, the dense object, the
    // manifest), then five WAL syncs; the boundary at 10 fails its first
    // put, the tenth.
    let flaky = Arc::new(FlakyStore::new(
        InMemoryStore::new(),
        [Fault::fail(Op::Put, FailureMode::Once(10))],
    ));
    let mut e = builder(flaky.clone()).delta_wal(DeltaWalConfig).build().unwrap();
    let err = e.train_batches(10).unwrap_err();
    assert!(matches!(err, CnrError::Storage(_)), "typed, got {err:?}");
    assert_eq!(flaky.injected(0), 1);
    assert_eq!(e.stats().wal.syncs, 5, "the put that failed is the boundary's");
    assert_eq!(e.stats().intervals.len(), 1);

    e.simulate_failure_and_restore().unwrap();
    let r = e.stats().resumes.last().unwrap();
    assert_eq!((r.wal_replayed_iterations, r.lost_iterations), (5, 0));
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(10));

    e.train_batches(1).unwrap();
    assert_eq!(e.stats().intervals.len(), 2, "the owed checkpoint registered first");
    let cfg = ModelConfig::for_dataset(&spec(), 8);
    let latest = e.controller().latest().unwrap();
    let stored = check_n_run::core::restore::restore(e.store().as_ref(), JOB, latest, &cfg)
        .unwrap()
        .state;
    let mut model = check_n_run::model::DlrmModel::new(cfg);
    stored.restore(&mut model);
    assert_eq!(stored.iteration, 10, "at the boundary it owed");
    assert_eq!(model.state_hash(), reference_state_hash(10));
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(11));
}

/// A WAL frame whose put failed is made durable by the next append, and
/// that append's sync is charged for both frames. Against a failure-free
/// run to the same iteration the faulted run is short exactly the failed
/// sync's latency (up to a nanosecond of rounding per sync) — not also the
/// failed frame's bytes at the log device's bandwidth.
#[test]
fn a_failed_wal_sync_is_charged_when_the_next_append_makes_it_durable() {
    let flaky = Arc::new(FlakyStore::new(
        InMemoryStore::new(),
        [Fault::tear(FailureMode::Once(3)).at_byte(usize::MAX).on_keys("wal-")],
    ));
    let mut faulted = builder(flaky).delta_wal(DeltaWalConfig).build().unwrap();
    // Checkpoint at 5; iterations 6 and 7 log cleanly, 8 trains and tears.
    assert!(faulted.train_batches(10).is_err());
    faulted.train_batches(5).unwrap();
    assert_eq!(faulted.trainer().model().iteration(), 13);
    let mut clean = builder(Arc::new(InMemoryStore::new()))
        .delta_wal(DeltaWalConfig)
        .build()
        .unwrap();
    clean.train_batches(13).unwrap();

    let (faulted, clean) = (faulted.stats().wal, clean.stats().wal);
    assert_eq!(faulted.syncs + 1, clean.syncs, "one put failed");
    let latency = DeltaWalConfig.sync_cost(0);
    let short = clean.sync_time.checked_sub(faulted.sync_time).unwrap();
    let rounding = std::time::Duration::from_nanos(clean.syncs);
    assert!(
        short.abs_diff(latency) <= rounding,
        "the faulted run is {short:?} short, not one sync latency ({latency:?})"
    );
}

/// ROADMAP item 4's window: `register` succeeded, `truncate` did not take.
/// Emulated the way `poison_at_rest` emulates bit rot — the segments as
/// they stood at the boundary are put back through the backing handle.
#[test]
fn segments_that_outlive_their_truncate_are_skipped_then_collected() {
    let backing = Arc::new(InMemoryStore::new());
    let segments = |b: &InMemoryStore| wal::list_segments(b, JOB).unwrap();
    // Boundaries by hand, so the log can be read just before one.
    let mut e = builder(backing.clone())
        .checkpoint_every_batches(1000)
        .delta_wal(DeltaWalConfig)
        .build()
        .unwrap();
    e.train_batches(5).unwrap();
    e.checkpoint_now().unwrap();
    e.train_batches(5).unwrap();
    let stale: Vec<_> = segments(&backing)
        .into_iter()
        .map(|k| (backing.get(&k).unwrap(), k))
        .collect();
    assert!(!stale.is_empty(), "five records were logged against checkpoint 0");
    let covering = e.checkpoint_now().unwrap().manifest.id;
    assert!(segments(&backing).is_empty(), "the boundary truncated the log");
    for (bytes, key) in &stale {
        backing.put(key, bytes.clone()).unwrap();
    }

    e.train_batches(3).unwrap();
    e.simulate_failure_and_restore().unwrap();
    let r = e.stats().resumes.last().unwrap();
    assert_eq!(r.checkpoint, covering);
    assert_eq!(r.wal_replayed_iterations, 3, "the covered records are not replayed");
    assert_eq!(r.lost_iterations, 0);
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(13));

    // The next boundary's truncate takes the stale segments with the live
    // ones; left in place they would sit in front of every later log with
    // a sequence gap behind them, and replay would stop there.
    e.train_batches(2).unwrap();
    e.checkpoint_now().unwrap();
    assert!(segments(&backing).is_empty());
    e.train_batches(2).unwrap();
    e.simulate_failure_and_restore().unwrap();
    let r = e.stats().resumes.last().unwrap();
    assert_eq!((r.wal_replayed_iterations, r.lost_iterations), (2, 0));
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(17));
}

/// The same window driven for real: `register` succeeded and the WAL
/// truncate behind it errs. The checkpoint stands and its boundary
/// finishes; the segments the truncate left are skipped by replay,
/// covered by the scrubber and collected one boundary later.
#[test]
fn a_failed_wal_truncate_leaves_the_checkpoint_standing() {
    // The first delete of a WAL segment fails.
    let backing = Arc::new(FlakyStore::new(
        InMemoryStore::new(),
        [Fault::fail(Op::Delete, FailureMode::Once(1)).on_keys("/wal-")],
    ));
    let segments = || wal::list_segments(backing.as_ref(), JOB).unwrap();
    let mut e = builder(backing.clone()).delta_wal(DeltaWalConfig).build().unwrap();
    // Checkpoint at 5 (nothing logged yet); iterations 6-10 log against it
    // and the boundary at 10 fails to delete the oldest of their segments,
    // which stops the truncate in front of all five.
    e.train_batches(13).unwrap();
    assert_eq!(backing.injected(0), 1, "the delete was refused");
    assert_eq!(e.obs().registry().counter(names::WAL_TRUNCATE_FAILURES), 1);
    assert_eq!(e.policy().checkpoints_taken(), 2);
    assert_eq!(e.stats().intervals.len(), 2, "one row per registered checkpoint");
    let left = segments();
    assert_eq!(left.len(), 8, "the five covered segments and the three behind them");
    let findings = e.scrub_now(None).unwrap();
    let live = e.controller().live_keys();
    assert!(left.iter().all(|k| live.contains(k)), "the scrubber covers {left:?}");
    assert_eq!((findings.scanned, findings.clean), (live.len() as u64, live.len() as u64));

    e.simulate_failure_and_restore().unwrap();
    let r = e.stats().resumes.last().unwrap();
    assert_eq!(r.checkpoint, e.controller().latest().unwrap());
    assert_eq!(r.restore_point, RestorePoint::WalTip);
    assert_eq!(r.wal_replayed_iterations, 3, "only the records the checkpoint does not cover");
    assert_eq!(r.lost_iterations, 0);
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(13));

    // The next boundary's truncate collects the leftovers.
    e.train_batches(2).unwrap();
    assert_eq!(e.stats().intervals.len(), 3);
    assert!(segments().is_empty());
    e.train_batches(1).unwrap();
    e.simulate_failure_and_restore().unwrap();
    assert_eq!(e.stats().resumes.last().unwrap().wal_replayed_iterations, 1);
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(16));
}

#[test]
fn engine_over_a_filesystem_store_checkpoints_fails_and_restores() {
    let dir = std::env::temp_dir().join(format!("cnr-engine-over-fs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Arc::new(FsStore::open(&dir).unwrap());
    let mut e = builder(fs.clone())
        .policy(PolicyKind::OneShot)
        .delta_wal(DeltaWalConfig)
        .build()
        .unwrap();
    e.train_batches(12).unwrap();
    // The checkpoints are files, and the remote's capacity is the
    // directory's size.
    for key in e.controller().live_keys() {
        assert!(dir.join(&key).is_file(), "{key} is on disk");
    }
    assert_eq!(e.store().total_bytes(), fs.total_bytes());
    e.simulate_failure_and_restore().unwrap();
    assert_eq!(e.trainer().model().iteration(), 12, "restored to the WAL tip");
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(12));
    e.train_batches(3).unwrap();
    assert_eq!(e.trainer().model().state_hash(), reference_state_hash(15));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint write that fails has stored nothing, so it must consume
/// nothing: the rows the snapshot took from the tracker go back, and the
/// retried boundary writes them.
#[test]
fn failed_checkpoint_write_keeps_the_tracked_rows() {
    for policy in [PolicyKind::Consecutive, PolicyKind::OneShot, PolicyKind::Intermittent] {
        // Small chunks, so the second checkpoint is several puts.
        let with_small_chunks = |backing: Arc<dyn ObjectStore>| {
            builder(backing).checkpoint_config(CheckpointConfig {
                interval_batches: 5,
                policy,
                chunk_rows: 16,
                ..CheckpointConfig::default()
            })
        };
        let mut clean = with_small_chunks(Arc::new(InMemoryStore::new())).build().unwrap();
        clean.train_batches(5).unwrap();
        // Without a WAL every put is a chunk or a manifest: the first
        // checkpoint took exactly as many as it has live keys, so two puts
        // later is inside the second one, with a chunk already stored.
        let second_put_of_the_second = clean.controller().live_keys().len() as u64 + 2;

        let flaky = Arc::new(FlakyStore::new(
            InMemoryStore::new(),
            [Fault::fail(Op::Put, FailureMode::Once(second_put_of_the_second))],
        ));
        let mut e = with_small_chunks(flaky.clone()).build().unwrap();
        e.train_batches(5).unwrap();
        let first = e.controller().latest();
        let durable_at = e.clock().now() + e.upload_backlog();
        let err = e.train_batches(5).unwrap_err();
        assert!(matches!(err, CnrError::Storage(_)), "{policy:?}: typed, got {err:?}");
        assert_eq!(flaky.injected(0), 1);
        assert_eq!(e.controller().latest(), first, "{policy:?}: nothing registered");
        assert_eq!(e.policy().checkpoints_taken(), 1);
        assert_eq!(e.stats().intervals.len(), 1);
        assert_eq!(
            e.clock().now() + e.upload_backlog(),
            durable_at,
            "the durability point did not move"
        );
        let debris = flaky.inner().list(&format!("{JOB}/")).unwrap().len()
            - e.controller().live_keys().len();
        assert!(debris > 0, "{policy:?}: the failed attempt left chunks behind");

        // Training goes on: the boundary is retried first, then three more
        // batches. The failure lands after them.
        e.train_batches(3).unwrap();
        assert_eq!(e.stats().intervals.len(), 2, "{policy:?}: the retry registered");
        assert_eq!(e.controller().orphans_swept(), debris as u64);
        assert_eq!(
            flaky.inner().list(&format!("{JOB}/")).unwrap().len(),
            e.controller().live_keys().len(),
            "{policy:?}: the store holds what the controller owns, no more"
        );
        e.simulate_failure_and_restore().unwrap();
        assert_eq!(e.trainer().model().iteration(), 10);
        assert_eq!(
            e.trainer().model().state_hash(),
            reference_state_hash(10),
            "{policy:?}: the retried checkpoint holds the failed interval's rows"
        );

        // And from there on the two runs cannot be told apart.
        clean.train_batches(8).unwrap();
        clean.simulate_failure_and_restore().unwrap();
        for run in [&mut clean, &mut e] {
            run.train_batches(7).unwrap();
            run.simulate_failure_and_restore().unwrap();
        }
        assert_eq!(e.trainer().model().iteration(), 15);
        assert_eq!(
            e.trainer().model().state_hash(),
            clean.trainer().model().state_hash(),
            "{policy:?}"
        );
        assert_eq!(clean.trainer().model().state_hash(), reference_state_hash(15));
    }
}

/// The registration path's own store calls, failed one at a time: the
/// orphan sweep's `list`, and a `delete` of the sweep or of retention
/// (a doomed checkpoint's manifest first). None fails a boundary or undoes
/// the checkpoint being registered, every one is counted, and what it
/// left in the store is collected by a later registration.
#[test]
fn a_failed_list_or_delete_at_registration_is_collected_later() {
    let faults = [
        Fault::fail(Op::List, FailureMode::Once(1)),
        Fault::fail(Op::List, FailureMode::Once(2)),
        Fault::fail(Op::Delete, FailureMode::Once(1)),
        Fault::fail(Op::Delete, FailureMode::Once(2)),
        Fault::fail(Op::Delete, FailureMode::Once(1)).on_keys("manifest"),
    ];
    let policies = [
        PolicyKind::FullOnly,
        PolicyKind::OneShot,
        PolicyKind::Consecutive,
        PolicyKind::Intermittent,
    ];
    for policy in policies {
        for (i, fault) in faults.iter().enumerate() {
            let flaky = Arc::new(FlakyStore::new(InMemoryStore::new(), [fault.clone()]));
            let mut e = builder(flaky.clone()).policy(policy).build().unwrap();
            e.train_batches(15).unwrap();
            // A consecutive chain deletes nothing: only a `list` can fail.
            let fired = policy != PolicyKind::Consecutive || i < 2;
            assert_eq!(flaky.injected(0), u64::from(fired), "{policy:?} {fault:?}");
            assert_eq!(e.controller().collection_failures(), u64::from(fired));
            e.simulate_failure_and_restore().unwrap();
            assert_eq!(e.trainer().model().iteration(), 15, "{policy:?} {fault:?}");
            assert_eq!(
                e.trainer().model().state_hash(),
                reference_state_hash(15),
                "{policy:?} {fault:?}"
            );

            e.train_batches(10).unwrap();
            let mut held = flaky.inner().list(&format!("{JOB}/")).unwrap();
            let mut owned = e.controller().live_keys();
            held.sort();
            owned.sort();
            assert_eq!(held, owned, "{policy:?} {fault:?}: the store holds what is owned");
        }
    }
}

/// Trains until the model has completed `n` batches, going on past the
/// typed storage errors a store fault raises on the way.
fn train_to(e: &mut Engine, n: u64) {
    while e.trainer().model().iteration() < n {
        let left = n - e.trainer().model().iteration();
        if let Err(err) = e.train_batches(left) {
            assert!(matches!(err, CnrError::Storage(_)), "typed, got {err:?}");
        }
    }
}

/// Four kinds of fault at once, under one engine that runs the WAL, lazy
/// restores and two writer and two reader hosts: a read outage the fetch
/// retries absorb, bit rot on chunk reads, a failed WAL sync and a failed
/// manifest delete at retention. Every restore is bit-identical to the
/// serial reference at the iteration it reports, or fails typed; the
/// registry's corruption counts are the resumes'.
#[test]
fn composed_faults_restore_exactly_or_fail_typed() {
    for seed in [7, 11] {
        let faults = [
            Fault::fail(Op::Read, FailureMode::FirstN(2)),
            Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Every(2 + seed % 5))
                .on_keys("-chunk-")
                .seeded(seed),
            Fault::fail(Op::Put, FailureMode::Once(1 + seed % 3)).on_keys("/wal-"),
            Fault::fail(Op::Delete, FailureMode::Once(1)).on_keys("manifest"),
        ];
        let flaky = Arc::new(FlakyStore::new(InMemoryStore::new(), faults));
        let mut e = builder(flaky.clone())
            .policy(PolicyKind::OneShot)
            .writer_hosts(2)
            .reader_hosts(2)
            .delta_wal(DeltaWalConfig)
            .lazy_restore(0.05)
            // A slow remote keeps the clock short of the background drain.
            .remote_config(RemoteConfig {
                bandwidth_bytes_per_sec: 64.0 * 1024.0,
                base_latency: std::time::Duration::from_micros(100),
                replication: 1,
                channels: 2,
            })
            .build()
            .unwrap();
        assert!(e.config().fetch_retries >= 2, "the outage is shorter than the retries");
        for target in [8, 17, 23, 31] {
            train_to(&mut e, target);
            let mut failed = 0;
            while let Err(err) = e.simulate_failure_and_restore() {
                assert!(
                    matches!(err, CnrError::Storage(_) | CnrError::Corrupt(_)),
                    "seed {seed}: typed, got {err:?}"
                );
                failed += 1;
                assert!(failed < 5, "seed {seed}: a retried restore lands");
            }
            // Two batches fault cold rows in before the drain.
            let at = e.trainer().model().iteration();
            train_to(&mut e, at + 2);
            e.drain_lazy_restore().unwrap();
            assert_eq!(
                e.trainer().model().state_hash(),
                reference_state_hash(at + 2),
                "seed {seed}: restored at {at}"
            );
        }
        for i in 0..4 {
            assert!(flaky.injected(i) > 0, "seed {seed}: fault {i} fired");
        }
        let resumes = &e.stats().resumes;
        assert!(resumes.iter().all(|r| r.mode == RestoreMode::Lazy));
        assert!(resumes.iter().any(|r| r.fault_in_fetches > 0), "seed {seed}");
        let reg = e.obs().registry();
        let sum = |field: fn(&ResumeStats) -> u64| resumes.iter().map(field).sum::<u64>();
        for (name, total) in [
            (names::RESTORE_CORRUPTION_DETECTED, sum(|r| r.corruption_detected)),
            (names::RESTORE_CORRUPTION_REPAIRED, sum(|r| r.corruption_repaired)),
            (names::RESTORE_CORRUPTION_REFETCHES, sum(|r| r.corruption_refetches)),
        ] {
            assert_eq!(reg.counter(name), total, "seed {seed}: {name}");
        }
        assert!(reg.counter(names::RESTORE_CORRUPTION_DETECTED) > 0, "seed {seed}");
    }
}
