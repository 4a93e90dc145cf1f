//! Lazy-restore bit-identity, property-tested end to end at the engine
//! level: for random datasets, hot fractions, and failure points, a lazy
//! restore (train at first-batch time, fault cold rows in on demand,
//! drain in the background) converges to exactly the state the eager
//! all-or-nothing restore produces — across 1/2/4 reader hosts, with and
//! without a delta-WAL tail past the checkpoint, over fp32 and over
//! asymmetric 4-bit checkpoint chains (a cold quantized row is
//! de-quantized when it materializes, by the decode a hot one went
//! through at restore time).

use check_n_run::core::read::{restore_sharded, restore_sharded_with_heat, RowHeat};
use check_n_run::core::stats::RestoreMode;
use check_n_run::core::{
    CheckpointConfig, DeltaRecord, DeltaWalConfig, EngineBuilder, PolicyKind, QuantMode,
    RestoreOptions,
};
use check_n_run::model::{DlrmModel, ModelConfig};
use check_n_run::quant::QuantScheme;
use check_n_run::storage::{wal, RemoteConfig};
use check_n_run::workload::DatasetSpec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// A 4-writer-shard engine over a slow store (so hot/cold arrival order
/// is visible in simulated time), optionally WAL-enabled, storing fp32 or
/// asymmetric 4-bit rows.
fn builder(seed: u64, reader_hosts: usize, wal: bool, four_bit: bool) -> EngineBuilder {
    let spec = DatasetSpec::tiny(seed);
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let mut b = EngineBuilder::new(spec, model_cfg)
        .checkpoint_every_batches(5)
        .cluster_shape(1, 2)
        .writer_hosts(4)
        .reader_hosts(reader_hosts)
        .remote_config(RemoteConfig {
            bandwidth_bytes_per_sec: 64.0 * 1024.0,
            base_latency: Duration::from_micros(100),
            replication: 1,
            channels: 2,
        });
    if wal {
        b = b.delta_wal(DeltaWalConfig);
    }
    if four_bit {
        b = b.quantization(QuantMode::Fixed(QuantScheme::Asymmetric { bits: 4 }));
    }
    b
}

proptest! {
    /// Lazy restore + mid-drain training + drain is bit-identical to the
    /// eager path run over the identical stream and failure point.
    #[test]
    fn lazy_drain_is_bit_identical_to_eager(
        seed in any::<u64>(),
        hosts_idx in 0usize..3,
        wal in any::<bool>(),
        four_bit in any::<bool>(),
        tail in 2u64..5,
        hot_pct in 1u32..=20,
    ) {
        let reader_hosts = [1usize, 2, 4][hosts_idx];
        let hot_fraction = hot_pct as f64 / 100.0;
        // Fail 2-4 batches past the checkpoint at 10, so the tracker's
        // working set gives the priority planner something to defer.
        let total = 10 + tail;

        let mut lazy = builder(seed, reader_hosts, wal, four_bit)
            .lazy_restore(hot_fraction)
            .build()
            .unwrap();
        let mut eager = builder(seed, reader_hosts, wal, four_bit).build().unwrap();
        lazy.train_batches(total).unwrap();
        eager.train_batches(total).unwrap();

        lazy.simulate_failure_and_restore().unwrap();
        eager.simulate_failure_and_restore().unwrap();

        let r = lazy.stats().resumes.last().unwrap().clone();
        prop_assert_eq!(r.mode, RestoreMode::Lazy);
        prop_assert!(r.time_to_first_batch <= r.time_to_resume());
        // Strict improvement is only guaranteed on one downlink, where
        // hot chunks serialize strictly before cold ones. With several
        // reader hosts a host whose queue is entirely hot can be the
        // restore's bottleneck, tying first-batch to full resume even
        // when another host carries a cold tail.
        if reader_hosts == 1 && lazy.pending_lazy().is_some() {
            prop_assert!(
                r.time_to_first_batch < r.time_to_resume(),
                "a cold tail on one downlink must make first-batch \
                 strictly earlier: first_batch={:?} resume={:?}",
                r.time_to_first_batch,
                r.time_to_resume()
            );
        }
        let re = eager.stats().resumes.last().unwrap();
        prop_assert_eq!(re.mode, RestoreMode::Eager);
        prop_assert_eq!(re.time_to_first_batch, re.time_to_resume());
        prop_assert_eq!(re.fault_in_fetches, 0);

        // Train through the drain window (cold rows the batches touch
        // fault in on demand), then finish the drain and compare.
        lazy.train_batches(3).unwrap();
        eager.train_batches(3).unwrap();
        lazy.drain_lazy_restore().unwrap();
        prop_assert!(lazy.pending_lazy().is_none());
        prop_assert_eq!(
            lazy.trainer().model().state_hash(),
            eager.trainer().model().state_hash(),
            "hosts={} wal={} four_bit={} tail={} hot={}: lazy path diverged",
            reader_hosts, wal, four_bit, tail, hot_fraction
        );
        prop_assert_eq!(
            lazy.trainer().model().iteration(),
            eager.trainer().model().iteration()
        );
    }
}

/// A lazy restore with a WAL tail that names hot rows, cold rows and rows
/// of both chain levels (a full checkpoint at 5, an incremental at 10, the
/// log past it), at 1, 2 and 4 decode workers: right after the restore
/// every replayed row is final; batches touching only replayed rows fault
/// nothing in; and after the drain the model is, bit for bit, an eager
/// restore followed by applying the log's live records in order.
#[test]
fn a_row_the_log_holds_never_faults_in() {
    let job = "job";
    for workers in [1usize, 2, 4] {
        // Which overlaps the seeds produced: a replayed row the hot set had
        // landed, one a cold chunk still owed, one both levels name.
        let (mut hot, mut cold, mut both_levels) = (0, 0, 0);
        let mut mid_drain = 0;
        for seed in [3u64, 17, 41, 52] {
            let spec = DatasetSpec::tiny(seed);
            let model_cfg = ModelConfig::for_dataset(&spec, 8);
            let mut e = EngineBuilder::new(spec.clone(), model_cfg.clone())
                .checkpoint_config(CheckpointConfig {
                    quantize_workers: workers,
                    ..CheckpointConfig::default()
                })
                .checkpoint_every_batches(5)
                .policy(PolicyKind::OneShot)
                .cluster_shape(1, 2)
                .writer_hosts(4)
                .delta_wal(DeltaWalConfig)
                .lazy_restore(0.05)
                .remote_config(RemoteConfig {
                    bandwidth_bytes_per_sec: 64.0 * 1024.0,
                    base_latency: Duration::from_micros(100),
                    replication: 1,
                    channels: 2,
                })
                .build()
                .unwrap();
            e.train_batches(13).unwrap(); // checkpoints at 5 and 10, 3 logged
            let latest = e.controller().latest().unwrap();
            let store = e.store().clone();

            // The reference: an eager restore, then every live record of
            // the log applied in order, as replay worked record by record.
            let eager = restore_sharded(
                store.as_ref(),
                job,
                latest,
                &model_cfg,
                &RestoreOptions { decode_workers: workers, ..RestoreOptions::default() },
                Duration::ZERO,
            )
            .unwrap();
            let mut reference = DlrmModel::new(model_cfg.clone());
            eager.report.state.restore(&mut reference);
            let mut replayed: BTreeSet<(u16, u32)> = BTreeSet::new();
            for rec in &wal::replay(store.as_ref(), job).unwrap().records {
                let Ok(delta) = DeltaRecord::decode(&rec.payload) else {
                    break;
                };
                if delta.base != latest || delta.iteration <= reference.iteration() {
                    continue;
                }
                delta.apply(&mut reference).unwrap();
                for chunk in &delta.chunks {
                    replayed.extend(chunk.row_indices().iter().map(|&r| (chunk.table(), r)));
                }
            }
            assert_eq!(reference.iteration(), 13);

            // The rows the engine's lazy restore leaves pending before its
            // replay: the same plan, from the same heat (the Zipf prior the
            // engine keeps, boosted by the rows tracked since the baseline).
            let row_counts = model_cfg.row_counts();
            let exponent = spec.tables.iter().map(|t| t.zipf_exponent).sum::<f64>()
                / spec.tables.len() as f64;
            let mut heat = RowHeat::zipf(&row_counts, exponent);
            for (t, mask) in e.trainer().tracker().snapshot().tables.iter().enumerate() {
                heat.boost_rows(t, mask.iter_ones(), 1.0);
            }
            let before_replay = restore_sharded_with_heat(
                store.as_ref(),
                job,
                latest,
                &model_cfg,
                &e.config().restore_options(),
                Duration::ZERO,
                None,
                Some(&heat),
            )
            .unwrap()
            .lazy
            .unwrap();

            let report = e.simulate_failure_and_restore().unwrap();
            assert_eq!(report.chain.len(), 2, "a full and an incremental level");
            let lazy = e.pending_lazy().expect("a cold tail is pending");
            for &(t, r) in &replayed {
                assert!(lazy.is_materialized(t, r), "workers={workers} seed={seed}: ({t}, {r})");
                if before_replay.is_materialized(t, r) {
                    hot += 1;
                } else {
                    cold += 1;
                }
                if report.incremental_rows.tables[t as usize].get(r as usize) {
                    both_levels += 1;
                }
            }

            // The logged batches touch only replayed rows: evaluating them
            // faults nothing in. (That says something only mid-drain; an
            // evaluation past the background fetch's end drains instead,
            // and with several decode workers where that end falls on the
            // simulated clock varies with their interleaving.)
            for i in 10..13 {
                let batch = e.dataset().batch(i);
                for (t, rows) in batch.sparse.iter().enumerate() {
                    assert!(rows.iter().all(|&r| replayed.contains(&(t as u16, r))));
                }
            }
            let fetches = |e: &check_n_run::core::Engine| {
                e.stats().resumes.last().unwrap().fault_in_fetches
            };
            let before = fetches(&e);
            e.evaluate(10, 13).unwrap();
            assert_eq!(
                fetches(&e),
                before,
                "workers={workers} seed={seed}: a replayed row faulted in"
            );
            if e.pending_lazy().is_some() {
                mid_drain += 1;
            }

            e.drain_lazy_restore().unwrap();
            let model = e.trainer().model();
            for (t, (got, want)) in model.tables().iter().zip(reference.tables()).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(got.data()),
                    bits(want.data()),
                    "workers={workers} seed={seed} table {t}"
                );
                assert_eq!(
                    got.adagrad().map(bits),
                    want.adagrad().map(bits),
                    "workers={workers} seed={seed} table {t}"
                );
            }
            assert_eq!(model.state_hash(), reference.state_hash(), "workers={workers} seed={seed}");
        }
        assert!(mid_drain > 0, "workers={workers}: no evaluation ran mid-drain");
        assert!(
            hot > 0 && cold > 0 && both_levels > 0,
            "workers={workers}: the log must overlap hot ({hot}), cold ({cold}) and \
             twice-named ({both_levels}) rows"
        );
    }
}
