//! Lazy-restore bit-identity, property-tested end to end at the engine
//! level: for random datasets, hot fractions, and failure points, a lazy
//! restore (train at first-batch time, fault cold rows in on demand,
//! drain in the background) converges to exactly the state the eager
//! all-or-nothing restore produces — across 1/2/4 reader hosts, with and
//! without a delta-WAL tail past the checkpoint, over fp32 and over
//! asymmetric 4-bit checkpoint chains (a cold quantized row is
//! de-quantized when it materializes, by the decode a hot one went
//! through at restore time).

use check_n_run::core::stats::RestoreMode;
use check_n_run::core::{DeltaWalConfig, EngineBuilder, QuantMode};
use check_n_run::model::ModelConfig;
use check_n_run::quant::QuantScheme;
use check_n_run::storage::RemoteConfig;
use check_n_run::workload::DatasetSpec;
use proptest::prelude::*;
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
