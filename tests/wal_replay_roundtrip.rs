//! Property test: crash-consistent delta-WAL replay.
//!
//! For a checkpoint plus any prefix of logged iterations, crashing at *any*
//! byte of the WAL — a frame boundary or mid-frame — must
//! yield a restored model bit-identical to a serial training reference run
//! to the replayed iteration, across writer host counts 1, 2, and 4. The
//! clean prefix is everything; nothing is ever decoded from the torn tail.

use check_n_run::prelude::*;
use check_n_run::storage::wal::list_segments;
use proptest::prelude::*;

fn spec() -> DatasetSpec {
    DatasetSpec::tiny(101)
}

/// Serially trains a fresh model on batches `0..n` — the ground truth any
/// checkpoint + WAL-replay recovery must reproduce exactly.
fn reference_state_hash(n: u64) -> u64 {
    let ds = SyntheticDataset::new(spec());
    let mut model = check_n_run::model::DlrmModel::new(ModelConfig::for_dataset(&spec(), 8));
    for i in 0..n {
        model.train_batch(&ds.batch(i), |_, _| {});
    }
    model.state_hash()
}

proptest! {
    /// Crash the WAL at an arbitrary byte offset; the restore must land on
    /// the clean prefix and match serial training exactly.
    #[test]
    fn crash_anywhere_replays_bit_identically(
        hosts_idx in 0usize..3,
        extra in 1u64..4,
        cut_frac in 0.0f64..1.0,
    ) {
        let hosts = [1usize, 2, 4][hosts_idx];
        let mut e = EngineBuilder::new(spec(), ModelConfig::for_dataset(&spec(), 8))
            .checkpoint_every_batches(5)
            .cluster_shape(1, 2)
            .writer_hosts(hosts)
            .delta_wal(DeltaWalConfig)
            .build()
            .unwrap();
        // Checkpoint at 5, then `extra` WAL-logged iterations.
        e.train_batches(5 + extra).unwrap();

        // Crash: the log survives only up to an arbitrary byte of its
        // segments, in order — the segment holding that byte is cut there
        // and the later ones were never put.
        let wal_keys = list_segments(e.store().as_ref(), "job").unwrap();
        prop_assert_eq!(wal_keys.len() as u64, extra, "one segment per logged iteration");
        let segments: Vec<_> = wal_keys.iter().map(|k| e.store().get(k).unwrap()).collect();
        let logged: usize = segments.iter().map(|b| b.len()).sum();
        let cut = (logged as f64 * cut_frac) as usize;
        let (mut start, mut whole) = (0, 0u64);
        for (key, buf) in wal_keys.iter().zip(&segments) {
            if start + buf.len() <= cut {
                whole += 1;
            } else if start < cut {
                e.store().put(key, buf.slice(..cut - start)).unwrap();
            } else {
                e.store().delete(key).unwrap();
            }
            start += buf.len();
        }

        e.simulate_failure_and_restore().unwrap();
        let r = e.stats().resumes.last().unwrap().clone();
        // The clean prefix: some leading subsequence of the logged
        // iterations, never more, and the loss is counted exactly.
        prop_assert_eq!(r.wal_replayed_iterations, whole);
        prop_assert_eq!(r.lost_iterations, extra - r.wal_replayed_iterations);
        let iteration = e.trainer().model().iteration();
        prop_assert_eq!(iteration, 5 + r.wal_replayed_iterations);
        let expected_point = if r.wal_replayed_iterations > 0 {
            RestorePoint::WalTip
        } else {
            RestorePoint::Checkpoint
        };
        prop_assert_eq!(r.restore_point, expected_point);
        // Bit-identical to serial training run to the same iteration.
        prop_assert_eq!(
            e.trainer().model().state_hash(),
            reference_state_hash(iteration),
            "hosts={} extra={} cut={}", hosts, extra, cut
        );
    }

    /// With the log intact (a crash exactly at the synced tail), replay
    /// recovers every logged iteration regardless of writer sharding.
    #[test]
    fn intact_log_replays_to_the_tip(
        hosts_idx in 0usize..3,
        extra in 1u64..4,
    ) {
        let hosts = [1usize, 2, 4][hosts_idx];
        let mut e = EngineBuilder::new(spec(), ModelConfig::for_dataset(&spec(), 8))
            .checkpoint_every_batches(5)
            .cluster_shape(1, 2)
            .writer_hosts(hosts)
            .delta_wal(DeltaWalConfig)
            .build()
            .unwrap();
        e.train_batches(5 + extra).unwrap();
        let tip = e.trainer().model().state_hash();
        e.simulate_failure_and_restore().unwrap();
        let r = e.stats().resumes.last().unwrap().clone();
        prop_assert_eq!(r.wal_replayed_iterations, extra);
        prop_assert_eq!(r.lost_iterations, 0);
        prop_assert_eq!(e.trainer().model().iteration(), 5 + extra);
        prop_assert_eq!(e.trainer().model().state_hash(), tip);
        prop_assert_eq!(e.trainer().model().state_hash(), reference_state_hash(5 + extra));
    }
}
