//! Span-tree integrity, property-tested end to end at the engine level:
//! for random datasets, restore modes (eager/lazy), reader-host counts
//! (1/2/4), and WAL tails (present/absent), every restore emits a
//! well-formed span tree — unique ids, parents recorded before children,
//! children contained in their parents, synchronous siblings never
//! summing past their parent — whose root `restore` span's duration
//! equals `ResumeStats::time_to_resume` exactly, with the synchronous
//! phase children tiling the root.

use check_n_run::core::{DeltaWalConfig, EngineBuilder};
use check_n_run::model::ModelConfig;
use check_n_run::obs::span::validate_tree;
use check_n_run::obs::{names, SpanKind};
use check_n_run::storage::RemoteConfig;
use check_n_run::workload::DatasetSpec;
use proptest::prelude::*;
use std::time::Duration;

/// A 4-writer-shard engine over a slow store (so phase durations are
/// visible in simulated time), optionally WAL-enabled.
fn builder(seed: u64, reader_hosts: usize, wal: bool) -> EngineBuilder {
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
    b
}

proptest! {
    /// Every (mode × hosts × WAL) combination produces a valid span tree
    /// whose restore root is exactly `time_to_resume` and whose phase
    /// children tile it.
    #[test]
    fn every_restore_emits_a_well_formed_span_tree(
        seed in any::<u64>(),
        hosts_idx in 0usize..3,
        wal in any::<bool>(),
        lazy in any::<bool>(),
        tail in 2u64..5,
    ) {
        let reader_hosts = [1usize, 2, 4][hosts_idx];
        let mut b = builder(seed, reader_hosts, wal);
        if lazy {
            b = b.lazy_restore(0.05);
        }
        let mut e = b.build().unwrap();
        e.train_batches(10 + tail).unwrap();
        e.simulate_failure_and_restore().unwrap();
        e.train_batches(2).unwrap();
        e.drain_lazy_restore().unwrap();

        let spans = e.obs().spans();
        validate_tree(&spans)
            .unwrap_or_else(|err| panic!("span tree invariants: {err}"));

        // The restore root's duration is time_to_resume by construction.
        let resume = e.stats().resumes.last().unwrap();
        let root = spans
            .iter()
            .find(|s| s.name == names::SPAN_RESTORE)
            .expect("restore emits a root span");
        prop_assert_eq!(root.duration(), resume.time_to_resume());

        // The four synchronous phase children tile the root exactly; the
        // zero-length first-batch marker changes nothing.
        let sync_children: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(root.id) && s.kind == SpanKind::Sync)
            .collect();
        let phase_sum: Duration = sync_children.iter().map(|s| s.duration()).sum();
        prop_assert_eq!(phase_sum, root.duration());
        for name in [
            names::SPAN_RESTORE_DRAIN_WAIT,
            names::SPAN_RESTORE_FETCH,
            names::SPAN_RESTORE_DECODE,
            names::SPAN_RESTORE_MERGE,
        ] {
            prop_assert_eq!(
                sync_children.iter().filter(|s| s.name == name).count(),
                1,
                "exactly one {} phase under the root",
                name
            );
        }

        // One concurrent fetch-host child per active reader host, nested
        // under the fetch phase.
        let fetch = spans
            .iter()
            .find(|s| s.name == names::SPAN_RESTORE_FETCH)
            .unwrap();
        let host_spans = spans
            .iter()
            .filter(|s| s.name == names::SPAN_RESTORE_FETCH_HOST)
            .collect::<Vec<_>>();
        prop_assert!(!host_spans.is_empty());
        prop_assert!(host_spans.len() <= reader_hosts);
        for h in &host_spans {
            prop_assert_eq!(h.parent, Some(fetch.id));
            prop_assert_eq!(h.kind, SpanKind::Concurrent);
            prop_assert!(h.attrs.iter().any(|(k, _)| *k == "log_segments"));
        }

        // The WAL tail's arrival sits inside the fetch phase, as one child
        // of it, when the restore replayed a log; it is no phase of its own.
        let replays: Vec<_> = spans
            .iter()
            .filter(|s| s.name == names::SPAN_RESTORE_WAL_REPLAY)
            .collect();
        prop_assert_eq!(replays.len(), usize::from(wal));
        for replay in replays {
            prop_assert_eq!(replay.parent, Some(fetch.id));
        }

        // The exporter accepts everything the engine emitted.
        let trace = check_n_run::obs::export::chrome_trace_jsonl(&spans);
        check_n_run::obs::export::validate_trace_jsonl(&trace)
            .unwrap_or_else(|err| panic!("chrome trace schema: {err}"));
    }
}
