//! Chunking and sharding of a snapshot's delta (§4.4 step 2).
//!
//! The snapshot's modified rows are partitioned twice:
//!
//! 1. **across writer hosts** — every table's row space is split into
//!    `writer_hosts` contiguous ranges; host `h` owns range `h` of *every*
//!    table, mirroring how the production deployment shards embedding
//!    tables over trainer hosts;
//! 2. **into chunks** — within a host, modified rows batch into chunks of
//!    at most `chunk_rows`, the pipelining granularity that lets uploads
//!    overlap quantization (§6.1).
//!
//! Chunk contents depend only on the snapshot and the configuration, never
//! on execution timing, so sharded checkpoints are deterministic.
//!
//! The plan names rows; it does not carry them. A [`WorkItem`] is a list
//! of ascending table-absolute row indices, and the worker that encodes it
//! reads those rows straight from the snapshot's borrowed tables. Planning costs
//! 4 bytes per row, no row is copied on the calling thread before the
//! pool starts, and re-sharding a dead host's items moves them unchanged.

use crate::config::CheckpointConfig;
use crate::snapshot::TrainingSnapshot;
use std::ops::Range;

/// One unit of pipeline work: a run of modified rows of one table, owned
/// by the writer host whose list holds it — its place in that list (its
/// turn) numbers the chunk. The rows themselves stay in the snapshot's
/// tables.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Table the rows belong to.
    pub table: u16,
    /// Ascending row indices within the table: where the writer reads the
    /// rows, and what the stored chunk records.
    pub indices: Vec<u32>,
    /// Embedding dimension.
    pub dim: usize,
}

/// Contiguous row-range of a `rows`-row table owned by shard `h` of
/// `hosts`. The ranges partition `0..rows` exactly; sizes differ by at
/// most one row, so non-divisible row counts stay fully covered.
pub fn shard_range(rows: usize, hosts: usize, h: usize) -> Range<usize> {
    assert!(hosts >= 1 && h < hosts, "shard {h} of {hosts}");
    (rows * h / hosts)..(rows * (h + 1) / hosts)
}

/// Splits the snapshot's delta into per-host work items, `hosts` =
/// `config.writer_hosts`. Returns one item list per host (possibly empty —
/// small tables may leave trailing hosts idle).
pub fn plan(snapshot: &TrainingSnapshot, config: &CheckpointConfig) -> Vec<Vec<WorkItem>> {
    let hosts = config.writer_hosts.max(1);
    let mut shards: Vec<Vec<WorkItem>> = (0..hosts).map(|_| Vec::new()).collect();

    for (t, (meta, mask)) in snapshot.geometry.iter().zip(&snapshot.delta.tables).enumerate() {
        let (rows, dim) = (meta.rows as usize, meta.dim as usize);
        let mut h = 0usize;
        let mut end = shard_range(rows, hosts, 0).end;
        let tracked = mask.count_ones();
        let mut indices: Vec<u32> = Vec::new();
        let mut flush = |indices: &mut Vec<u32>, h: usize| {
            if indices.is_empty() {
                return;
            }
            shards[h].push(WorkItem {
                table: t as u16,
                indices: std::mem::take(indices),
                dim,
            });
        };
        // `k` counts the rows planned so far.
        for (k, row) in mask.iter_ones().enumerate() {
            while row >= end {
                flush(&mut indices, h);
                h += 1;
                end = shard_range(rows, hosts, h).end;
            }
            if indices.capacity() == 0 {
                // The rows still to be planned and the slots left in the
                // shard bound the next chunk, so index runs are allocated
                // at their final size (exactly, for a full checkpoint).
                indices.reserve_exact(config.chunk_rows.min(tracked - k).min(end - row));
            }
            indices.push(row as u32);
            if indices.len() >= config.chunk_rows {
                flush(&mut indices, h);
            }
        }
        flush(&mut indices, h);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for rows in [0usize, 1, 7, 100, 1001] {
            for hosts in [1usize, 2, 3, 7, 8] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for h in 0..hosts {
                    let r = shard_range(rows, hosts, h);
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, rows);
                assert_eq!(covered, rows);
                // Balance: sizes differ by at most one.
                let sizes: Vec<usize> =
                    (0..hosts).map(|h| shard_range(rows, hosts, h).len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn items_respect_shard_ownership() {
        use crate::manifest::CheckpointKind;
        use crate::policy::{Decision, TrackerAction};
        use crate::snapshot::SnapshotTaker;
        use cnr_cluster::SimClock;
        use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
        use cnr_reader::ReaderState;
        use cnr_trainer::{Trainer, TrainerConfig};
        use cnr_workload::{DatasetSpec, SyntheticDataset};

        let spec = DatasetSpec::tiny(13);
        let ds = SyntheticDataset::new(spec.clone());
        let cfg = ModelConfig::for_dataset(&spec, 8);
        let model = DlrmModel::new(cfg);
        let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
        for i in 0..3 {
            trainer.train_one(&ds.batch(i));
        }
        let snap = SnapshotTaker::new(ShardPlan::balanced(
            trainer.model().config(),
            1,
            2,
        ))
        .take(
            &mut trainer,
            ReaderState::at(3),
            Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotReset,
            },
            &CheckpointConfig::default(),
        );

        let config = CheckpointConfig {
            writer_hosts: 3,
            chunk_rows: 64,
            ..CheckpointConfig::default()
        };
        let shards = plan(&snap, &config);
        assert_eq!(shards.len(), 3);

        let total_rows: usize = shards
            .iter()
            .flatten()
            .map(|i| i.indices.len())
            .sum();
        assert_eq!(total_rows, snap.delta.total_rows(), "full coverage");

        for (h, items) in shards.iter().enumerate() {
            for item in items {
                let rows = snap.delta.tables[item.table as usize].len();
                let range = shard_range(rows, 3, h);
                for &row in &item.indices {
                    assert!(range.contains(&(row as usize)), "row outside shard range");
                }
                assert!(item.indices.len() <= 64);
                assert_eq!(item.dim, 8);
            }
        }

        // Items name each table's delta in planning order.
        for (t, mask) in snap.delta.tables.iter().enumerate() {
            let planned: Vec<usize> = shards
                .iter()
                .flatten()
                .filter(|item| item.table as usize == t)
                .flat_map(|item| item.indices.iter().map(|&row| row as usize))
                .collect();
            assert_eq!(planned, mask.iter_ones().collect::<Vec<_>>());
        }

        // Planning is deterministic.
        let again = plan(&snap, &config);
        for (a, b) in shards.iter().flatten().zip(again.iter().flatten()) {
            assert_eq!((a.table, &a.indices), (b.table, &b.indices));
        }
    }
}
