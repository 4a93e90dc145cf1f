//! Heap allocations on the chunk and WAL hot paths are O(1) per chunk.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, and
//! this file holds exactly one `#[test]` so nothing else allocates while a
//! count is being taken. The claim checked is the shape, not a number:
//! encoding a chunk and capturing a WAL record allocate the same number of
//! times for few rows as for many; a restore into a destination the caller
//! holds never asks for a model-sized buffer, and asks for no more when
//! chunks hold more rows; a lazy restore asks for nothing the size of the
//! cold rows it holds back (it keeps the bytes it fetched), and faulting a
//! row in allocates nothing; a snapshot copies no row, and asks for the
//! same whatever its delta names; planning a write allocates a row's
//! index, not the row; capturing a WAL record straight into its segment
//! allocates the same blocks for one touched row per table as for a full
//! batch, and asks for no byte beyond the segment and the batch's row ids.

use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::delta_log::DeltaRecord;
use check_n_run::cluster::SimClock;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::read::{restore_sharded_into, RestoreOptions, RowHeat};
use check_n_run::core::write::shard_writer::encode_chunk;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::{chunker, CheckpointWriter, WorkItem};
use check_n_run::core::TrainingSnapshot;
use check_n_run::model::state::TableState;
use check_n_run::model::{DlrmModel, ModelConfig, OptimizerConfig, ShardPlan, TableSpec};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::wal::{self, WalConfig, WalWriter};
use check_n_run::storage::{InMemoryStore, ObjectStore};
use check_n_run::tracking::TrackerSnapshot;
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// One byte per thread: its address tells threads apart from inside
    /// the allocator, where asking the runtime who is running may allocate.
    static THREAD_MARK: u8 = const { 0 };
}

/// `THREAD_MARK`'s address on the first thread that ever allocated — the
/// process's main thread, which under libtest is the harness: it spawns
/// this file's one test and then does its own bookkeeping (four
/// allocations) while the test is already counting. Everything else — the
/// test's thread and every worker the library spawns — is counted.
static HARNESS: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    let me = THREAD_MARK.try_with(|mark| mark as *const u8 as usize).unwrap_or(0);
    let harness = match HARNESS.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => me,
        Err(first) => first,
    };
    if me != harness {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics,
// and `count` touches only a `const`-initialized thread-local without a
// destructor, which neither allocates nor can be gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` performs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Bytes requested from the allocator (reallocations at their new size)
/// while `f` runs.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

const DIM: usize = 32;

/// A table of `rows` rows with accumulators.
fn table(rows: usize) -> TableState {
    TableState {
        data: (0..rows * DIM)
            .map(|i| ((i * 31 % 257) as f32 / 257.0 - 0.4) * 0.2)
            .collect(),
        adagrad: Some(vec![0.25; rows]),
    }
}

/// The work item naming every `stride`-th row of a `rows`-row table.
fn item(rows: usize, stride: usize) -> WorkItem {
    WorkItem {
        table: 0,
        indices: (0..rows as u32).step_by(stride).collect(),
        dim: DIM,
    }
}

/// A trainer over a model of one table, `table(rows)`, and its taker.
fn trainer(rows: usize) -> (Trainer, SnapshotTaker) {
    let config = ModelConfig {
        tables: vec![TableSpec {
            rows: rows as u64,
            dim: DIM,
        }],
        optimizer: OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 },
        ..ModelConfig::for_dataset(&DatasetSpec::tiny(5), DIM)
    };
    let taker = SnapshotTaker::new(ShardPlan::balanced(&config, 1, 1));
    let mut model = DlrmModel::new(config);
    let values = table(rows);
    model.tables_mut()[0].data_mut().copy_from_slice(&values.data);
    model.tables_mut()[0]
        .adagrad_mut()
        .unwrap()
        .copy_from_slice(values.adagrad.as_ref().unwrap());
    let trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    (trainer, taker)
}

/// Snapshots `trainer`: the incremental of the rows `tracked` names, or a
/// full snapshot without it.
fn take<'m>(
    (trainer, taker): &'m mut (Trainer, SnapshotTaker),
    tracked: Option<&TrackerSnapshot>,
) -> TrainingSnapshot<'m> {
    trainer.tracker().reset();
    for (t, mask) in tracked.iter().flat_map(|delta| delta.tables.iter().enumerate()) {
        trainer.tracker().mark_rows(t, mask.iter_ones());
    }
    let decision = Decision {
        kind: match tracked {
            Some(_) => CheckpointKind::Incremental,
            None => CheckpointKind::Full,
        },
        tracker: TrackerAction::SnapshotKeep,
    };
    taker.take(trainer, ReaderState::at(1), decision, &CheckpointConfig::default())
}

#[test]
fn hot_paths_allocate_per_chunk_not_per_row() {
    for scheme in [
        QuantScheme::Fp32,
        QuantScheme::Fp16,
        QuantScheme::Asymmetric { bits: 8 },
        QuantScheme::recommended_for_bits(4),
        // The §6.2.1 selector's fallback widths.
        QuantScheme::recommended_for_bits(3),
        QuantScheme::recommended_for_bits(2),
    ] {
        // A few rows, one run of a whole table, and rows scattered over
        // one: read by index, each is still one staging buffer.
        let (small, large, scattered) = (item(16, 1), item(4096, 1), item(3 * 4096, 3));
        let (small_table, large_table) = (table(16), table(3 * 4096));
        let encode = |item: &WorkItem, table: &TableState| {
            allocations(|| encode_chunk(item, &table.view(), &scheme)).0
        };
        assert_eq!(encode(&small, &small_table), 1, "{scheme}: one staging buffer per chunk");
        assert_eq!(encode(&large, &large_table), 1, "{scheme}: encode allocations grew with rows");
        assert_eq!(encode(&scattered, &large_table), 1, "{scheme}: scattered rows allocate");
    }

    // An eager restore into a destination the caller already holds asks
    // the allocator for row indices, accumulators, rank stamps and
    // manifests — never for a model-sized buffer (per-chunk value buffers
    // merged into a zero template asked for more than twice the model) —
    // and for no more when chunks hold more rows.
    let spec = DatasetSpec::tiny(5);
    let rows = 40_000;
    let mut saved_trainer = trainer(rows);
    let model_bytes = saved_trainer.0.model().state_bytes();
    let saved = take(&mut saved_trainer, None);
    let model_cfg = ModelConfig {
        tables: vec![TableSpec {
            rows: rows as u64,
            dim: DIM,
        }],
        ..ModelConfig::for_dataset(&spec, DIM)
    };
    let mut dest = TableState::zeroed(rows, DIM, true);
    let mut requested = Vec::new();
    for chunk_rows in [512, 4096] {
        let store = InMemoryStore::new();
        let config = CheckpointConfig {
            chunk_rows,
            ..CheckpointConfig::default()
        };
        CheckpointWriter::new(&store, "job")
            .write(&saved, CheckpointId(0), None, QuantScheme::Fp32, &config)
            .unwrap();
        dest.data.fill(f32::NAN);
        let (bytes, (allocs, restored)) = bytes_allocated(|| {
            allocations(|| {
                restore_sharded_into(
                    &store,
                    "job",
                    CheckpointId(0),
                    &model_cfg,
                    &RestoreOptions::default(),
                    Duration::ZERO,
                    None,
                    None,
                    vec![dest.view_mut()],
                    false,
                )
            })
        });
        let restored = restored.unwrap();
        assert!(restored.report.state.tables.is_empty());
        assert_eq!(restored.report.rows_applied, rows as u64);
        assert!(dest.view() == saved.tables[0], "fp32 restore is bit-exact");
        assert!(
            4 * bytes < model_bytes,
            "restore requested {bytes} bytes for a {model_bytes}-byte model at {chunk_rows} rows per chunk"
        );
        requested.push((allocs, bytes));
    }
    assert!(
        requested[1].0 <= requested[0].0 && requested[1].1 <= requested[0].1,
        "(allocations, bytes) grew with rows per chunk: {requested:?}"
    );

    // A lazy restore de-quantizes the hot chunks into the destination and
    // keeps the cold ones as the bytes the store handed it: nothing it
    // asks the allocator for is the size of the rows it holds back. A
    // fault-in then de-quantizes one row out of those bytes straight into
    // the model — no allocation at all — and the drain leaves the model
    // bit-identical to what was saved.
    let lazy_cfg = ModelConfig {
        optimizer: OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 },
        ..model_cfg.clone()
    };
    let mut model = DlrmModel::new(lazy_cfg.clone());
    let store = InMemoryStore::new();
    CheckpointWriter::new(&store, "job")
        .write(
            &saved,
            CheckpointId(0),
            None,
            QuantScheme::Fp32,
            &CheckpointConfig::default(),
        )
        .unwrap();
    let heat = RowHeat::zipf(&[rows], 1.05);
    let options = RestoreOptions {
        lazy: true,
        hot_fraction: 0.01,
        ..RestoreOptions::default()
    };
    let (bytes, restored) = bytes_allocated(|| {
        restore_sharded_into(
            &store,
            "job",
            CheckpointId(0),
            &lazy_cfg,
            &options,
            Duration::ZERO,
            None,
            Some(&heat),
            model.table_views_mut(),
            false,
        )
    });
    let mut tail = restored.unwrap().lazy.expect("a lazy restore returns its tail");
    let cold_value_bytes = tail.pending_rows() as usize * DIM * 4;
    assert!(cold_value_bytes > model_bytes / 2, "most rows are cold");
    assert!(
        4 * bytes < cold_value_bytes,
        "lazy restore requested {bytes} bytes while holding back {cold_value_bytes} bytes of rows"
    );
    let cold_row = (0..rows as u32)
        .rev()
        .find(|&row| !tail.is_materialized(0, row))
        .expect("a cold row");
    // Stale until it lands: the row still holds what the model held.
    assert_eq!(
        model.tables()[0].row(cold_row as usize),
        DlrmModel::new(lazy_cfg.clone()).tables()[0].row(cold_row as usize)
    );
    let (fault_allocs, fetched) = allocations(|| tail.fault_in(&mut model, 0, cold_row));
    assert!(fetched.unwrap() > 0);
    assert_eq!(fault_allocs, 0, "a fault-in allocates nothing");
    let at = cold_row as usize * DIM;
    assert_eq!(
        model.tables()[0].row(cold_row as usize),
        &saved.tables[0].data[at..at + DIM]
    );
    tail.drain(&mut model).unwrap();
    assert!(tail.is_drained());
    assert!(
        model.tables()[0].view() == saved.tables[0],
        "drained lazy restore is bit-exact"
    );

    // A snapshot copies no row: it lends the tables and asks the allocator
    // for the dense layers, the delta's masks and a few bookkeeping
    // vectors (the views, the geometry, the row counts) — the same number
    // of times and the same bytes for a few rows as for one run of rows
    // or thousands scattered, and below the dense layers and the masks
    // plus that bookkeeping.
    let rows = 20_000;
    let mut live = trainer(rows);
    let mut few = TrackerSnapshot::empty(&[rows]);
    (100..116).for_each(|row| few.tables[0].set(row));
    let mut one_run = TrackerSnapshot::empty(&[rows]);
    (5_000..9_000).for_each(|row| one_run.tables[0].set(row));
    let mut sparse = TrackerSnapshot::empty(&[rows]);
    for row in (0..rows).step_by(7) {
        sparse.tables[0].set(row);
    }
    let mut taken = Vec::new();
    for tracked in [&few, &one_run, &sparse] {
        let (bytes, (allocs, snap)) = bytes_allocated(|| allocations(|| take(&mut live, Some(tracked))));
        assert_eq!(snap.delta, *tracked);
        assert!(snap.model.tables.is_empty());
        let masks: usize = snap.delta.tables.iter().map(|mask| 8 * mask.words().len()).sum();
        let kept = snap.model.byte_size() + masks;
        assert!(bytes < kept + 512, "a take asked for {bytes} bytes to keep {kept}");
        taken.push((allocs, bytes));
    }
    assert!(
        taken.iter().all(|t| *t == taken[0]),
        "(allocations, bytes) depend on the tracked rows: {taken:?}"
    );

    // Planning a write names rows, it does not copy them: an index per
    // planned row (4 bytes) plus per-chunk bookkeeping — whether the
    // delta is every row or a scattered few, on one host or several.
    for (tracked, hosts) in [(None, 1), (None, 3), (Some(&sparse), 2)] {
        let snap = take(&mut live, tracked);
        let config = CheckpointConfig {
            chunk_rows: 4096,
            writer_hosts: hosts,
            ..CheckpointConfig::default()
        };
        let (bytes, plan) = bytes_allocated(|| chunker::plan(&snap, &config));
        let planned: usize = plan.iter().flatten().map(|i| i.indices.len()).sum();
        assert_eq!(planned, snap.delta.modified_rows());
        assert!(
            bytes < 8 * planned,
            "plan allocated {bytes} bytes for {planned} rows on {hosts} hosts"
        );
    }

    // Capturing a WAL record allocates per touched table, not per row.
    let model = DlrmModel::new(ModelConfig::for_dataset(&spec, DIM));
    let dataset = SyntheticDataset::new(spec);
    let batch = dataset.batch(0);
    let mut few = batch.clone();
    for touched in &mut few.sparse {
        touched.truncate(1);
    }
    for scheme in [QuantScheme::Fp32, QuantScheme::recommended_for_bits(4)] {
        let capture = |batch| DeltaRecord::capture(&model, batch, &scheme, CheckpointId(0), 1);
        let (few_allocs, few_rec) = allocations(|| capture(&few));
        let (many_allocs, many_rec) = allocations(|| capture(&batch));
        assert!(few_rec.touched_rows() < many_rec.touched_rows());
        assert_eq!(few_rec.chunks.len(), many_rec.chunks.len());
        assert_eq!(
            many_allocs, few_allocs,
            "{scheme}: capture allocations grew with rows"
        );
        let (encode_allocs, _) = allocations(|| many_rec.encode());
        assert_eq!(encode_allocs, 1, "{scheme}: one buffer per encoded record");
    }

    // The engine's path: the record is written straight into its segment,
    // which is sized exactly and moved into the store. On two fresh logs,
    // one record each, a batch that touched one row per table and a full
    // batch allocate the same blocks (the batch's row ids and their table
    // offsets, the segment, the sync's key and bookkeeping), and every byte
    // the larger asks for beyond the smaller is a byte of its segment or of
    // its row ids — no slack capacity rides into the store.
    for scheme in [
        QuantScheme::Fp32,
        QuantScheme::Fp16,
        QuantScheme::Asymmetric { bits: 3 },
        QuantScheme::recommended_for_bits(4),
    ] {
        let fused = |batch: &check_n_run::workload::Batch| {
            let store = Arc::new(InMemoryStore::new());
            let mut log = WalWriter::new(store.clone(), "job", WalConfig);
            let (bytes, (allocs, written)) = bytes_allocated(|| {
                allocations(|| {
                    DeltaRecord::capture_into(&model, batch, &scheme, CheckpointId(0), 1, &mut log)
                })
            });
            let (_, segment) = written.unwrap();
            let stored = store.get(&wal::segment_key("job", 0)).unwrap();
            assert_eq!(stored.len() as u64, segment);
            let ids: usize = batch.sparse.iter().map(Vec::len).sum();
            (allocs, bytes, segment as usize + 4 * ids)
        };
        let (few_allocs, few_bytes, few_owed) = fused(&few);
        let (many_allocs, many_bytes, many_owed) = fused(&batch);
        assert!(many_owed > few_owed);
        assert_eq!(
            many_allocs, few_allocs,
            "{scheme}: capture_into allocations grew with rows"
        );
        assert_eq!(
            many_bytes - few_bytes,
            many_owed - few_owed,
            "{scheme}: bytes beyond the segment and the row ids grew with rows"
        );
    }
}
