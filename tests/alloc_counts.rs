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
//! row in allocates nothing; planning a write allocates a row's index, not
//! the row; an append into a grown segment buffer allocates nothing.

use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::delta_log::DeltaRecord;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::read::{restore_sharded_into, RestoreOptions, RowHeat};
use check_n_run::core::write::shard_writer::encode_chunk;
use check_n_run::core::write::{chunker, CheckpointWriter, WorkItem};
use check_n_run::core::TrainingSnapshot;
use check_n_run::model::state::{ModelState, TableState};
use check_n_run::model::{DlrmModel, ModelConfig, OptimizerConfig, TableSpec};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::wal::{WalConfig, WalWriter};
use check_n_run::storage::InMemoryStore;
use check_n_run::tracking::TrackerSnapshot;
use check_n_run::workload::{DatasetSpec, SyntheticDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
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

/// The work item naming every row of a `rows`-row table.
fn item(rows: usize) -> WorkItem {
    WorkItem {
        shard: 0,
        seq: 0,
        table: 0,
        indices: (0..rows as u32).collect(),
        dim: DIM,
    }
}

/// A one-table snapshot whose delta is `delta`.
fn snapshot(rows: usize, delta: TrackerSnapshot) -> TrainingSnapshot {
    TrainingSnapshot {
        model: ModelState {
            tables: vec![table(rows)],
            bottom: Vec::new(),
            top: Vec::new(),
            iteration: 1,
        },
        delta,
        reader: ReaderState::at(1),
        kind: CheckpointKind::Full,
        taken_at: Duration::ZERO,
        stall: Duration::ZERO,
    }
}

#[test]
fn hot_paths_allocate_per_chunk_not_per_row() {
    for scheme in [
        QuantScheme::Fp32,
        QuantScheme::Fp16,
        QuantScheme::Asymmetric { bits: 8 },
        QuantScheme::recommended_for_bits(4),
    ] {
        let (small, large) = (item(16), item(4096));
        let (small_table, large_table) = (table(16), table(4096));
        let (encode_small, _) = allocations(|| encode_chunk(&small, &small_table, &scheme));
        let (encode_large, _) = allocations(|| encode_chunk(&large, &large_table, &scheme));
        assert_eq!(encode_small, 1, "{scheme}: one staging buffer per chunk");
        assert_eq!(
            encode_large, encode_small,
            "{scheme}: encode allocations grew with rows"
        );
    }

    // An eager restore into a destination the caller already holds asks
    // the allocator for row indices, accumulators, rank stamps and
    // manifests — never for a model-sized buffer (per-chunk value buffers
    // merged into a zero template asked for more than twice the model) —
    // and for no more when chunks hold more rows.
    let spec = DatasetSpec::tiny(5);
    let rows = 40_000;
    let saved = snapshot(rows, TrackerSnapshot::full(&[rows]));
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
                )
            })
        });
        let restored = restored.unwrap();
        assert!(restored.report.state.tables.is_empty());
        assert_eq!(restored.report.rows_applied, rows as u64);
        assert!(dest == saved.model.tables[0], "fp32 restore is bit-exact");
        assert!(
            4 * bytes < saved.model.byte_size(),
            "restore requested {bytes} bytes for a {}-byte model at {chunk_rows} rows per chunk",
            saved.model.byte_size()
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
        )
    });
    let mut tail = restored.unwrap().lazy.expect("a lazy restore returns its tail");
    let cold_value_bytes = tail.pending_rows() as usize * DIM * 4;
    assert!(cold_value_bytes > saved.model.byte_size() / 2, "most rows are cold");
    assert!(
        4 * bytes < cold_value_bytes,
        "lazy restore requested {bytes} bytes while holding back {cold_value_bytes} bytes of rows"
    );
    let cold_row = (0..rows as u32)
        .rev()
        .find(|&row| !tail.is_materialized(0, row))
        .expect("a cold row");
    assert_eq!(model.tables()[0].row(cold_row as usize), &[0.0; DIM]);
    let (fault_allocs, fetched) = allocations(|| tail.fault_in(&mut model, 0, cold_row));
    assert!(fetched.unwrap() > 0);
    assert_eq!(fault_allocs, 0, "a fault-in allocates nothing");
    let at = cold_row as usize * DIM;
    assert_eq!(
        model.tables()[0].row(cold_row as usize),
        &saved.model.tables[0].data[at..at + DIM]
    );
    tail.drain(&mut model).unwrap();
    assert!(tail.is_drained());
    assert!(
        model.tables()[0].data() == saved.model.tables[0].data.as_slice()
            && model.tables()[0].adagrad() == saved.model.tables[0].adagrad.as_deref(),
        "drained lazy restore is bit-exact"
    );

    // Planning a write names rows, it does not copy them: an index per
    // planned row (4 bytes) plus per-chunk bookkeeping — whether the
    // delta is every row or a scattered few, on one host or several.
    let rows = 20_000;
    let full = TrackerSnapshot::full(&[rows]);
    let mut sparse = TrackerSnapshot::empty(&[rows]);
    for row in (0..rows).step_by(7) {
        sparse.tables[0].set(row);
    }
    for (delta, hosts) in [(full.clone(), 1), (full, 3), (sparse, 2)] {
        let snap = snapshot(rows, delta);
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

    // An append writes its frame in place at the segment buffer's tail:
    // once the buffer has grown, appends that fit allocate nothing.
    let store = Arc::new(InMemoryStore::new());
    let mut wal = WalWriter::new(
        store,
        "job",
        WalConfig {
            segment_bytes: 1 << 30,
            sync_every: u32::MAX,
        },
    );
    wal.append(&vec![0xA5; 64 << 10]).unwrap();
    wal.truncate().unwrap();
    let record = vec![0x5A; 4 << 10];
    let (append_allocs, ()) = allocations(|| {
        for _ in 0..8 {
            assert!(wal.append(&record).unwrap().is_none());
        }
    });
    assert_eq!(append_allocs, 0, "an append into a grown segment buffer allocated");
}
