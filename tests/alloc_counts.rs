//! Heap allocations on the chunk hot paths are O(1) per chunk.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, and
//! this file holds exactly one `#[test]` so nothing else allocates while a
//! count is being taken. The claim checked is the shape, not a number:
//! encoding a chunk, decoding a chunk and faulting a row in allocate the
//! same number of times for 16 rows as for 4096.

use check_n_run::core::manifest::FlatChunk;
use check_n_run::core::read::{DecodedChunk, LazyRestore};
use check_n_run::core::write::shard_writer::encode_chunk;
use check_n_run::core::write::WorkItem;
use check_n_run::model::{DlrmModel, ModelConfig};
use check_n_run::quant::QuantScheme;
use check_n_run::workload::DatasetSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

const DIM: usize = 32;

fn item(rows: usize) -> WorkItem {
    WorkItem {
        shard: 0,
        seq: 0,
        table: 0,
        indices: (0..rows as u32).collect(),
        data: (0..rows * DIM)
            .map(|i| ((i * 31 % 257) as f32 / 257.0 - 0.4) * 0.2)
            .collect(),
        acc: Some(vec![0.25; rows]),
        dim: DIM,
    }
}

#[test]
fn chunk_paths_allocate_the_same_for_16_rows_as_for_4096() {
    for scheme in [
        QuantScheme::Fp32,
        QuantScheme::Fp16,
        QuantScheme::Asymmetric { bits: 8 },
        QuantScheme::recommended_for_bits(4),
    ] {
        let (small, large) = (item(16), item(4096));
        let (encode_small, small_bytes) = allocations(|| encode_chunk(&small, &scheme));
        let (encode_large, large_bytes) = allocations(|| encode_chunk(&large, &scheme));
        assert_eq!(encode_small, 1, "{scheme}: one staging buffer per chunk");
        assert_eq!(
            encode_large, encode_small,
            "{scheme}: encode allocations grew with rows"
        );

        let (decode_small, decoded_small) = allocations(|| FlatChunk::decode(&small_bytes));
        let (decode_large, decoded_large) = allocations(|| FlatChunk::decode(&large_bytes));
        // Indices, accumulators, values.
        assert_eq!(decode_small, 3, "{scheme}: decode allocations");
        assert_eq!(
            decode_large, decode_small,
            "{scheme}: decode allocations grew with rows"
        );
        assert_eq!(decoded_small.unwrap().values.len(), 16 * DIM);
        assert_eq!(decoded_large.unwrap().values.len(), 4096 * DIM);
    }

    // A fault-in copies one row out of a cold chunk, whatever its size.
    let spec = DatasetSpec::tiny(5);
    let mut model = DlrmModel::new(ModelConfig::for_dataset(&spec, DIM));
    let row_counts: Vec<usize> = model.tables().iter().map(|t| t.rows()).collect();
    let rows_available = row_counts[0].min(4096);
    let mut counts = Vec::new();
    for rows in [16.min(rows_available), rows_available] {
        let cold = DecodedChunk {
            level: 0,
            key: "cold".into(),
            table: 0,
            row_indices: (0..rows as u32).collect(),
            values: vec![1.5; rows * DIM],
            dim: DIM,
            optimizer_state: None,
            bytes: 64 * rows as u64,
            arrived_at: Duration::ZERO,
            hot: false,
        };
        let mut lazy = LazyRestore::new(vec![cold], &row_counts);
        let (n, out) = allocations(|| lazy.fault_in(&mut model, 0, 3));
        out.unwrap();
        assert_eq!(model.tables()[0].row(3), &[1.5; DIM]);
        counts.push(n);
    }
    assert_eq!(counts, [0, 0], "a fault-in allocates nothing");
}
