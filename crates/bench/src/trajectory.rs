//! Bench-trajectory records: the hot-path benchmark results that are
//! checked in at the repo root as `BENCH_restore.json`,
//! `BENCH_quant.json`, and `BENCH_wal.json`.
//!
//! The `cnr_bench` binary (`cargo run --release -p cnr_bench --bin
//! cnr_bench`) re-measures and rewrites both files; the criterion benches
//! under `benches/{restore_scaling,quant_latency}.rs` call the same
//! measurement functions, so the checked-in numbers and the bench output
//! always come from one code path. CI's bench job regenerates the files
//! in full mode and fails when a simulated or count record differs from
//! the checked-in one — the trajectory must move with the code it
//! measures. Only full mode reproduces those records: quick mode measures
//! fewer rows and a shorter WAL window, so its `search_steps/*` and
//! `BENCH_wal.json` records differ.
//!
//! Two kinds of quantity appear in the records and they age differently:
//!
//! * `simulated_us` values come off the [`SimClock`], and `bytes`,
//!   `fraction` and `steps_per_row` values are counts: all are exactly
//!   reproducible anywhere;
//! * `ns`/`ns_per_row` values are wall-clock on the emitting machine and
//!   are comparable only against the same file's history — which is why
//!   every emitted document carries a [`MachineInfo`] block (core count,
//!   OS, arch): a cross-machine diff of wall-clock records is noise, and
//!   the block makes that visible in review (e.g. a 1-core emitter can
//!   never show a threaded-decode win).
//!
//! The JSON is hand-rolled (the workspace vendors no serde_json): flat
//! records, stable ids, three decimals, so diffs stay reviewable. The
//! string escaping is [`cnr_obs::json::escape`] — the same routine the
//! trace exporter uses, so the two hand-rolled writers cannot drift.

use cnr_cluster::SimClock;
use cnr_core::config::{CheckpointConfig, DeltaWalConfig};
use cnr_core::engine::EngineBuilder;
use cnr_core::manifest::{CheckpointId, CheckpointKind};
use cnr_core::policy::{Decision, TrackerAction};
use cnr_core::read::{
    restore_sharded, restore_sharded_into, restore_sharded_with_heat, RestoreOptions, RowHeat,
};
use cnr_core::snapshot::SnapshotTaker;
use cnr_core::write::shard_writer::encode_chunk;
use cnr_core::write::{CheckpointWriter, WorkItem};
use cnr_core::TrainingSnapshot;
use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
use cnr_obs::json::escape;
use cnr_obs::names;
use cnr_quant::QuantScheme;
use cnr_reader::ReaderState;
use cnr_storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};
use cnr_trainer::{Trainer, TrainerConfig};
use cnr_workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use std::time::{Duration, Instant};

use crate::figures::fig12_13::executed_steps;
use crate::workloads::{sampled_rows, trained_model};

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable identifier (`stage/param=value` style).
    pub id: String,
    /// Measured value in `unit`.
    pub value: f64,
    /// Unit: `simulated_us`, `bytes`, `fraction`, `steps_per_row`
    /// (deterministic) or `ns`/`ns_per_row` (wall-clock on the emitting
    /// machine).
    pub unit: &'static str,
    /// Measurement context the value is only interpretable under (e.g. the
    /// `hot_fraction` a `first_batch` latency was measured at) — the
    /// per-record analogue of the document's `machine` block.
    pub ctx: Option<String>,
}

impl BenchRecord {
    fn new(id: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            id: id.into(),
            value,
            unit,
            ctx: None,
        }
    }

    fn with_ctx(mut self, ctx: impl Into<String>) -> Self {
        self.ctx = Some(ctx.into());
        self
    }
}

/// The machine a record set's wall-clock values were measured on.
/// `simulated_us` records are machine-independent; `ns` / `ns_per_row`
/// records are only interpretable next to this block (a 1-core emitter
/// can never show a threaded-decode win, and core-count changes explain
/// ordering flips in the checked-in history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// `std::thread::available_parallelism` on the emitting machine.
    pub cores: usize,
    /// `std::env::consts::OS`.
    pub os: &'static str,
    /// `std::env::consts::ARCH`.
    pub arch: &'static str,
}

impl MachineInfo {
    /// Describes the machine the current process runs on.
    pub fn current() -> Self {
        Self {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
        }
    }
}

/// Serializes a record set as the checked-in JSON document. `machine`
/// describes where the wall-clock records were measured.
pub fn to_json(suite: &str, mode: &str, machine: &MachineInfo, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", escape(suite)));
    out.push_str(&format!("  \"mode\": \"{}\",\n", escape(mode)));
    out.push_str(&format!(
        "  \"machine\": {{ \"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\" }},\n",
        machine.cores,
        escape(machine.os),
        escape(machine.arch)
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let ctx = match &r.ctx {
            Some(c) => format!(", \"ctx\": \"{}\"", escape(c)),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\"{} }}{}\n",
            escape(&r.id),
            r.value,
            escape(r.unit),
            ctx,
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A trainer over a `dim`-wide model of `spec` after `batches` batches.
fn trained(spec: &DatasetSpec, dim: usize, batches: u64) -> (ModelConfig, Trainer) {
    let ds = SyntheticDataset::new(spec.clone());
    let cfg = ModelConfig::for_dataset(spec, dim);
    let model = DlrmModel::new(cfg.clone());
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 0..batches {
        trainer.train_one(&ds.batch(i));
    }
    (cfg, trainer)
}

/// A full snapshot of `trainer`, resetting its tracker.
pub fn full_snapshot(trainer: &mut Trainer) -> TrainingSnapshot<'_> {
    let plan = ShardPlan::balanced(trainer.model().config(), 1, 2);
    let batches = trainer.model().iteration();
    SnapshotTaker::new(plan).take(
        trainer,
        ReaderState::at(batches),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        },
        &CheckpointConfig::default(),
    )
}

/// The restore-scaling checkpoint: small enough to restore in simulated
/// milliseconds, but with enough embedding chunks (141 at 64 rows each)
/// that per-chunk fetch time dominates the fixed manifest walk — on this
/// workload both host scaling and the lazy first-batch win are visible.
/// (The old `tiny` workload's 24 chunks made the manifest the bottleneck,
/// hiding both.)
pub fn restore_trainer() -> (ModelConfig, Trainer) {
    let spec = DatasetSpec {
        seed: 2424,
        batch_size: 16,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(6_000, 2, 1.05),
            TableAccessSpec::new(3_000, 1, 0.9),
        ],
        concept_seed: None,
    };
    trained(&spec, 16, 3)
}

/// A checkpoint whose 4-bit decode dominates the restore: the workload of
/// the serial-vs-threaded decode comparison.
pub fn decode_trainer(quick: bool) -> (ModelConfig, Trainer) {
    let (rows_a, rows_b, dim, batches) = if quick {
        (3_000, 1_500, 16, 1)
    } else {
        (12_000, 6_000, 32, 2)
    };
    let spec = DatasetSpec {
        seed: 4242,
        batch_size: 16,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(rows_a, 2, 1.0),
            TableAccessSpec::new(rows_b, 1, 0.9),
        ],
        concept_seed: None,
    };
    trained(&spec, dim, batches)
}

/// Writes the restore-scaling checkpoint over `hosts` simulated downlinks
/// and restores it, returning the simulated failure→ready-to-train time.
/// Deterministic: the value comes off the [`SimClock`].
pub fn simulated_ready_to_train(
    model_cfg: &ModelConfig,
    snap: &TrainingSnapshot,
    hosts: usize,
) -> Duration {
    let store = SimulatedRemoteStore::new(
        RemoteConfig {
            bandwidth_bytes_per_sec: 4.0 * 1024.0 * 1024.0,
            base_latency: Duration::from_micros(200),
            replication: 1,
            channels: hosts as u32,
        },
        SimClock::new(),
    );
    let writer = CheckpointWriter::new(&store, "bench");
    let cfg = CheckpointConfig {
        // 24 chunks over the two tiny tables: divisible by 8 reader hosts,
        // so the scaling approaches the ideal 8x.
        chunk_rows: 64,
        ..CheckpointConfig::default()
    };
    writer
        .write(snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
        .expect("write");
    let failed_at = store.wait_for_drain();
    let sharded = restore_sharded(
        &store,
        "bench",
        CheckpointId(0),
        model_cfg,
        &RestoreOptions {
            reader_hosts: hosts,
            ..RestoreOptions::default()
        },
        failed_at,
    )
    .expect("restore");
    sharded.breakdown.fetch
}

/// The hot fraction the checked-in `first_batch` series is measured at:
/// restore the top 5% of rows by Zipf heat (plus the dense MLPs) before
/// the first batch, drain the rest in the background.
pub const FIRST_BATCH_HOT_FRACTION: f64 = 0.05;

/// Writes the restore-scaling checkpoint over `hosts` downlinks and
/// restores it *lazily* at `hot_fraction`, returning simulated
/// `(first_batch, ready_to_train)` — when training may resume on the hot
/// set versus when the cold tail finished draining. Heat is the pure
/// workload Zipf prior (no coverage boost: the bench restores into a
/// fresh job, where no tracker history exists). Deterministic: both
/// values come off the [`SimClock`].
pub fn simulated_first_batch(
    model_cfg: &ModelConfig,
    snap: &TrainingSnapshot,
    hosts: usize,
    hot_fraction: f64,
) -> (Duration, Duration) {
    let store = SimulatedRemoteStore::new(
        RemoteConfig {
            bandwidth_bytes_per_sec: 4.0 * 1024.0 * 1024.0,
            base_latency: Duration::from_micros(200),
            replication: 1,
            channels: hosts as u32,
        },
        SimClock::new(),
    );
    let writer = CheckpointWriter::new(&store, "bench");
    let cfg = CheckpointConfig {
        chunk_rows: 64,
        ..CheckpointConfig::default()
    };
    writer
        .write(snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
        .expect("write");
    let failed_at = store.wait_for_drain();
    let heat = RowHeat::zipf(&model_cfg.row_counts(), 1.0);
    let sharded = restore_sharded_with_heat(
        &store,
        "bench",
        CheckpointId(0),
        model_cfg,
        &RestoreOptions {
            reader_hosts: hosts,
            lazy: true,
            hot_fraction,
            ..RestoreOptions::default()
        },
        failed_at,
        None,
        Some(&heat),
    )
    .expect("restore");
    (
        sharded.first_batch_at - failed_at,
        sharded.ready_at - failed_at,
    )
}

/// Writes the decode-comparison checkpoint (4-bit, small single-part
/// chunks) into an in-memory store, once, for repeated timed restores.
pub fn decode_store(snap: &TrainingSnapshot) -> InMemoryStore {
    let store = InMemoryStore::new();
    let writer = CheckpointWriter::new(&store, "bench");
    let cfg = CheckpointConfig {
        chunk_rows: 512, // dozens of chunks: decode threads stay balanced
        ..CheckpointConfig::default()
    };
    writer
        .write(
            snap,
            CheckpointId(0),
            None,
            QuantScheme::Asymmetric { bits: 4 },
            &cfg,
        )
        .expect("write");
    store
}

/// Wall-clock of one full sharded restore from `store` on `workers`
/// decode threads (single reader host, so the worker budget all lands on
/// decode), minimized over `rounds` runs.
pub fn decode_wall_clock(
    store: &InMemoryStore,
    model_cfg: &ModelConfig,
    workers: usize,
    rounds: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        let sharded = restore_sharded(
            store,
            "bench",
            CheckpointId(0),
            model_cfg,
            &RestoreOptions {
                reader_hosts: 1,
                decode_workers: workers,
                ..RestoreOptions::default()
            },
            Duration::ZERO,
        )
        .expect("restore");
        let wall = t0.elapsed();
        std::hint::black_box(&sharded.report.state);
        best = best.min(wall);
    }
    best
}

/// Writes `snap` as one full checkpoint of `scheme` in 4096-row chunks
/// into an in-memory store: the input of [`place_wall_clock`].
pub fn chunk_store(snap: &TrainingSnapshot, scheme: QuantScheme) -> InMemoryStore {
    let store = InMemoryStore::new();
    let cfg = CheckpointConfig {
        chunk_rows: 4096,
        ..CheckpointConfig::default()
    };
    CheckpointWriter::new(&store, "bench")
        .write(snap, CheckpointId(0), None, scheme, &cfg)
        .expect("write");
    store
}

/// Wall-clock of restoring [`chunk_store`]'s checkpoint through the public
/// in-place restore — one reader host, one decode worker — into a model
/// that stays resident across rounds, minimized over `rounds` runs: each
/// chunk's envelope check, frame open and placement, with nothing
/// allocated model-sized.
pub fn place_wall_clock(store: &InMemoryStore, model_cfg: &ModelConfig, rounds: usize) -> Duration {
    let mut model = DlrmModel::new(model_cfg.clone());
    let options = RestoreOptions {
        reader_hosts: 1,
        decode_workers: 1,
        ..RestoreOptions::default()
    };
    let mut best = Duration::MAX;
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        restore_sharded_into(
            store,
            "bench",
            CheckpointId(0),
            model_cfg,
            &options,
            Duration::ZERO,
            None,
            None,
            model.table_views_mut(),
            false,
        )
        .expect("restore");
        best = best.min(t0.elapsed());
        std::hint::black_box(model.tables());
    }
    best
}

/// The `BENCH_restore.json` record set: simulated ready-to-train per
/// reader-host count, plus serial-vs-threaded decode wall-clock.
pub fn restore_records(quick: bool) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let (model_cfg, mut trainer) = restore_trainer();
    let snap = full_snapshot(&mut trainer);
    for hosts in [1usize, 2, 4, 8] {
        let t = simulated_ready_to_train(&model_cfg, &snap, hosts);
        records.push(BenchRecord::new(
            format!("ready_to_train/hosts={hosts}"),
            t.as_secs_f64() * 1e6,
            "simulated_us",
        ));
    }
    // Lazy first-batch latency: the same checkpoint, restored priority-
    // ordered with the top rows by Zipf heat applied before training
    // resumes. Each record carries the hot fraction it was measured at —
    // the number is meaningless without it.
    for hosts in [1usize, 2, 4, 8] {
        let (first_batch, _) =
            simulated_first_batch(&model_cfg, &snap, hosts, FIRST_BATCH_HOT_FRACTION);
        records.push(
            BenchRecord::new(
                format!("first_batch/hosts={hosts}"),
                first_batch.as_secs_f64() * 1e6,
                "simulated_us",
            )
            .with_ctx(format!("hot_fraction={FIRST_BATCH_HOT_FRACTION}")),
        );
    }
    let (decode_cfg, mut trainer) = decode_trainer(quick);
    let decode_snap = full_snapshot(&mut trainer);
    let store = decode_store(&decode_snap);
    let rounds = if quick { 2 } else { 5 };
    for workers in [1usize, 4] {
        let t = decode_wall_clock(&store, &decode_cfg, workers, rounds);
        records.push(BenchRecord::new(
            format!("decode_wall/workers={workers}"),
            t.as_nanos() as f64,
            "ns",
        ));
    }
    records
}

/// The `BENCH_quant.json` record set: wall-clock ns per quantized row for
/// each scheme the quant-latency bench tracks, and per row of a trained
/// model quantized in 4096-row chunks through `encode_chunk`, as a write
/// does (`quantize_chunk/*`), wall-clock ns per row of
/// placing a checkpoint's fp32, fp16 and 4-bit chunks (`decode_chunk/*`, through
/// [`place_wall_clock`]), and for each adaptive
/// scheme among them the mean number of greedy steps its range search
/// executes per row (`search_steps/*`) — a count over the same rows,
/// identical on every machine in one mode (quick mode trains the model on
/// fewer batches, so its counts differ from full mode's), so a change
/// that weakens the search's clip bound shows as a moved value, not as a
/// slower wall-clock number.
pub fn quant_records(quick: bool) -> Vec<BenchRecord> {
    use cnr_quant::RowSource;
    let (_, model) = trained_model(1, if quick { 20 } else { 100 }, 16);
    let rows = sampled_rows(&model, 64);
    let rounds = if quick { 3 } else { 10 };
    let mut records = Vec::new();
    for (name, scheme) in quant_schemes() {
        let mut best = Duration::MAX;
        for _ in 0..rounds {
            let t0 = Instant::now();
            for i in 0..rows.num_rows() {
                std::hint::black_box(scheme.quantize_row(rows.row(i)));
            }
            best = best.min(t0.elapsed());
        }
        records.push(BenchRecord::new(
            format!("quantize_row/{name}"),
            best.as_nanos() as f64 / rows.num_rows() as f64,
            "ns_per_row",
        ));
    }
    // Quantize as a write runs it: every row of the same model, in
    // 4096-row chunks, through `encode_chunk`. 3-bit adaptive is the
    // §6.2.1 selector's fallback width.
    let chunks = model_chunks(&model, 4096);
    let chunked_rows: usize = chunks.iter().map(|item| item.indices.len()).sum();
    for (name, scheme) in [
        ("fp32", QuantScheme::Fp32),
        ("asymmetric4", QuantScheme::Asymmetric { bits: 4 }),
        ("adaptive4_b45", QuantScheme::recommended_for_bits(4)),
        ("adaptive3_b25", QuantScheme::recommended_for_bits(3)),
    ] {
        let mut best = Duration::MAX;
        for _ in 0..rounds {
            let t0 = Instant::now();
            for item in &chunks {
                let table = model.tables()[item.table as usize].view();
                std::hint::black_box(encode_chunk(item, &table, &scheme));
            }
            best = best.min(t0.elapsed());
        }
        records.push(BenchRecord::new(
            format!("quantize_chunk/{name}"),
            best.as_nanos() as f64 / chunked_rows as f64,
            "ns_per_row",
        ));
    }
    // Decode, a chunk at a time, as a restore runs it: the paper's
    // baseline, the binary16 baseline, and the 4-bit codes a
    // consecutive-increment chain restores.
    let (decode_cfg, mut trainer) = decode_trainer(quick);
    let decode_snap = full_snapshot(&mut trainer);
    let decoded_rows: usize = decode_cfg.row_counts().iter().sum();
    for (name, scheme) in [
        ("fp32", QuantScheme::Fp32),
        ("fp16", QuantScheme::Fp16),
        ("asymmetric4", QuantScheme::Asymmetric { bits: 4 }),
    ] {
        let store = chunk_store(&decode_snap, scheme);
        let t = place_wall_clock(&store, &decode_cfg, rounds);
        records.push(BenchRecord::new(
            format!("decode_chunk/{name}"),
            t.as_nanos() as f64 / decoded_rows as f64,
            "ns_per_row",
        ));
    }
    for (name, scheme) in quant_schemes() {
        if let QuantScheme::AdaptiveAsymmetric {
            bits,
            num_bins,
            ratio,
        } = scheme
        {
            let steps = executed_steps(&rows, bits, num_bins, ratio);
            records.push(BenchRecord::new(
                format!("search_steps/{name}"),
                steps as f64 / rows.num_rows() as f64,
                "steps_per_row",
            ));
        }
    }
    records
}

/// Every row of `model`'s tables as `encode_chunk` work items of at most
/// `chunk_rows` consecutive rows.
fn model_chunks(model: &DlrmModel, chunk_rows: usize) -> Vec<WorkItem> {
    let mut chunks = Vec::new();
    for (table, embedding) in model.tables().iter().enumerate() {
        let rows = embedding.rows();
        for start in (0..rows).step_by(chunk_rows) {
            let end = (start + chunk_rows).min(rows);
            chunks.push(WorkItem {
                table: table as u16,
                indices: (start as u32..end as u32).collect(),
                dim: embedding.dim(),
            });
        }
    }
    chunks
}

/// The `BENCH_wal.json` record set: steady-state overhead of the
/// per-iteration delta WAL against an otherwise identical engine, plus the
/// simulated time the logged tail adds to a resume's fetch after a crash
/// three batches past a boundary. All values come off
/// the [`SimClock`], so they are exactly reproducible on every machine
/// in one mode; quick mode shortens the measured window, which moves the
/// per-iteration averages, so only full mode reproduces the checked-in
/// records.
///
/// The headline record, `steady_overhead/frac`, is asserted to sit inside
/// the paper's 6–17% checkpoint-overhead band (Check-N-Run §5): logging a
/// quantized delta every iteration must stay in the same cost regime the
/// paper reports for per-iteration checkpointing.
pub fn wal_records(quick: bool) -> Vec<BenchRecord> {
    let warmup = 5u64; // first full checkpoint lands here; the WAL arms after it
    let steady = if quick { 10u64 } else { 30 };
    let spec = DatasetSpec::tiny(808);
    let build = |wal: Option<DeltaWalConfig>| {
        let mut b = EngineBuilder::new(spec.clone(), ModelConfig::for_dataset(&spec, 8))
            .checkpoint_every_batches(warmup)
            .cluster_shape(1, 2);
        if let Some(w) = wal {
            b = b.delta_wal(w);
        }
        b.build().expect("engine")
    };

    // Baseline: same model, same batches, same checkpoint cadence, no WAL.
    let mut base = build(None);
    base.train_batches(warmup).expect("warmup");
    let base_t0 = base.clock().now();
    base.train_batches(steady).expect("steady");
    let base_window = base.clock().now() - base_t0;

    let mut walled = build(Some(DeltaWalConfig));
    walled.train_batches(warmup).expect("warmup");
    let wal_t0 = walled.clock().now();
    let wal_stats_t0 = walled.stats().wal;
    walled.train_batches(steady).expect("steady");
    let wal_window = walled.clock().now() - wal_t0;
    let wal_stats = walled.stats().wal;

    let overhead = (wal_window - base_window).as_secs_f64() / base_window.as_secs_f64();
    let sync_us = (wal_stats.sync_time - wal_stats_t0.sync_time).as_secs_f64() * 1e6;
    let appends = (wal_stats.appends - wal_stats_t0.appends).max(1) as f64;
    let bytes = (wal_stats.bytes_appended - wal_stats_t0.bytes_appended) as f64;

    // Crash three batches past a boundary. The log's segments ride the
    // restore's fetch plan at the head of the one reader host's list, so
    // the `restore.wal_replay` span — from the plan's completion to the
    // log's last arrival — is what reading the tail adds to the resume's
    // fetch: every chunk queues behind it.
    walled.train_batches(3).expect("tail");
    walled.simulate_failure_and_restore().expect("restore");
    let resume = walled.stats().resumes.last().expect("resume");
    assert_eq!(resume.wal_replayed_iterations, 3);
    assert_eq!(resume.wal_replay, Duration::ZERO, "the log is read inside the fetch");
    let spans = walled.obs().spans();
    let log_reads = spans
        .iter()
        .find(|s| s.name == names::SPAN_RESTORE_WAL_REPLAY)
        .expect("the restore read the log")
        .duration();

    vec![
        BenchRecord::new(
            "steady_overhead/frac",
            overhead,
            "fraction",
        ),
        BenchRecord::new("sync/us_per_iteration", sync_us / appends, "simulated_us"),
        BenchRecord::new("append/bytes_per_iteration", bytes / appends, "bytes"),
        BenchRecord::new("replay/tail_us", log_reads.as_secs_f64() * 1e6, "simulated_us"),
    ]
}

/// The scheme matrix both the quant-latency bench and the trajectory
/// emitter measure.
pub fn quant_schemes() -> Vec<(&'static str, QuantScheme)> {
    vec![
        ("fp32", QuantScheme::Fp32),
        ("symmetric4", QuantScheme::Symmetric { bits: 4 }),
        ("asymmetric4", QuantScheme::Asymmetric { bits: 4 }),
        ("asymmetric8", QuantScheme::Asymmetric { bits: 8 }),
        (
            "adaptive4_b25",
            QuantScheme::AdaptiveAsymmetric {
                bits: 4,
                num_bins: 25,
                ratio: 1.0,
            },
        ),
        // The engine's 4-bit default, and what the lifecycle benchmark's
        // `incr_adaptive4` workload runs.
        ("adaptive4_b45", QuantScheme::recommended_for_bits(4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_escaped() {
        let records = vec![
            BenchRecord::new("a/b=1", 12.3456, "ns"),
            BenchRecord::new("quote\"back\\slash", 0.0, "simulated_us")
                .with_ctx("hot_fraction=0.05"),
        ];
        let machine = MachineInfo {
            cores: 4,
            os: "linux",
            arch: "x86_64",
        };
        let json = to_json("restore", "quick", &machine, &records);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("]\n}\n"));
        assert!(json.contains("\"suite\": \"restore\""));
        assert!(json.contains(
            "\"machine\": { \"cores\": 4, \"os\": \"linux\", \"arch\": \"x86_64\" }"
        ));
        assert!(json.contains("\"id\": \"a/b=1\", \"value\": 12.346, \"unit\": \"ns\""));
        assert!(json.contains("\"unit\": \"simulated_us\", \"ctx\": \"hot_fraction=0.05\""));
        assert!(json.contains("quote\\\"back\\\\slash"));
        // Exactly one comma between the two records (the other `},` closes
        // the machine block), none after the last record.
        assert_eq!(json.matches("},\n").count(), 2);
        assert!(json.contains("\" }\n  ]"));
    }

    #[test]
    fn ready_to_train_is_deterministic_and_scales() {
        let (cfg, mut trainer) = restore_trainer();
        let snap = full_snapshot(&mut trainer);
        let one = simulated_ready_to_train(&cfg, &snap, 1);
        let eight = simulated_ready_to_train(&cfg, &snap, 8);
        assert!(eight < one, "more downlinks resume sooner: {one:?} vs {eight:?}");
        assert_eq!(
            one,
            simulated_ready_to_train(&cfg, &snap, 1),
            "simulated values must be exactly reproducible"
        );
    }

    #[test]
    fn first_batch_beats_ready_to_train_at_every_host_count() {
        // The tentpole acceptance bound: at 8 hosts, lazy first-batch must
        // come in at no more than half of full ready-to-train (simulated
        // clock only — both values are machine-independent).
        let (cfg, mut trainer) = restore_trainer();
        let snap = full_snapshot(&mut trainer);
        for hosts in [1usize, 2, 4, 8] {
            let (first, ready) =
                simulated_first_batch(&cfg, &snap, hosts, FIRST_BATCH_HOT_FRACTION);
            assert!(
                first < ready,
                "hosts={hosts}: hot set must land before the cold tail \
                 ({first:?} vs {ready:?})"
            );
            if hosts == 8 {
                assert!(
                    first.as_secs_f64() <= 0.5 * ready.as_secs_f64(),
                    "8-host first-batch {first:?} must be ≤ 50% of \
                     ready-to-train {ready:?}"
                );
            }
        }
        let again = simulated_first_batch(&cfg, &snap, 8, FIRST_BATCH_HOT_FRACTION);
        assert_eq!(
            again,
            simulated_first_batch(&cfg, &snap, 8, FIRST_BATCH_HOT_FRACTION),
            "simulated values must be exactly reproducible"
        );
    }

    #[test]
    fn wal_overhead_is_deterministic_and_inside_the_paper_band() {
        let records = wal_records(true);
        assert_eq!(records, wal_records(true), "simulated records must reproduce");
        let frac = records
            .iter()
            .find(|r| r.id == "steady_overhead/frac")
            .expect("overhead record")
            .value;
        // Check-N-Run reports 6-17% overhead for per-iteration
        // checkpointing; the delta WAL must land in the same regime.
        assert!(
            (0.06..=0.17).contains(&frac),
            "steady-state WAL overhead {frac:.4} outside the paper's 6-17% band"
        );
        let replay = records
            .iter()
            .find(|r| r.id == "replay/tail_us")
            .expect("replay record")
            .value;
        assert!(replay > 0.0, "a non-empty tail must add to the resume's fetch");
    }

    #[test]
    fn decode_wall_clock_is_bit_stable_across_workers() {
        // The wall-clock numbers vary by machine; the restored state must
        // not. (The proptest suite covers this across geometries — this is
        // the trajectory workload's own sanity check.)
        let (cfg, mut trainer) = decode_trainer(true);
        let snap = full_snapshot(&mut trainer);
        let store = decode_store(&snap);
        let restore_with = |workers: usize| {
            restore_sharded(
                &store,
                "bench",
                CheckpointId(0),
                &cfg,
                &RestoreOptions {
                    reader_hosts: 1,
                    decode_workers: workers,
                    ..RestoreOptions::default()
                },
                Duration::ZERO,
            )
            .expect("restore")
            .report
            .state
        };
        assert_eq!(restore_with(1), restore_with(4));
    }
}

