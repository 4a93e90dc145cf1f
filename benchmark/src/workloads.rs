//! The four lifecycle workloads and the simulated world they share.
//!
//! Every workload drives the public `Engine` / `EngineBuilder` API as a
//! closed loop with one client (the training job). They differ in which
//! layers do the work; `why` says which, and which are bypassed.

use check_n_run::core::config::{DeltaWalConfig, PolicyKind, QuantMode};
use check_n_run::core::engine::{Engine, EngineBuilder};
use check_n_run::core::CnrError;
use check_n_run::model::ModelConfig;
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderConfig;
use check_n_run::storage::RemoteConfig;
use check_n_run::trainer::TrainerConfig;
use check_n_run::workload::{DatasetSpec, QpsModel, TableAccessSpec};
use std::time::Duration;

/// Samples per batch.
pub const BATCH_SIZE: usize = 128;
/// Dense features per sample.
pub const DENSE_DIM: usize = 13;
/// Embedding dimension.
pub const EMBEDDING_DIM: usize = 32;
/// Rows of table 1 in the large model (1.85 R rows in total).
pub const LARGE_ROWS: u64 = 200_000;
/// Rows of table 1 in the small model.
pub const SMALL_ROWS: u64 = 25_000;
/// One checkpoint interval in simulated time: the paper's 30 minutes.
pub const SIM_INTERVAL: Duration = Duration::from_secs(1800);
/// Longest `train_batches` call; short blocks keep the reader prefetching.
pub const BLOCK: u64 = 20;
/// Job name (prefix of every storage key).
pub const JOB: &str = "bench";

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What does the work on this workload and what is bypassed.
    pub why: &'static str,
    /// Rows of table 1 (`R`); tables 2–4 hold R/2, R/4 and R/10.
    pub rows: u64,
    /// Incremental policy.
    pub policy: PolicyKind,
    /// Quantization mode.
    pub quant: QuantMode,
    /// Batches per checkpoint interval.
    pub interval: u64,
    /// Measured intervals per round (the warm-up interval is extra).
    pub intervals: u32,
    /// Simulated writer hosts.
    pub writer_hosts: usize,
    /// Simulated reader hosts.
    pub reader_hosts: usize,
    /// Every `fail_every`-th measured interval is interrupted by a failure.
    pub fail_every: u32,
    /// Per-iteration delta WAL.
    pub wal: bool,
    /// Lazy restore with this hot fraction.
    pub lazy: Option<f64>,
    /// Scrub sweep every this many intervals.
    pub scrub_every: Option<u32>,
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "full_fp32",
        why: "Paper baseline: full fp32 checkpoints; a boundary is snapshot copy, fp32 encode, envelope CRC and store put. quant, tracking and policy do nothing, so a kernel PR must show no change.",
        rows: LARGE_ROWS,
        policy: PolicyKind::FullOnly,
        quant: QuantMode::None,
        interval: 100,
        intervals: 10,
        writer_hosts: 1,
        reader_hosts: 1,
        fail_every: 2,
        wal: false,
        lazy: None,
        scrub_every: None,
    },
    Workload {
        name: "incr_adaptive4",
        why: "Paper's recommended setup: intermittent incrementals, adaptive 4-bit. Quantize is most of a boundary; storage and snapshot are negligible; stored bytes fall in the paper's 6-17x band.",
        rows: SMALL_ROWS,
        policy: PolicyKind::Intermittent,
        quant: QuantMode::Fixed(QuantScheme::AdaptiveAsymmetric {
            bits: 4,
            num_bins: 45,
            ratio: 1.0,
        }),
        interval: 100,
        intervals: 10,
        writer_hosts: 1,
        reader_hosts: 1,
        fail_every: 2,
        wal: false,
        lazy: None,
        scrub_every: None,
    },
    Workload {
        name: "recover_chain",
        why: "Read-heavy: a restore after every boundary over a consecutive-increment chain that grows each interval. Chain walk, fetch scheduler, 4-bit decode and merge dominate; boundaries are cheap.",
        rows: LARGE_ROWS,
        policy: PolicyKind::Consecutive,
        quant: QuantMode::Fixed(QuantScheme::Asymmetric { bits: 4 }),
        interval: 50,
        intervals: 12,
        writer_hosts: 4,
        reader_hosts: 4,
        fail_every: 1,
        wal: false,
        lazy: None,
        scrub_every: None,
    },
    Workload {
        name: "online_wal_lazy",
        why: "Same layers used differently: per-iteration WAL writes beside checkpoint writes, scrub reads beside uploads, lazy restores with fault-ins. fp32 keeps verification exact.",
        rows: LARGE_ROWS,
        policy: PolicyKind::OneShot,
        quant: QuantMode::None,
        interval: 50,
        intervals: 8,
        writer_hosts: 2,
        reader_hosts: 2,
        fail_every: 2,
        wal: true,
        lazy: Some(0.05),
        scrub_every: Some(3),
    },
];

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The dataset: four tables of R, R/2, R/4 and R/10 rows. The seed
    /// also nudges R by under 0.1%, so that no metric — not even the
    /// simulated write latency of a full fp32 checkpoint, which depends on
    /// the model's size alone — reads the same for every seed.
    pub fn spec(&self, seed: u64) -> DatasetSpec {
        let r = self.rows + splitmix64(seed) % (self.rows / 1000).max(1);
        let table =
            |rows, hot, zipf| TableAccessSpec::new(rows, hot, zipf).with_active_fraction(0.55);
        DatasetSpec {
            seed,
            batch_size: BATCH_SIZE,
            dense_dim: DENSE_DIM,
            tables: vec![
                table(r, 1, 1.05),
                table(r / 2, 4, 1.0),
                table(r / 4, 2, 0.95),
                table(r / 10, 1, 1.1),
            ],
            concept_seed: None,
        }
    }

    /// The model matching [`Workload::spec`].
    pub fn model_config(&self, seed: u64) -> ModelConfig {
        ModelConfig::for_dataset(&self.spec(seed), EMBEDDING_DIM)
    }

    /// One reader worker, so engine, quantize workers and reader never
    /// exceed two runnable threads.
    pub fn reader_config() -> ReaderConfig {
        ReaderConfig {
            workers: 1,
            queue_depth: 8,
        }
    }

    /// Throughput that makes one interval [`SIM_INTERVAL`] long.
    pub fn trainer_config(&self, track: bool) -> TrainerConfig {
        let samples = (self.interval * BATCH_SIZE as u64) as f64;
        TrainerConfig {
            qps: QpsModel::new(samples / SIM_INTERVAL.as_secs_f64()),
            track,
        }
    }

    /// The simulated store, identical in all four workloads but for the
    /// channel count: the per-channel bandwidth is sized so one host
    /// writes a full fp32 checkpoint of the *large* model in about 0.31
    /// of an interval (the ratio the issue's 512 KiB/s gave at R = 400k).
    pub fn remote_config(&self) -> RemoteConfig {
        RemoteConfig {
            bandwidth_bytes_per_sec: 512.0 * 1024.0 * LARGE_ROWS as f64 / 400_000.0,
            base_latency: Duration::from_millis(20),
            replication: 3,
            channels: self.writer_hosts.max(self.reader_hosts) as u32,
        }
    }

    fn builder(&self, seed: u64, track: bool) -> EngineBuilder {
        EngineBuilder::new(self.spec(seed), self.model_config(seed))
            .job_name(JOB)
            .reader_config(Self::reader_config())
            .trainer_config(self.trainer_config(track))
    }

    /// The engine under test.
    pub fn engine(&self, seed: u64) -> Result<Engine, CnrError> {
        let mut b = self
            .builder(seed, true)
            .checkpoint_every_batches(self.interval)
            .policy(self.policy)
            .quantization(self.quant)
            .writer_hosts(self.writer_hosts)
            .reader_hosts(self.reader_hosts)
            .remote_config(self.remote_config());
        if self.wal {
            b = b.delta_wal(DeltaWalConfig::default());
        }
        if let Some(hot) = self.lazy {
            b = b.lazy_restore(hot);
        }
        if let Some(n) = self.scrub_every {
            b = b.scrub_every(SIM_INTERVAL * n);
        }
        b.build()
    }

    /// The reference engine: same spec, model, seed and reader, no
    /// tracking, never checkpoints, no WAL. Its batch time is the unit
    /// of every wall-clock end-to-end metric.
    pub fn reference_engine(&self, seed: u64) -> Result<Engine, CnrError> {
        self.builder(seed, false)
            .checkpoint_every_batches(u64::MAX)
            .policy(PolicyKind::FullOnly)
            .build()
    }

    /// The quantization scheme checkpoints use.
    pub fn scheme(&self) -> QuantScheme {
        match self.quant {
            QuantMode::Fixed(s) => s,
            _ => QuantScheme::Fp32,
        }
    }

    /// Failures injected per round.
    pub fn failures(&self) -> u32 {
        self.intervals / self.fail_every
    }

    /// Failure offsets, in iterations into the interrupted interval: a seeded permutation of evenly spread offsets in
    /// `[1, interval)`. Stratifying keeps the mean lost work (and with it
    /// every simulated mean) the same for every seed; the seed decides
    /// which failure gets which offset.
    pub fn failure_offsets(&self, seed: u64) -> Vec<u64> {
        let n = self.failures() as u64;
        let span = self.interval - 1;
        let mut offsets: Vec<u64> = (0..n)
            .map(|k| 1 + ((2 * k + 1) * span / (2 * n)).min(span - 1))
            .collect();
        // Fisher-Yates on a splitmix64 stream: no dependency on the
        // vendored rand stub's stream staying fixed.
        let mut state = seed;
        for i in (1..offsets.len()).rev() {
            state = splitmix64(state);
            offsets.swap(i, (state % (i as u64 + 1)) as usize);
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_offsets_are_a_seeded_permutation_of_one_stratified_set() {
        for w in &WORKLOADS {
            let a = w.failure_offsets(7);
            let b = w.failure_offsets(8);
            assert_eq!(a.len(), w.failures() as usize);
            assert_eq!(a, w.failure_offsets(7), "same seed, same schedule");
            let (mut sa, mut sb) = (a.clone(), b.clone());
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb, "{}: every seed uses the same offsets", w.name);
            assert!(sa.iter().all(|&o| o >= 1 && o < w.interval));
            if a.len() > 3 {
                assert_ne!(a, b, "{}: the seed orders them", w.name);
            }
        }
    }

    #[test]
    fn one_interval_is_thirty_simulated_minutes() {
        for w in &WORKLOADS {
            let per_batch = w
                .trainer_config(true)
                .qps
                .duration_for_samples(BATCH_SIZE as u64);
            let interval = per_batch.as_secs_f64() * w.interval as f64;
            assert!((interval - 1800.0).abs() < 1e-3, "{}: {interval}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200, "{}: why is one short line", w.name);
        }
        assert!(by_name("nope").is_none());
    }
}
