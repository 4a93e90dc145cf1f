//! Checkpoint engine configuration.

use cnr_quant::QuantScheme;
use std::time::Duration;

/// Incremental checkpointing policy (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Every checkpoint is a full model copy (the paper's baseline).
    FullOnly,
    /// One full baseline, then incrementals that accumulate all
    /// modifications since that baseline ("one-shot baseline").
    OneShot,
    /// Each incremental stores only the rows modified during the last
    /// interval; restore reads the whole chain ("consecutive increment").
    Consecutive,
    /// One-shot behaviour plus the history-based predictor that re-takes a
    /// full baseline when `Fc ≤ Ic` ("intermittent baseline", the default).
    Intermittent,
}

/// Quantization mode for checkpoint payloads (§5.2, §6.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantMode {
    /// No quantization: FP32 passthrough (bit-exact restores).
    None,
    /// A fixed scheme for every checkpoint.
    Fixed(QuantScheme),
    /// The paper's dynamic selection: pick the bit-width from the expected
    /// number of restores (2/3/4/8 bits), falling back to 8-bit when actual
    /// restores exceed the estimate.
    Dynamic {
        /// Expected number of restore events over the job's lifetime.
        expected_restores: u32,
    },
}

/// Per-iteration delta WAL between full checkpoints (off by default).
///
/// When enabled, every training iteration appends the touched-row delta to
/// a checksummed log (`cnr_storage::wal`) and syncs it before
/// training continues; restore replays the log tail on top of the last
/// full checkpoint, collapsing lost work from a checkpoint interval to at
/// most one iteration (Checkmate-style). The WAL has one mode, so this
/// holds no settings: it names the writer's configuration and prices a
/// sync on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaWalConfig;

impl DeltaWalConfig {
    /// The storage-layer writer configuration (it has no settings).
    pub fn writer_config(&self) -> cnr_storage::WalConfig {
        cnr_storage::WalConfig
    }

    /// Simulated time one sync costs for the `appended_bytes` of frames it
    /// made durable: the log device's fsync round-trip plus those bytes at its
    /// bandwidth. Charged to the training clock, so it shows up in the
    /// steady-state overhead the paper's 6–17% band is about.
    pub fn sync_cost(&self, appended_bytes: u64) -> Duration {
        const SYNC_LATENCY: Duration = Duration::from_micros(10);
        const APPEND_BYTES_PER_SEC: f64 = 1.0e9;
        SYNC_LATENCY + Duration::from_secs_f64(appended_bytes as f64 / APPEND_BYTES_PER_SEC)
    }
}

/// Full configuration of the Check-N-Run engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Batches per checkpoint interval (the paper defaults to the batch
    /// count equivalent of 30 minutes).
    pub interval_batches: u64,
    /// Incremental policy.
    pub policy: PolicyKind,
    /// Quantization mode.
    pub quant: QuantMode,
    /// Embedding rows per storage chunk (pipelining granularity, §4.4).
    pub chunk_rows: usize,
    /// Background quantization worker threads (the paper's "dedicated CPU
    /// processes"). The budget spreads across writer hosts: up to
    /// `min(quantize_workers, writer_hosts)` shards run concurrently, each
    /// splitting its share into a chunk-level pipeline — a single-host
    /// write still quantizes on all workers.
    pub quantize_workers: usize,
    /// Simulated writer hosts: each owns a contiguous row-range of every
    /// table and uploads its own shard over its own uplink (§4.4's
    /// parallel per-host writes). 1 = the single-host path.
    pub writer_hosts: usize,
    /// Multipart part size: chunks larger than this stream to the store in
    /// multiple parts, each accounted individually.
    pub part_bytes: usize,
    /// Simulated reader hosts used by sharded restores: on recovery each
    /// host fetches and decodes a share of the checkpoint chain over its
    /// own downlink, so time-to-resume shrinks with this count (the read
    /// mirror of `writer_hosts`). 1 = the single-host restore path.
    pub reader_hosts: usize,
    /// Transient read-failure retries per ranged fetch before a restore
    /// fails.
    pub fetch_retries: u32,
    /// How many complete restore chains to retain; older chains are deleted
    /// once a newer checkpoint is valid (§4.4).
    pub retained_chains: usize,
    /// Per-iteration delta WAL between full checkpoints; `None` (the
    /// default) disables it and a failure loses the interval since the
    /// last checkpoint, as in the paper.
    pub delta_wal: Option<DeltaWalConfig>,
    /// Lazy (CPR-style) restores at this hot fraction: resume training as
    /// soon as the dense layers and this fraction of embedding rows (by
    /// access heat) are applied, drain the cold tail in the background,
    /// and fault cold rows in on demand; `1.0` degenerates to eager
    /// timing. `None` (the default) restores eagerly: every chunk is
    /// applied before resuming.
    pub lazy_hot_fraction: Option<f64>,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            interval_batches: 1000,
            policy: PolicyKind::Intermittent,
            quant: QuantMode::None,
            chunk_rows: 4096,
            quantize_workers: 2,
            writer_hosts: 1,
            part_bytes: 1 << 20,
            reader_hosts: 1,
            fetch_retries: 2,
            retained_chains: 1,
            delta_wal: None,
            lazy_hot_fraction: None,
        }
    }
}

impl CheckpointConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval_batches == 0 {
            return Err("interval_batches must be positive".into());
        }
        if self.chunk_rows == 0 {
            return Err("chunk_rows must be positive".into());
        }
        if self.quantize_workers == 0 {
            return Err("need at least one quantize worker".into());
        }
        if self.writer_hosts == 0 {
            return Err("need at least one writer host".into());
        }
        if self.writer_hosts > u16::MAX as usize {
            return Err("writer_hosts exceeds the shard id space".into());
        }
        if self.part_bytes == 0 {
            return Err("multipart part size must be positive".into());
        }
        if self.retained_chains == 0 {
            return Err("must retain at least one chain".into());
        }
        self.restore_options().validate()?;
        // A uniform grid stores binary16 parameters, which cap its
        // resolution: wider than 8 bits, values below the zero point
        // restore far outside the half step. Fp16 is the wider form.
        match self.quant {
            QuantMode::Fixed(QuantScheme::Fp32 | QuantScheme::Fp16) => {}
            QuantMode::Fixed(s) if !(1..=8).contains(&s.bits()) => {
                return Err(format!(
                    "uniform checkpoint schemes hold 1 to 8 bits, not {}: \
                     use QuantScheme::Fp16 for 9 to 16 (recommended_for_bits does)",
                    s.bits()
                ));
            }
            // The search asserts these: caught here, not in a quantize
            // worker at the first boundary.
            QuantMode::Fixed(QuantScheme::AdaptiveAsymmetric {
                num_bins, ratio, ..
            }) if num_bins == 0 || !(ratio > 0.0 && ratio <= 1.0) => {
                return Err(format!(
                    "the adaptive search takes num_bins >= 1 and ratio in (0, 1], \
                     not {num_bins} and {ratio}"
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// The sharded-restore options implied by this configuration: the
    /// quantize-worker budget doubles as the decode budget (the recovery
    /// path runs on the same background CPU processes the writer used).
    pub fn restore_options(&self) -> crate::read::RestoreOptions {
        crate::read::RestoreOptions {
            reader_hosts: self.reader_hosts,
            decode_workers: self.quantize_workers,
            fetch_retries: self.fetch_retries,
            lazy: self.lazy_hot_fraction.is_some(),
            // Eager is `hot_fraction = 1`.
            hot_fraction: self.lazy_hot_fraction.unwrap_or(1.0),
        }
    }

    /// Snapshot stall duration for a model whose largest per-device shard is
    /// `max_device_bytes` (§4.2: devices copy concurrently, so the max
    /// shard bounds the stall).
    pub fn snapshot_stall(&self, max_device_bytes: u64) -> Duration {
        // Host-copy bandwidth per device: GPU HBM → pinned host memory.
        const SNAPSHOT_BYTES_PER_SEC: f64 = 5.0e9;
        Duration::from_secs_f64(max_device_bytes as f64 / SNAPSHOT_BYTES_PER_SEC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(CheckpointConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        let c = CheckpointConfig {
            interval_batches: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            chunk_rows: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            quantize_workers: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            retained_chains: 0,
            ..CheckpointConfig::default()
        };
        assert!(c.validate().is_err());

        for bad in [
            CheckpointConfig {
                writer_hosts: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                writer_hosts: u16::MAX as usize + 1,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                part_bytes: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                reader_hosts: 0,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                reader_hosts: u16::MAX as usize + 1,
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                lazy_hot_fraction: Some(-0.5),
                ..CheckpointConfig::default()
            },
            CheckpointConfig {
                lazy_hot_fraction: Some(2.0),
                ..CheckpointConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn paper_scale_snapshot_stall_is_about_seven_seconds() {
        // §4.2: a model partitioned over 128 GPUs stalls <7s. With ~32 GB
        // HBM per device and 5 GB/s host copy, the bound is 6.4s.
        let stall = CheckpointConfig::default().snapshot_stall(32 * 1024 * 1024 * 1024);
        assert!(stall < Duration::from_secs(7));
        assert!(stall > Duration::from_secs(6));
    }

    #[test]
    fn fixed_quant_bits_validated() {
        let fixed = |scheme| CheckpointConfig {
            quant: QuantMode::Fixed(scheme),
            ..CheckpointConfig::default()
        };
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Asymmetric { bits: 8 },
            QuantScheme::Symmetric { bits: 1 },
            QuantScheme::recommended_for_bits(4),
            QuantScheme::recommended_for_bits(12),
        ] {
            assert!(fixed(scheme).validate().is_ok(), "{scheme:?}");
        }
        for scheme in [
            QuantScheme::Asymmetric { bits: 9 },
            QuantScheme::Asymmetric { bits: 16 },
            QuantScheme::Symmetric { bits: 16 },
            QuantScheme::Asymmetric { bits: 0 },
        ] {
            let why = fixed(scheme).validate().unwrap_err();
            assert!(why.contains("Fp16"), "{scheme:?}: {why}");
        }
    }

    #[test]
    fn adaptive_search_knobs_validated() {
        let adaptive = |num_bins, ratio| CheckpointConfig {
            quant: QuantMode::Fixed(QuantScheme::AdaptiveAsymmetric {
                bits: 4,
                num_bins,
                ratio,
            }),
            ..CheckpointConfig::default()
        };
        for (num_bins, ratio) in [(1, 1.0), (45, 1.0), (25, 0.05), (200, f64::MIN_POSITIVE)] {
            assert!(
                adaptive(num_bins, ratio).validate().is_ok(),
                "{num_bins} {ratio}"
            );
        }
        for (num_bins, ratio) in [
            (0, 1.0),
            (45, 0.0),
            (45, -0.5),
            (45, 1.0 + f64::EPSILON),
            (45, f64::INFINITY),
            (45, f64::NAN),
        ] {
            let why = adaptive(num_bins, ratio).validate().unwrap_err();
            assert!(why.contains("num_bins"), "{num_bins} {ratio}: {why}");
        }
    }
}
