//! Metric catalogue (the names, units and bounds `BENCHMARK.json`
//! registers) and the arithmetic that turns rounds and probe samples into
//! those metrics.
//!
//! Every number is either wall-clock or simulated, never a sum. Wall-clock
//! end-to-end metrics are in *training-iteration equivalents*: wall time
//! divided by the wall time of a plain batch of the reference engine.
//! Percentiles divide by the median reference batch of the same round;
//! the steady-state slowdown pairs every interval with the reference
//! block that ran beside it.

use crate::harness::{Class, Round};
use crate::probes::ProbeSamples;
use crate::stats::{highest_supported_percentile, iqr_over_median, mean, median, quantile};
use crate::workloads::BLOCK;
use check_n_run::obs::json::find_raw_value;

/// Spread of the reference blocks above which a run is marked noisy.
pub const NOISY_SPREAD: f64 = 0.15;

/// One registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether `lower` or `higher` is better.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// End-to-end metrics: what a user of the system sees. All lower is
/// better; every workload reports every one, and none is ever zero.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("ckpt_slowdown", "ratio", 0.1),
    e2e("ckpt_cost_iters_p50", "iterations", 0.25),
    e2e("restore_cost_iters_p50", "iterations", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
    e2e("sim_write_latency_ms", "sim_ms", 0.02),
    e2e("sim_resume_ms", "sim_ms", 0.02),
    e2e("sim_first_batch_ms", "sim_ms", 0.25),
    e2e("stored_frac_mean", "ratio", 0.02),
    e2e("capacity_frac_peak", "ratio", 0.02),
];

/// Per-layer metrics from the traced pass. The prefix is the module name.
pub const PER_LAYER: &[MetricDef] = &[
    lower("engine.base_batch_ms_p50", "ms"),
    lower("engine.base_batch_ms_mean", "ms"),
    lower("engine.batch_ms_p50", "ms"),
    lower("engine.train_slowdown", "ratio"),
    lower("engine.ckpt_overhead_frac", "ratio"),
    lower("engine.boundary_ms_p50", "ms"),
    lower("engine.restore_call_ms_p50", "ms"),
    lower("engine.recovery_excess_ms_p50", "ms"),
    lower("engine.lost_iters_per_failure", "iterations"),
    lower("engine.boundary_unattributed_frac", "ratio"),
    lower("engine.restore_unattributed_frac", "ratio"),
    lower("engine.trace_overhead_frac", "ratio"),
    lower("engine.cpu_sys_frac", "ratio"),
    higher("engine.iters_per_s", "1/s"),
    lower("engine.base_block_spread", "ratio"),
    lower("engine.base_round_spread", "ratio"),
    lower("engine.noisy", "count"),
    higher("engine.sim_rounds_identical", "count"),
    lower("reader.next_batch_wait_us_p50", "us"),
    lower("reader.wait_frac", "ratio"),
    lower("trainer.train_one_us_p50", "us"),
    lower("trainer.tracking_overhead_frac", "ratio"),
    lower("tracking.mark_ns", "ns"),
    lower("tracking.snapshot_us", "us"),
    lower("tracking.modified_frac_per_interval", "ratio"),
    lower("snapshot.take_ms_p50", "ms"),
    lower("snapshot.bytes_copied", "bytes"),
    lower("snapshot.sim_stall_ms", "sim_ms"),
    lower("snapshot.sim_stall_frac", "ratio"),
    lower("policy.full_count", "count"),
    higher("policy.incremental_count", "count"),
    lower("policy.chain_len_max", "count"),
    lower("write.wall_ms_p50", "ms"),
    lower("write.self_ms_p50", "ms"),
    higher("write.rows_per_s", "1/s"),
    lower("write.quantize_cpu_ms", "ms"),
    lower("write.chunks", "count"),
    lower("write.parts", "count"),
    lower("write.payload_bytes", "bytes"),
    lower("quant.quantize_ns_per_row", "ns"),
    lower("quant.encode_ns_per_row", "ns"),
    lower("quant.decode_ns_per_row", "ns"),
    lower("quant.quantize_x_fp32", "ratio"),
    lower("quant.decode_x_fp32", "ratio"),
    lower("quant.bytes_per_row", "bytes"),
    lower("quant.restore_l2_err", "l2"),
    lower("storage.put_busy_ms", "ms"),
    higher("storage.put_mb_per_s", "MB/s"),
    lower("storage.get_busy_ms", "ms"),
    higher("storage.get_mb_per_s", "MB/s"),
    lower("storage.puts", "count"),
    lower("storage.gets", "count"),
    lower("storage.deletes", "count"),
    lower("storage.bytes_put", "bytes"),
    lower("storage.bytes_got", "bytes"),
    higher("storage.envelope_wrap_mb_per_s", "MB/s"),
    higher("storage.envelope_open_mb_per_s", "MB/s"),
    lower("storage.sim_busy_ms", "sim_ms"),
    lower("wal.capture_us_p50", "us"),
    lower("wal.append_us_p50", "us"),
    lower("wal.bytes_per_record", "bytes"),
    lower("wal.sync_amplification", "ratio"),
    lower("wal.replay_ms", "ms"),
    lower("wal.sim_sync_us_per_iter", "sim_us"),
    lower("wal.segments_rotated", "count"),
    lower("read.restore_ms_p50", "ms"),
    lower("read.self_ms_p50", "ms"),
    lower("read.decode_cpu_ms", "ms"),
    lower("read.merge_ms", "ms"),
    lower("read.manifests_walked", "count"),
    lower("read.chunks_fetched", "count"),
    lower("read.bytes_fetched", "bytes"),
    lower("read.sim_fetch_ms", "sim_ms"),
    lower("read.fault_in_fetches", "count"),
    lower("read.fault_in_us_per_fetch", "us"),
    lower("read.lazy_drain_ms", "ms"),
    lower("read.retries", "count"),
    lower("controller.register_ms_p50", "ms"),
    lower("controller.live_bytes_peak", "bytes"),
    lower("controller.objects_deleted", "count"),
    lower("scrub.sweep_ms_p50", "ms"),
    higher("scrub.mb_per_s", "MB/s"),
    lower("scrub.objects_scanned", "count"),
    lower("obs.spans_recorded", "count"),
    higher("obs.tree_valid", "count"),
];

/// Simulated end-to-end metrics: must be bit-identical between two runs
/// of one seed on every eager path.
pub const SIMULATED: &[&str] = &[
    "sim_write_latency_ms",
    "sim_resume_ms",
    "sim_first_batch_ms",
    "stored_frac_mean",
    "capacity_frac_peak",
];

/// The bound two runs of *one* seed must agree within. The registered
/// bound also has to cover the spread between seeds; same-seed runs of a
/// simulated metric differ only where the simulation itself is not
/// deterministic, so they are held to 1% (5% for the lazy path's
/// `sim_first_batch_ms`, whose known leak is reported, not hidden).
pub fn same_seed_bound(d: &MetricDef) -> f64 {
    let registered = d.bound.expect("end-to-end metrics are bounded");
    if !SIMULATED.contains(&d.name) {
        registered
    } else if d.name == "sim_first_batch_ms" {
        0.05
    } else {
        0.01
    }
}

/// A computed metric value.
pub type Value = (&'static str, f64);

fn base_p50(r: &Round) -> f64 {
    median(&r.base_blocks).unwrap_or(f64::NAN)
}

/// Reference blocks all hold [`BLOCK`] batches, so their plain mean is
/// the mean reference batch.
fn base_mean(r: &Round) -> f64 {
    or_nan(mean(&r.base_blocks))
}

/// Wall time the round spent in reference blocks, seconds.
fn base_wall(r: &Round) -> f64 {
    r.base_blocks.iter().sum::<f64>() * BLOCK as f64
}

fn walls(r: &Round, class: Class) -> impl Iterator<Item = f64> + '_ {
    r.calls
        .iter()
        .filter(move |c| c.class == class)
        .map(|c| c.wall)
}

/// All-in slowdown against no checkpointing — tracking, WAL, snapshot,
/// write, register and scrub: per interval, the wall time per batch of
/// its plain batches and its boundary over the wall time per batch of the
/// reference block that ran beside it; mean over intervals. The all-in
/// overhead fraction is this minus one. Pairing in time cancels the
/// machine's drift; reporting the ratio, not the difference, keeps the
/// relative noise of a 10% overhead at that of the base, not ten times it.
pub fn ckpt_slowdown(r: &Round) -> f64 {
    let mut per_cycle = vec![(0.0, 0u64); r.base_blocks.len()];
    for c in &r.calls {
        if matches!(c.class, Class::Batch | Class::Boundary) {
            if let Some((wall, batches)) = per_cycle.get_mut(c.cycle as usize) {
                *wall += c.wall;
                *batches += c.batches;
            }
        }
    }
    let ratios: Vec<f64> = per_cycle
        .iter()
        .zip(&r.base_blocks)
        .filter(|((_, n), _)| *n > 0)
        .map(|((wall, n), base)| wall / *n as f64 / base)
        .collect();
    or_nan(mean(&ratios))
}

/// Boundary wall times in iteration equivalents.
pub fn ckpt_cost_iters(r: &Round) -> Vec<f64> {
    let base = base_p50(r);
    walls(r, Class::Boundary).map(|w| w / base).collect()
}

/// Per failure: the recovery batches' wall time beyond plain batches,
/// seconds.
pub fn recovery_excess(r: &Round) -> Vec<f64> {
    let base = base_p50(r);
    let failures = walls(r, Class::Restore).count();
    let mut excess = vec![0.0; failures];
    for c in r.calls.iter().filter(|c| c.class == Class::RecoveryBatch) {
        if let Some(e) = c.failure.and_then(|f| excess.get_mut(f as usize)) {
            *e += c.wall - c.batches as f64 * base;
        }
    }
    excess
}

/// Per failure: restore call plus recovery excess, in iteration
/// equivalents.
pub fn restore_cost_iters(r: &Round) -> Vec<f64> {
    let base = base_p50(r);
    walls(r, Class::Restore)
        .zip(recovery_excess(r))
        .map(|(restore, excess)| (restore + excess) / base)
        .collect()
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r)).collect()
}

fn across(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(|r| f(r)).collect()
}

fn or_nan(v: Option<f64>) -> f64 {
    v.unwrap_or(f64::NAN)
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order. Wall metrics
/// pool every round; simulated metrics are the first round's (every round
/// of one seed does the same simulated work).
pub fn end_to_end(rounds: &[&Round], peak_rss_mb: f64) -> Vec<Value> {
    let sim = &rounds[0].sim;
    vec![
        ("setup_s", or_nan(median(&across(rounds, |r| r.setup_s)))),
        (
            "ckpt_slowdown",
            or_nan(mean(&across(rounds, ckpt_slowdown))),
        ),
        (
            "ckpt_cost_iters_p50",
            or_nan(median(&pooled(rounds, ckpt_cost_iters))),
        ),
        (
            "restore_cost_iters_p50",
            or_nan(median(&pooled(rounds, restore_cost_iters))),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_write_latency_ms", sim.write_latency_ms),
        ("sim_resume_ms", sim.resume_ms),
        ("sim_first_batch_ms", sim.first_batch_ms),
        ("stored_frac_mean", sim.stored_frac_mean),
        ("capacity_frac_peak", sim.capacity_frac_peak),
    ]
}

/// The end-to-end facts that cannot be registered as metrics, one line
/// each for the untraced pass's printout: each cost's highest percentile
/// with at least ten samples beyond it (which one that is depends on the
/// run's length), the lost iterations (0 with the WAL) and the restore
/// error (0 at fp32).
pub fn unregistered(rounds: &[&Round]) -> String {
    let mut out = String::new();
    for (name, v) in [
        ("ckpt_cost_iters", pooled(rounds, ckpt_cost_iters)),
        ("restore_cost_iters", pooled(rounds, restore_cost_iters)),
    ] {
        match highest_supported_percentile(v.len(), &[75, 90, 99]) {
            Some(p) => {
                let value = or_nan(quantile(&v, f64::from(p) / 100.0));
                out += &format!(
                    "  {:<38} {value:>18.6} iterations ({} samples)\n",
                    format!("{name}_p{p}"),
                    v.len()
                );
            }
            None => {
                out += &format!(
                    "  {:<38} not reported: {} samples, 40 needed\n",
                    format!("{name}_p75"),
                    v.len()
                );
            }
        }
    }
    let l2 = pooled(rounds, |r| r.l2_err.clone());
    out += &format!(
        "  {:<38} {:>18.6} iterations\n  {:<38} {:>18.6} l2 ({} restores verified)\n",
        "lost_iters_per_failure",
        rounds[0].sim.lost_iters_per_failure,
        "restore_l2_err",
        or_nan(mean(&l2)),
        l2.len(),
    );
    out
}

/// The reference engine's stability: interquartile spread of its blocks
/// (pooled) and of its per-round medians, as shares of the median.
pub fn noise(rounds: &[&Round]) -> (f64, f64) {
    let blocks = pooled(rounds, |r| r.base_blocks.clone());
    let per_round = across(rounds, base_p50);
    (
        iqr_over_median(&blocks).unwrap_or(0.0),
        iqr_over_median(&per_round).unwrap_or(0.0),
    )
}

/// Whether the reference engine was too unsteady to trust a ratio's base.
pub fn is_noisy(rounds: &[&Round]) -> bool {
    let (blocks, per_round) = noise(rounds);
    blocks > NOISY_SPREAD || per_round > NOISY_SPREAD
}

/// Number of rounds whose simulated metrics equal the first round's.
pub fn sim_identical_rounds(rounds: &[&Round]) -> usize {
    rounds.iter().filter(|r| r.sim == rounds[0].sim).count()
}

/// What a traced run hands to [`per_layer`] besides its rounds.
pub struct TraceSummary<'a> {
    /// Probe samples pooled over the traced rounds.
    pub probes: &'a ProbeSamples,
    /// Spans recorded.
    pub spans: usize,
    /// Whether the span tree validated.
    pub tree_valid: bool,
    /// System share of the process's CPU time.
    pub cpu_sys_frac: f64,
    /// Bytes per encoded row under the workload's scheme.
    pub bytes_per_row: f64,
}

fn p50_scaled(v: &[f64], scale: f64) -> f64 {
    median(v).map_or(0.0, |m| m * scale)
}

fn mean_scaled(v: &[f64], scale: f64) -> f64 {
    mean(v).map_or(0.0, |m| m * scale)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn count_of(r: &Round, name: &str) -> f64 {
    r.sim
        .counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order. Probe
/// timings come from the `traced` rounds. The engine's own call timings
/// come from the `untraced` rounds of the same process (the probes' cache
/// pollution reaches the reference blocks of a traced round), and the
/// tracing overhead compares the two. Counters come from the first round
/// (every round counts the same).
pub fn per_layer(untraced: &[&Round], traced: &[&Round], t: &TraceSummary<'_>) -> Vec<Value> {
    let all: Vec<&Round> = untraced.iter().chain(traced).copied().collect();
    let first = all[0];
    let p = t.probes;
    let timed_wall = |rs: &[&Round]| {
        or_nan(mean(&across(rs, |r| {
            r.calls.iter().map(|c| c.wall).sum::<f64>() + base_wall(r)
        })))
    };
    let clean: &[&Round] = if untraced.is_empty() {
        traced
    } else {
        untraced
    };
    let batch_per = pooled(clean, |r| {
        r.calls
            .iter()
            .filter(|c| c.class == Class::Batch)
            .map(|c| c.wall / c.batches as f64)
            .collect()
    });
    let batch_mean = {
        let (w, n) = clean
            .iter()
            .flat_map(|r| r.calls.iter())
            .filter(|c| c.class == Class::Batch)
            .fold((0.0, 0u64), |(w, n), c| (w + c.wall, n + c.batches));
        ratio(w, n as f64)
    };
    let base_mean_all = or_nan(mean(&pooled(clean, |r| r.base_blocks.clone())));
    let (block_spread, round_spread) = noise(&all);
    let useful: f64 = all.iter().map(|r| count_of(r, "iterations")).sum();
    let measured: f64 = all.iter().map(|r| r.measure_s + r.setup_s).sum();
    let l2: Vec<f64> = pooled(&all, |r| r.l2_err.clone());

    let intervals = &first.intervals;
    let resumes = &first.resumes;
    let fulls = intervals
        .iter()
        .filter(|i| i.kind == check_n_run::core::manifest::CheckpointKind::Full)
        .count();
    let sim_total_ms = count_of(first, "sim_clock_us") / 1e3;
    let stall_ms: f64 = intervals.iter().map(|i| i.stall.as_secs_f64() * 1e3).sum();
    let train_tracked = p50_scaled(&p.train_tracked, 1.0);
    let train_plain = p50_scaled(&p.train_plain, 1.0);
    let reader_wait = mean_scaled(&p.reader_wait, 1.0);
    let mb = |bytes: u64, busy: std::time::Duration| ratio(bytes as f64 / 1e6, busy.as_secs_f64());
    let wal_appends = count_of(first, "wal_appends");

    vec![
        (
            "engine.base_batch_ms_p50",
            or_nan(median(&across(clean, base_p50))) * 1e3,
        ),
        ("engine.base_batch_ms_mean", base_mean_all * 1e3),
        ("engine.batch_ms_p50", p50_scaled(&batch_per, 1e3)),
        ("engine.train_slowdown", ratio(batch_mean, base_mean_all)),
        (
            "engine.ckpt_overhead_frac",
            or_nan(mean(&across(clean, ckpt_slowdown))) - 1.0,
        ),
        (
            "engine.boundary_ms_p50",
            p50_scaled(
                &pooled(traced, |r| walls(r, Class::Boundary).collect()),
                1e3,
            ),
        ),
        (
            "engine.restore_call_ms_p50",
            p50_scaled(&pooled(clean, |r| walls(r, Class::Restore).collect()), 1e3),
        ),
        (
            "engine.recovery_excess_ms_p50",
            p50_scaled(&pooled(clean, recovery_excess), 1e3),
        ),
        (
            "engine.lost_iters_per_failure",
            first.sim.lost_iters_per_failure,
        ),
        (
            "engine.boundary_unattributed_frac",
            median(&p.boundary_attributed).map_or(0.0, |a| 1.0 - a),
        ),
        (
            "engine.restore_unattributed_frac",
            median(&p.restore_attributed).map_or(0.0, |a| 1.0 - a),
        ),
        (
            "engine.trace_overhead_frac",
            if untraced.is_empty() || traced.is_empty() {
                0.0
            } else {
                timed_wall(traced) / timed_wall(untraced) - 1.0
            },
        ),
        ("engine.cpu_sys_frac", t.cpu_sys_frac),
        ("engine.iters_per_s", ratio(useful, measured)),
        ("engine.base_block_spread", block_spread),
        ("engine.base_round_spread", round_spread),
        ("engine.noisy", f64::from(u8::from(is_noisy(&all)))),
        (
            "engine.sim_rounds_identical",
            sim_identical_rounds(&all) as f64,
        ),
        (
            "reader.next_batch_wait_us_p50",
            p50_scaled(&p.reader_wait, 1e6),
        ),
        (
            "reader.wait_frac",
            ratio(
                reader_wait,
                reader_wait + mean_scaled(&p.train_tracked, 1.0),
            ),
        ),
        ("trainer.train_one_us_p50", train_tracked * 1e6),
        (
            "trainer.tracking_overhead_frac",
            if train_plain > 0.0 {
                train_tracked / train_plain - 1.0
            } else {
                0.0
            },
        ),
        ("tracking.mark_ns", p50_scaled(&p.tracker_mark, 1e9)),
        ("tracking.snapshot_us", p50_scaled(&p.tracker_snapshot, 1e6)),
        (
            "tracking.modified_frac_per_interval",
            mean_scaled(&p.modified_frac, 1.0),
        ),
        ("snapshot.take_ms_p50", p50_scaled(&p.snapshot_take, 1e3)),
        ("snapshot.bytes_copied", mean_scaled(&p.snapshot_bytes, 1.0)),
        (
            "snapshot.sim_stall_ms",
            ratio(stall_ms, intervals.len() as f64),
        ),
        ("snapshot.sim_stall_frac", ratio(stall_ms, sim_total_ms)),
        ("policy.full_count", fulls as f64),
        ("policy.incremental_count", (intervals.len() - fulls) as f64),
        (
            "policy.chain_len_max",
            p.read_manifests.iter().copied().fold(0.0, f64::max),
        ),
        ("write.wall_ms_p50", p50_scaled(&p.write_wall, 1e3)),
        ("write.self_ms_p50", p50_scaled(&p.write_self, 1e3)),
        (
            "write.rows_per_s",
            ratio(p.write_rows.iter().sum(), p.write_wall.iter().sum()),
        ),
        (
            "write.quantize_cpu_ms",
            mean_scaled(&p.write_quantize_cpu, 1e3),
        ),
        ("write.chunks", mean_scaled(&p.write_chunks, 1.0)),
        ("write.parts", mean_scaled(&p.write_parts, 1.0)),
        (
            "write.payload_bytes",
            mean_scaled(&p.write_payload_bytes, 1.0),
        ),
        (
            "quant.quantize_ns_per_row",
            p50_scaled(&p.quantize_row, 1e9),
        ),
        ("quant.encode_ns_per_row", p50_scaled(&p.encode_row, 1e9)),
        ("quant.decode_ns_per_row", p50_scaled(&p.decode_row, 1e9)),
        (
            "quant.quantize_x_fp32",
            ratio(
                p50_scaled(&p.quantize_row, 1.0),
                p50_scaled(&p.quantize_row_fp32, 1.0),
            ),
        ),
        (
            "quant.decode_x_fp32",
            ratio(
                p50_scaled(&p.decode_row, 1.0),
                p50_scaled(&p.decode_row_fp32, 1.0),
            ),
        ),
        ("quant.bytes_per_row", t.bytes_per_row),
        ("quant.restore_l2_err", mean_scaled(&l2, 1.0)),
        ("storage.put_busy_ms", p.store.put.busy.as_secs_f64() * 1e3),
        (
            "storage.put_mb_per_s",
            mb(p.store.put.bytes, p.store.put.busy),
        ),
        ("storage.get_busy_ms", p.store.get.busy.as_secs_f64() * 1e3),
        (
            "storage.get_mb_per_s",
            mb(p.store.get.bytes, p.store.get.busy),
        ),
        ("storage.puts", count_of(first, "store_puts")),
        ("storage.gets", count_of(first, "store_gets")),
        ("storage.deletes", count_of(first, "store_deletes")),
        ("storage.bytes_put", count_of(first, "store_bytes_put")),
        ("storage.bytes_got", count_of(first, "store_bytes_got")),
        (
            "storage.envelope_wrap_mb_per_s",
            p50_scaled(&p.envelope_wrap_bps, 1e-6),
        ),
        (
            "storage.envelope_open_mb_per_s",
            p50_scaled(&p.envelope_open_bps, 1e-6),
        ),
        (
            "storage.sim_busy_ms",
            count_of(first, "store_sim_busy_us") / 1e3,
        ),
        ("wal.capture_us_p50", p50_scaled(&p.wal_capture, 1e6)),
        ("wal.append_us_p50", p50_scaled(&p.wal_append, 1e6)),
        (
            "wal.bytes_per_record",
            ratio(count_of(first, "wal_bytes_appended"), wal_appends),
        ),
        (
            "wal.sync_amplification",
            ratio(
                count_of(first, "wal_bytes_synced"),
                count_of(first, "wal_bytes_appended"),
            ),
        ),
        ("wal.replay_ms", mean_scaled(&p.wal_replay, 1e3)),
        (
            "wal.sim_sync_us_per_iter",
            ratio(count_of(first, "wal_sim_sync_ns") / 1e3, wal_appends),
        ),
        (
            "wal.segments_rotated",
            count_of(first, "wal_segments_rotated"),
        ),
        ("read.restore_ms_p50", p50_scaled(&p.read_restore, 1e3)),
        ("read.self_ms_p50", p50_scaled(&p.read_self, 1e3)),
        ("read.decode_cpu_ms", mean_scaled(&p.read_decode_cpu, 1e3)),
        ("read.merge_ms", mean_scaled(&p.read_merge, 1e3)),
        ("read.manifests_walked", mean_scaled(&p.read_manifests, 1.0)),
        ("read.chunks_fetched", mean_scaled(&p.read_chunks, 1.0)),
        ("read.bytes_fetched", mean_scaled(&p.read_bytes, 1.0)),
        (
            "read.sim_fetch_ms",
            ratio(
                resumes.iter().map(|r| r.fetch.as_secs_f64() * 1e3).sum(),
                resumes.len() as f64,
            ),
        ),
        ("read.fault_in_fetches", count_of(first, "fault_in_fetches")),
        ("read.fault_in_us_per_fetch", mean_scaled(&p.fault_in, 1e6)),
        ("read.lazy_drain_ms", mean_scaled(&p.lazy_drain, 1e3)),
        ("read.retries", p.read_retries as f64),
        ("controller.register_ms_p50", p50_scaled(&p.register, 1e3)),
        (
            "controller.live_bytes_peak",
            intervals
                .iter()
                .map(|i| i.capacity_bytes)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "controller.objects_deleted",
            count_of(first, "store_deletes"),
        ),
        ("scrub.sweep_ms_p50", p50_scaled(&p.scrub_sweep, 1e3)),
        (
            "scrub.mb_per_s",
            ratio(
                p.scrub_bytes.iter().sum::<f64>() / 1e6,
                p.scrub_sweep.iter().sum(),
            ),
        ),
        (
            "scrub.objects_scanned",
            count_of(first, "scrub_objects_scanned"),
        ),
        ("obs.spans_recorded", t.spans as f64),
        ("obs.tree_valid", f64::from(u8::from(t.tree_valid))),
    ]
}

/// One line per round: where the wall time went, in milliseconds.
pub fn round_line(index: usize, r: &Round) -> String {
    let per_batch = |class| {
        let (w, n) = r
            .calls
            .iter()
            .filter(|c| c.class == class)
            .fold((0.0, 0u64), |(w, n), c| (w + c.wall, n + c.batches));
        ratio(w, n as f64) * 1e3
    };
    let p50 = |class| p50_scaled(&walls(r, class).collect::<Vec<_>>(), 1e3);
    format!(
        "round {index}{}: setup {:.2} s, measured {:.2} s; ms: base p50 {:.3} mean {:.3}, batch mean {:.3}, \
         boundary p50 {:.1}, restore p50 {:.1}, recovery batch mean {:.1}",
        if r.traced { " (traced)" } else { "" },
        r.setup_s,
        r.measure_s,
        base_p50(r) * 1e3,
        base_mean(r) * 1e3,
        per_batch(Class::Batch),
        p50(Class::Boundary),
        p50(Class::Restore),
        per_batch(Class::RecoveryBatch),
    )
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Formats a number for JSON with all its digits; non-finite becomes 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                def_of(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// One human-readable line per metric: name, value, unit.
pub fn table(values: &[Value]) -> String {
    values
        .iter()
        .map(|(name, v)| format!("  {name:<38} {v:>18.6} {}\n", def_of(name).unit))
        .collect()
}

/// A result line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// Metric names and values, in order.
    pub metrics: Vec<(String, f64)>,
}

/// Reads a [`result_line`] back: the catalogue's metrics it holds, in
/// catalogue order.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let metrics_body = find_raw_value(line, "metrics")?;
    let metrics = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|d| {
            let entry = find_raw_value(metrics_body, d.name)?;
            let value = find_raw_value(entry, "value")?.parse().ok()?;
            Some((d.name.to_string(), value))
        })
        .collect();
    Some(ParsedResult {
        correct: find_raw_value(line, "correct")? == "true",
        attempted: find_raw_value(line, "attempted")?.parse().ok()?,
        failed: find_raw_value(line, "failed")?.parse().ok()?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Call, SimMetrics};
    use crate::workloads::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn registered(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON.find(&format!("\"{section}\": [")).unwrap();
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let names =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(registered("end_to_end"), names(END_TO_END));
        assert_eq!(registered("per_layer"), names(PER_LAYER));
        assert_eq!(
            registered("workloads"),
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(BENCHMARK_JSON.contains(&entry), "{entry} not registered");
            if let Some(b) = d.bound {
                let bounded = format!("{entry}, \"bound\": {b}}}");
                assert!(
                    BENCHMARK_JSON.contains(&bounded),
                    "{bounded} not registered"
                );
                assert!(b > 0.0 && b <= 0.25);
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in &WORKLOADS {
            assert!(BENCHMARK_JSON.contains(w.why), "{}: why differs", w.name);
        }
    }

    fn round(base_ms: f64, calls: Vec<Call>) -> Round {
        Round {
            setup_s: 1.0,
            measure_s: 1.0,
            calls,
            base_blocks: vec![base_ms / 1e3; 5],
            sim: SimMetrics {
                write_latency_ms: 1.0,
                resume_ms: 2.0,
                first_batch_ms: 3.0,
                stored_frac_mean: 4.0,
                capacity_frac_peak: 5.0,
                lost_iters_per_failure: 6.0,
                counts: vec![("iterations", 10)],
            },
            l2_err: vec![0.0],
            ..Round::default()
        }
    }

    fn call(class: Class, wall_ms: f64, batches: u64, failure: Option<u32>) -> Call {
        Call {
            class,
            wall: wall_ms / 1e3,
            batches,
            failure,
            cycle: 0,
        }
    }

    #[test]
    fn wall_metrics_are_in_iteration_equivalents() {
        let r = round(
            2.0,
            vec![
                call(Class::Batch, 44.0, 20, None),
                call(Class::Boundary, 102.0, 1, None),
                call(Class::Restore, 300.0, 0, Some(0)),
                // Two recovery batches of failure 0: 98 ms over base.
                call(Class::RecoveryBatch, 52.0, 1, Some(0)),
                call(Class::RecoveryBatch, 50.0, 1, Some(0)),
                call(Class::Restore, 100.0, 0, Some(1)),
            ],
        );
        // (44 + 102) / 21 batches over a 2 ms base: recovery batches are
        // not steady state.
        assert!((ckpt_slowdown(&r) - 146.0 / 21.0 / 2.0).abs() < 1e-9);
        assert!((ckpt_cost_iters(&r)[0] - 51.0).abs() < 1e-9);
        let restore = restore_cost_iters(&r);
        assert!((restore[0] - (300.0 + 98.0) / 2.0).abs() < 1e-9);
        assert!((restore[1] - 50.0).abs() < 1e-9);

        // Each interval is paired with its own reference block: a machine
        // twice as slow during the second interval changes nothing.
        let mut two = round(
            2.0,
            vec![
                call(Class::Batch, 60.0, 20, None),
                Call {
                    cycle: 1,
                    ..call(Class::Batch, 120.0, 20, None)
                },
            ],
        );
        two.base_blocks = vec![0.002, 0.004];
        assert!((ckpt_slowdown(&two) - 1.5).abs() < 1e-9);

        let values = end_to_end(&[&r], 123.0);
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected, "every end-to-end metric, in order");
    }

    #[test]
    fn result_line_round_trips_and_names_every_metric() {
        let r = round(2.0, vec![call(Class::Boundary, 10.0, 1, None)]);
        let values = end_to_end(&[&r], 50.5);
        let line = result_line(true, 7, 0, &values);
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (7, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        for ((name, value), (parsed_name, parsed)) in values.iter().zip(&parsed.metrics) {
            assert_eq!(name, parsed_name);
            if value.is_finite() {
                assert_eq!(value.to_bits(), parsed.to_bits(), "{name} keeps all digits");
            }
        }
        assert!(line.contains("\"setup_s\": {\"value\": 1, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));

        let printed = table(&values);
        for d in END_TO_END {
            assert!(printed.contains(d.name) && printed.contains(d.unit));
        }
    }

    #[test]
    fn per_layer_reports_every_registered_metric() {
        let r = round(2.0, vec![call(Class::Batch, 44.0, 20, None)]);
        let probes = ProbeSamples::default();
        let summary = TraceSummary {
            probes: &probes,
            spans: 3,
            tree_valid: true,
            cpu_sys_frac: 0.01,
            bytes_per_row: 132.0,
        };
        let values = per_layer(&[&r], &[&r], &summary);
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert!(values.iter().all(|(_, v)| v.is_finite()));
        let line = result_line(true, 1, 0, &values);
        assert_eq!(
            parse_result_line(&line).unwrap().metrics.len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn noise_sentinel_trips_on_an_unsteady_base() {
        let steady = round(2.0, Vec::new());
        assert!(!is_noisy(&[&steady]));
        let mut shaky = round(2.0, Vec::new());
        shaky.base_blocks = vec![0.0015, 0.0018, 0.0020, 0.0024, 0.0030];
        assert!(is_noisy(&[&shaky]));
    }
}
