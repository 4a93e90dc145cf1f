//! The closed-loop lifecycle driver: one *round* builds an engine and its
//! reference engine, warms them up, then runs a fixed number of intervals
//! with failures injected on a seeded schedule, timing every `Engine`
//! call from outside and checking every restore.
//!
//! A round is a fixed amount of work, so its simulated-clock and counter
//! metrics depend on the seed alone. A run repeats rounds until its time
//! budget is spent; wall-clock samples pool across rounds.

use crate::probes::Shadow;
use crate::trace::Tracer;
use crate::workloads::{Workload, BLOCK};
use check_n_run::core::engine::Engine;
use check_n_run::core::restore::RestoreReport;
use check_n_run::core::stats::{IntervalStats, ResumeStats};
use check_n_run::core::CnrError;
use check_n_run::obs::names;
use check_n_run::quant::QuantScheme;
use check_n_run::storage::ObjectStore;
use std::collections::HashSet;
use std::time::Instant;

/// What one timed `Engine` call was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A block of plain training batches.
    Batch,
    /// The batch that closes an interval, and the checkpoint it triggers.
    Boundary,
    /// `simulate_failure_and_restore`.
    Restore,
    /// A batch entered while a lazy restore is still draining.
    RecoveryBatch,
}

impl Class {
    /// Span name of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Batch => "engine.batch",
            Class::Boundary => "engine.boundary",
            Class::Restore => "engine.restore",
            Class::RecoveryBatch => "engine.recovery_batch",
        }
    }
}

/// Classes a training call. A boundary stays a boundary even when it
/// lands during a recovery (its checkpoint drains the lazy tail first):
/// the interval count it is verified against is what defines it.
pub fn classify(closes_interval: bool, lazy_pending: bool) -> Class {
    if closes_interval {
        Class::Boundary
    } else if lazy_pending {
        Class::RecoveryBatch
    } else {
        Class::Batch
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// What the call was doing.
    pub class: Class,
    /// Wall time of the call, seconds.
    pub wall: f64,
    /// Batches trained inside it.
    pub batches: u64,
    /// The failure (index into the round's failures) whose recovery this
    /// call belongs to: set on restores and recovery batches.
    pub failure: Option<u32>,
    /// The measured cycle the call ran in (its reference block is
    /// `Round::base_blocks[cycle]`).
    pub cycle: u32,
}

/// Operations attempted and failed: batches, checkpoints, restores and
/// verifications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err` or failed verification.
    pub failed: u64,
}

/// Metrics read off the engine's simulated clock and counters, with every
/// wall-clock field stripped. Equal seeds must give equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Mean `IntervalStats::write_latency`, simulated ms.
    pub write_latency_ms: f64,
    /// Mean `drain_wait + fetch + wal_replay`, simulated ms.
    pub resume_ms: f64,
    /// Mean `time_to_first_batch - decode - merge`, simulated ms.
    pub first_batch_ms: f64,
    /// Mean bytes per checkpoint over fp32 model bytes.
    pub stored_frac_mean: f64,
    /// Peak live store bytes (checkpoints and WAL) over fp32 model bytes.
    pub capacity_frac_peak: f64,
    /// Mean `lost_iterations`.
    pub lost_iters_per_failure: f64,
    /// Counters that must repeat exactly as well.
    pub counts: Vec<(&'static str, u64)>,
}

impl SimMetrics {
    /// Every simulated metric (as its bits) and counter as `name=value`
    /// words: what `--repeat-check` compares for bit-identity.
    pub fn fingerprint(&self) -> String {
        let floats = [
            ("sim_write_latency_ms", self.write_latency_ms),
            ("sim_resume_ms", self.resume_ms),
            ("sim_first_batch_ms", self.first_batch_ms),
            ("stored_frac_mean", self.stored_frac_mean),
            ("capacity_frac_peak", self.capacity_frac_peak),
            ("lost_iters_per_failure", self.lost_iters_per_failure),
        ];
        floats
            .iter()
            .map(|(n, v)| format!("{n}={:016x}", v.to_bits()))
            .chain(self.counts.iter().map(|(n, v)| format!("{n}={v}")))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of build plus warm-up, seconds.
    pub setup_s: f64,
    /// Wall time of the measured part, seconds.
    pub measure_s: f64,
    /// Whether spans and shadow probes were on.
    pub traced: bool,
    /// Every timed engine call, in order.
    pub calls: Vec<Call>,
    /// Reference-engine blocks: seconds per batch, one value per block.
    pub base_blocks: Vec<f64>,
    /// Operation counts.
    pub ops: Ops,
    /// Simulated-domain metrics.
    pub sim: SimMetrics,
    /// Per verified restore: mean l2 distance between restored and saved
    /// embedding rows of the sample.
    pub l2_err: Vec<f64>,
    /// Interval rows recorded after warm-up.
    pub intervals: Vec<IntervalStats>,
    /// Resume rows recorded after warm-up.
    pub resumes: Vec<ResumeStats>,
    /// First error, if the round had to stop early.
    pub error: Option<String>,
}

/// A seeded set of embedding rows compared at every restore: the rows of
/// the first two batches (active, Zipf-biased towards hot rows) plus an
/// evenly strided cold set.
struct RowSample {
    rows: Vec<(usize, usize)>,
}

impl RowSample {
    const PER_TABLE: usize = 96;

    fn new(engine: &Engine) -> Self {
        let mut rows = Vec::new();
        let mut seen = HashSet::new();
        let tables = engine.trainer().model().tables();
        for b in 0..2 {
            let batch = engine.dataset().batch(b);
            for (t, touched) in batch.sparse.iter().enumerate() {
                for &r in touched.iter().take(Self::PER_TABLE / 2) {
                    if seen.insert((t, r as usize)) {
                        rows.push((t, r as usize));
                    }
                }
            }
        }
        let seed = engine.dataset().spec().seed as usize;
        for (t, table) in tables.iter().enumerate() {
            let n = table.rows();
            let stride = (n / Self::PER_TABLE).max(1);
            for k in 0..Self::PER_TABLE {
                let r = (seed % stride + k * stride) % n;
                if seen.insert((t, r)) {
                    rows.push((t, r));
                }
            }
        }
        Self { rows }
    }
}

/// Sampled model state at a restore point.
#[derive(Clone)]
struct SavePoint {
    iteration: u64,
    rows: Vec<Vec<f32>>,
    bottom: Vec<f32>,
    top: Vec<f32>,
}

impl SavePoint {
    fn take(engine: &Engine, sample: &RowSample) -> Self {
        let model = engine.trainer().model();
        Self {
            iteration: model.iteration(),
            rows: sample
                .rows
                .iter()
                .map(|&(t, r)| model.tables()[t].row(r).to_vec())
                .collect(),
            bottom: model.bottom().flatten(),
            top: model.top().flatten(),
        }
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks what a restore must have put back at once: the iteration, the
/// dense layers, and a reader cursor consistent with the checkpoint.
fn verify_scalars(engine: &Engine, report: &RestoreReport, save: &SavePoint) -> bool {
    let model = engine.trainer().model();
    model.iteration() == save.iteration
        && report.reader.next_batch == report.state.iteration
        && report.state.iteration <= save.iteration
        && bits_equal(&model.bottom().flatten(), &save.bottom)
        && bits_equal(&model.top().flatten(), &save.top)
}

/// Compares the sampled rows against the save point, skipping `touched`
/// rows (trained since the restore). An fp32 row must match bit for bit.
/// A quantized row must equal the saved row exactly (it was not modified
/// since it was last loaded from a checkpoint, so the chain still holds
/// the bytes it was decoded from) or the public codec's round trip of the
/// saved row (it was modified, so the chain holds its quantized value).
/// Re-quantizing an already dequantized row is not idempotent for the
/// range-searching schemes, which is why both are accepted.
/// Returns (all rows matched, mean l2 distance to the saved rows).
fn verify_rows(
    engine: &Engine,
    sample: &RowSample,
    save: &SavePoint,
    scheme: QuantScheme,
    touched: &HashSet<(usize, usize)>,
) -> (bool, f64) {
    let model = engine.trainer().model();
    let (mut ok, mut err, mut n) = (true, 0.0f64, 0u32);
    for (&(t, r), saved) in sample.rows.iter().zip(&save.rows) {
        if touched.contains(&(t, r)) {
            continue;
        }
        let now = model.tables()[t].row(r);
        let exact = bits_equal(now, saved);
        let matches = exact
            || (scheme != QuantScheme::Fp32
                && bits_equal(now, &scheme.quantize_row(saved).dequantize()));
        ok &= matches;
        err += now
            .iter()
            .zip(saved)
            .map(|(a, b)| f64::from(a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        n += 1;
    }
    (ok && n > 0, err / f64::from(n.max(1)))
}

/// A lazy restore whose rows can only be compared once the drain ends.
struct PendingVerify {
    save: SavePoint,
    restored_iteration: u64,
}

/// Tracing state threaded through the traced rounds of a run.
pub struct Tracing {
    /// Span recorder.
    pub tracer: Tracer,
    /// The shadow pipeline the layer probes run on.
    pub shadow: Shadow,
}

struct Driver<'a> {
    w: &'a Workload,
    engine: Engine,
    reference: Engine,
    sample: RowSample,
    tracing: Option<&'a mut Tracing>,
    calls: Vec<Call>,
    base_blocks: Vec<f64>,
    ops: Ops,
    l2_err: Vec<f64>,
    peak_store_bytes: u64,
    /// Batches into the current interval, mirroring the engine.
    into: u64,
    last_boundary: SavePoint,
    pending_verify: Option<PendingVerify>,
    failures_done: u32,
    cycle_span: Option<usize>,
    /// Index of the measured cycle in progress.
    cycle: u32,
    /// Per-batch wall time of the latest plain training block.
    last_batch_secs: f64,
}

impl Driver<'_> {
    fn span_begin(&mut self, name: &'static str) -> Option<usize> {
        let parent = self.cycle_span;
        self.tracing
            .as_deref_mut()
            .map(|t| t.tracer.begin(name, parent))
    }

    fn span_end(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracing.as_deref_mut(), id) {
            t.tracer.end(id);
        }
    }

    fn note_store_bytes(&mut self) {
        self.peak_store_bytes = self.peak_store_bytes.max(self.engine.store().total_bytes());
    }

    /// One reference block: the unit every wall-clock metric divides by.
    fn reference_block(&mut self) -> Result<(), CnrError> {
        let span = self.span_begin("engine.base_block");
        let t0 = Instant::now();
        self.reference.train_batches(BLOCK)?;
        let wall = t0.elapsed().as_secs_f64();
        self.span_end(span);
        self.base_blocks.push(wall / BLOCK as f64);
        Ok(())
    }

    /// Trains `k` batches as one timed call; `k == 1` at a boundary.
    fn train(&mut self, k: u64, closes_interval: bool) -> Result<(), CnrError> {
        let lazy = self.engine.pending_lazy().is_some();
        let class = classify(closes_interval, lazy);
        let intervals_before = self.engine.stats().intervals.len();
        let scrubs_before = self.engine.stats().scrubs.len();
        if closes_interval {
            self.note_store_bytes();
            if let Some(t) = self.tracing.as_deref_mut() {
                t.shadow.before_boundary(&self.engine);
            }
        }
        let span = self.span_begin(class.span_name());
        let t0 = Instant::now();
        let result = self.engine.train_batches(k);
        let wall = t0.elapsed().as_secs_f64();
        self.span_end(span);
        self.ops.attempted += k + u64::from(closes_interval);
        if result.is_err() {
            self.ops.failed += 1;
        }
        result?;
        self.calls.push(Call {
            class,
            wall,
            batches: k,
            failure: (class == Class::RecoveryBatch).then(|| self.failures_done.saturating_sub(1)),
            cycle: self.cycle,
        });
        self.into += k;
        if class == Class::Batch {
            self.last_batch_secs = wall / k as f64;
        }
        if let Some(t) = self.tracing.as_deref_mut() {
            let first = self.engine.trainer().model().iteration() - k;
            t.shadow
                .after_train(&self.engine, &mut t.tracer, self.cycle_span, first, k);
        }
        let grew = self.engine.stats().intervals.len() - intervals_before;
        if grew != usize::from(closes_interval) {
            // A checkpoint where none was due, or none where one was.
            self.ops.failed += 1;
        }
        if closes_interval {
            self.into = 0;
            self.note_store_bytes();
            self.last_boundary = SavePoint::take(&self.engine, &self.sample);
            let scrubbed = self.engine.stats().scrubs.len() > scrubs_before;
            let parent = self.cycle_span;
            if let Some(t) = self.tracing.as_deref_mut() {
                t.shadow.after_boundary(
                    &self.engine,
                    &mut t.tracer,
                    parent,
                    wall,
                    scrubbed,
                    self.last_batch_secs,
                );
            }
        }
        self.finish_pending_verify();
        Ok(())
    }

    /// Compares a lazy restore's rows once its drain has ended, skipping
    /// the rows training touched in between.
    fn finish_pending_verify(&mut self) {
        if self.engine.pending_lazy().is_some() {
            return;
        }
        let Some(p) = self.pending_verify.take() else {
            return;
        };
        let mut touched = HashSet::new();
        let now = self.engine.trainer().model().iteration();
        for i in p.restored_iteration..now {
            let batch = self.engine.dataset().batch(i);
            for (t, rows) in batch.sparse.iter().enumerate() {
                touched.extend(rows.iter().map(|&r| (t, r as usize)));
            }
        }
        self.finish_verify(&p.save, &touched);
    }

    fn finish_verify(&mut self, save: &SavePoint, touched: &HashSet<(usize, usize)>) {
        let (ok, err) = verify_rows(&self.engine, &self.sample, save, self.w.scheme(), touched);
        let exact_required = self.w.scheme() == QuantScheme::Fp32;
        if !ok || (exact_required && err != 0.0) {
            self.ops.failed += 1;
        }
        self.l2_err.push(err);
    }

    /// Injects one failure and restores, then verifies the restore.
    fn fail_and_restore(&mut self) -> Result<(), CnrError> {
        // With the WAL on, the restore point is the state just before the
        // failure; otherwise it is the last boundary.
        let save = if self.w.wal {
            SavePoint::take(&self.engine, &self.sample)
        } else {
            self.last_boundary.clone()
        };
        let failed_at = self.engine.trainer().model().iteration();
        self.pending_verify = None;
        let span = self.span_begin(Class::Restore.span_name());
        let t0 = Instant::now();
        let result = self.engine.simulate_failure_and_restore();
        let wall = t0.elapsed().as_secs_f64();
        self.span_end(span);
        self.ops.attempted += 2; // the restore and its verification
        if result.is_err() {
            self.ops.failed += 1;
        }
        let report = result?;
        self.calls.push(Call {
            class: Class::Restore,
            wall,
            batches: 0,
            failure: Some(self.failures_done),
            cycle: self.cycle,
        });
        self.failures_done += 1;

        let restored = self.engine.trainer().model().iteration();
        let lost_reported = self
            .engine
            .stats()
            .resumes
            .last()
            .map_or(u64::MAX, |r| r.lost_iterations);
        let lost_ok = lost_reported == failed_at - restored && (!self.w.wal || lost_reported <= 1);
        if !verify_scalars(&self.engine, &report, &save) || !lost_ok {
            self.ops.failed += 1;
            self.l2_err.push(f64::NAN);
        } else if self.engine.pending_lazy().is_some() {
            self.pending_verify = Some(PendingVerify {
                save,
                restored_iteration: restored,
            });
        } else {
            self.finish_verify(&save, &HashSet::new());
        }
        if !self.w.wal {
            self.last_boundary = SavePoint::take(&self.engine, &self.sample);
        }
        self.into = restored - report.state.iteration;
        let parent = self.cycle_span;
        if let Some(t) = self.tracing.as_deref_mut() {
            t.shadow
                .after_restore(&self.engine, &mut t.tracer, parent, wall);
        }
        Ok(())
    }

    /// Trains up to the boundary (inclusive), failing at `fail_at`
    /// batches into the interval when given.
    fn run_interval(&mut self, mut fail_at: Option<u64>) -> Result<(), CnrError> {
        loop {
            if fail_at == Some(self.into) {
                fail_at = None;
                self.fail_and_restore()?;
            }
            let until_boundary = self.w.interval - self.into;
            if until_boundary == 1 {
                return self.train(1, true);
            }
            let mut k = BLOCK.min(until_boundary - 1);
            if let Some(f) = fail_at {
                k = k.min(f - self.into);
            }
            if self.engine.pending_lazy().is_some() {
                k = 1;
            }
            self.train(k, false)?;
        }
    }
}

/// Runs one round of `w` under `seed`. With `tracing`, every engine call
/// gets a span under a per-cycle root and the shadow probes run.
pub fn run_round(w: &Workload, seed: u64, mut tracing: Option<&mut Tracing>) -> Round {
    let traced = tracing.is_some();
    let setup_t0 = Instant::now();
    let mut round = Round {
        traced,
        ..Round::default()
    };
    let built = w
        .engine(seed)
        .and_then(|e| w.reference_engine(seed).map(|r| (e, r)));
    let (engine, reference) = match built {
        Ok(pair) => pair,
        Err(e) => {
            round.ops = Ops {
                attempted: 1,
                failed: 1,
            };
            round.error = Some(format!("build: {e}"));
            return round;
        }
    };
    let sample = RowSample::new(&engine);
    let last_boundary = SavePoint::take(&engine, &sample);
    if let Some(t) = tracing.as_deref_mut() {
        t.shadow.attach(&engine, &t.tracer);
    }
    let mut d = Driver {
        w,
        engine,
        reference,
        sample,
        tracing,
        calls: Vec::new(),
        base_blocks: Vec::new(),
        ops: Ops::default(),
        l2_err: Vec::new(),
        peak_store_bytes: 0,
        into: 0,
        last_boundary,
        pending_verify: None,
        failures_done: 0,
        cycle_span: None,
        cycle: 0,
        last_batch_secs: 0.0,
    };

    // Warm-up, charged to set-up: one interval, the first (full)
    // checkpoint, one restore, one reference block.
    let warm = (|| {
        d.run_interval(None)?;
        d.fail_and_restore()?;
        d.engine.drain_lazy_restore()?;
        d.finish_pending_verify();
        d.reference_block()
    })();
    let (intervals_base, resumes_base) = (
        d.engine.stats().intervals.len(),
        d.engine.stats().resumes.len(),
    );
    d.calls.clear();
    d.base_blocks.clear();
    d.l2_err.clear();
    d.failures_done = 0;
    d.peak_store_bytes = 0;
    if let Some(t) = d.tracing.as_deref_mut() {
        t.shadow.warmup_done();
    }
    round.setup_s = setup_t0.elapsed().as_secs_f64();

    let measure_t0 = Instant::now();
    let outcome = warm.and_then(|()| {
        let offsets = w.failure_offsets(seed);
        for cycle in 0..w.intervals {
            d.cycle = cycle;
            d.cycle_span = d.span_begin("cycle");
            d.reference_block()?;
            // The failure falls in the last interval of every
            // `fail_every`, so the first one follows a measured boundary:
            // the warm-up boundary's restore already waited out its upload.
            let fail_at = ((cycle + 1) % w.fail_every == 0)
                .then(|| offsets[((cycle + 1) / w.fail_every - 1) as usize]);
            d.run_interval(fail_at)?;
            let root = d.cycle_span.take();
            d.span_end(root);
        }
        Ok(())
    });
    round.measure_s = measure_t0.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        round.error = Some(e.to_string());
    }
    if d.pending_verify.is_some() {
        // A restore whose drain never ended cannot be verified.
        d.ops.failed += 1;
    }

    let stats = d.engine.stats();
    round.intervals = stats.intervals[intervals_base..].to_vec();
    round.resumes = stats.resumes[resumes_base..].to_vec();
    round.sim = sim_metrics(&d, &round.intervals, &round.resumes);
    round.calls = std::mem::take(&mut d.calls);
    round.base_blocks = std::mem::take(&mut d.base_blocks);
    round.ops = d.ops;
    round.l2_err = std::mem::take(&mut d.l2_err);
    if let Some(t) = d.tracing.take() {
        t.shadow.detach();
    }
    round
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean_of<T>(rows: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(f).sum::<f64>() / rows.len() as f64
}

fn sim_metrics(d: &Driver<'_>, intervals: &[IntervalStats], resumes: &[ResumeStats]) -> SimMetrics {
    let stats = d.engine.stats();
    let full_ref = stats.full_reference_bytes.max(1) as f64;
    let store = d.engine.store().metrics().snapshot();
    let registry = d.engine.obs().registry();
    SimMetrics {
        write_latency_ms: mean_of(intervals, |i| ms(i.write_latency)),
        resume_ms: mean_of(resumes, |r| ms(r.drain_wait + r.fetch + r.wal_replay)),
        first_batch_ms: mean_of(resumes, |r| {
            ms(r.time_to_first_batch.saturating_sub(r.decode + r.merge))
        }),
        stored_frac_mean: mean_of(intervals, |i| i.stored_fraction),
        capacity_frac_peak: d.peak_store_bytes as f64 / full_ref,
        lost_iters_per_failure: mean_of(resumes, |r| r.lost_iterations as f64),
        counts: vec![
            ("intervals", intervals.len() as u64),
            ("restores", resumes.len() as u64),
            ("iterations", d.engine.trainer().model().iteration()),
            (
                "stored_bytes",
                intervals.iter().map(|i| i.stored_bytes).sum(),
            ),
            (
                "bytes_fetched",
                resumes.iter().map(|r| r.bytes_fetched).sum(),
            ),
            (
                "wal_replayed_iterations",
                resumes.iter().map(|r| r.wal_replayed_iterations).sum(),
            ),
            (
                "fault_in_fetches",
                resumes.iter().map(|r| r.fault_in_fetches).sum(),
            ),
            ("wal_appends", stats.wal.appends),
            ("wal_bytes_appended", stats.wal.bytes_appended),
            ("scrub_sweeps", stats.scrubs.len() as u64),
            ("store_puts", store.puts),
            ("store_gets", store.gets),
            ("store_deletes", store.deletes),
            ("store_bytes_put", store.bytes_put),
            ("store_bytes_got", store.bytes_got),
            ("store_sim_busy_us", store.busy_time.as_micros() as u64),
            (
                "wal_bytes_synced",
                registry.counter(names::WAL_BYTES_SYNCED),
            ),
            ("wal_sim_sync_ns", stats.wal.sync_time.as_nanos() as u64),
            ("wal_segments_rotated", stats.wal.segments_rotated),
            ("scrub_objects_scanned", stats.scrub_totals().scanned),
            ("sim_clock_us", d.engine.clock().now_micros()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four workloads' shapes on a model small enough for a unit test.
    fn tiny(w: &Workload) -> Workload {
        Workload {
            rows: 20_000,
            interval: 12,
            intervals: 4,
            ..*w
        }
    }

    #[test]
    fn simulated_metrics_depend_on_the_seed_alone() {
        for w in &crate::workloads::WORKLOADS {
            let w = tiny(w);
            let a = run_round(&w, 5, None);
            let b = run_round(&w, 5, None);
            assert_eq!(a.error, None, "{}", w.name);
            assert_eq!(a.ops.failed, 0, "{}: every restore verifies", w.name);
            assert!(a.ops.attempted > u64::from(w.intervals) * w.interval);
            assert_eq!(a.intervals.len(), w.intervals as usize);
            assert_eq!(a.resumes.len(), w.failures() as usize);
            assert_eq!(a.base_blocks.len(), w.intervals as usize);
            // The lazy path is known to leak thread order into the
            // simulated clock; every eager path must repeat bit for bit.
            if w.lazy.is_none() {
                assert_eq!(a.sim, b.sim, "{}", w.name);
            }
            assert_eq!(a.sim.counts[..3], b.sim.counts[..3], "{}", w.name);
            let c = run_round(&w, 6, None);
            assert_ne!(a.sim, c.sim, "{}: the seed makes the inputs", w.name);
            if w.scheme() == QuantScheme::Fp32 {
                assert!(a.l2_err.iter().all(|&e| e == 0.0), "{}", w.name);
            } else {
                assert!(a.l2_err.iter().any(|&e| e > 0.0), "{}", w.name);
            }
        }
    }

    #[test]
    fn calls_are_classed_by_what_they_close_and_enter() {
        assert_eq!(classify(false, false), Class::Batch);
        assert_eq!(classify(false, true), Class::RecoveryBatch);
        assert_eq!(classify(true, false), Class::Boundary);
        // A boundary that lands during a recovery is still a boundary.
        assert_eq!(classify(true, true), Class::Boundary);
    }
}
