//! Checkpoint-lifecycle timeline export: runs one full engine scenario —
//! checkpoints, an injected failure mid-drain, a lazy restore with WAL
//! tail replay and fault-ins, a background scrub — and exports what the
//! engine's observability pipeline recorded as a Chrome
//! `trace_event`-compatible JSONL timeline plus a Prometheus-style text
//! metrics snapshot.
//!
//! The timeline's *structure* (which spans, nesting, counts) is
//! deterministic — every lifecycle event is batch-count driven — but the
//! durations mix simulated transfer time with measured CPU time
//! (quantize, decode, and merge are wall-clock, exactly as in
//! [`crate::trajectory`]'s `ns` records), so byte-level content is
//! machine-dependent and the artifact is opt-in output, not checked in.
//! Open the JSONL in any `chrome://tracing`-compatible viewer (wrap the
//! lines in a JSON array) to see the §4.3 overlap: quantize and upload
//! spans running concurrent with the next interval's snapshot stall.

use cnr_core::config::DeltaWalConfig;
use cnr_core::engine::{Engine, EngineBuilder};
use cnr_model::ModelConfig;
use cnr_storage::RemoteConfig;
use cnr_workload::DatasetSpec;
use std::time::Duration;

/// The exported timeline plus its metrics snapshot, pre-validated.
pub struct TimelineArtifacts {
    /// Chrome `trace_event` JSONL: one complete-event object per line,
    /// timestamps in simulated microseconds, monotone non-decreasing.
    pub trace_jsonl: String,
    /// Prometheus-style text exposition of the engine's whole metrics
    /// registry (counters, gauges, histogram buckets).
    pub metrics_text: String,
    /// Spans recorded by the scenario (one JSONL line each).
    pub spans: usize,
}

/// Builds the scenario engine: 4 writer hosts, 2 reader hosts, lazy
/// restores over a slow store (so phase durations are visible), a delta
/// WAL, and scheduled scrubbing.
fn scenario_engine(seed: u64) -> Engine {
    let spec = DatasetSpec::tiny(seed);
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    EngineBuilder::new(spec, model_cfg)
        .checkpoint_every_batches(5)
        .cluster_shape(1, 2)
        .writer_hosts(4)
        .reader_hosts(2)
        .lazy_restore(0.05)
        .delta_wal(DeltaWalConfig)
        .scrub_every(Duration::from_millis(1))
        .remote_config(RemoteConfig {
            bandwidth_bytes_per_sec: 64.0 * 1024.0,
            base_latency: Duration::from_micros(100),
            replication: 1,
            channels: 2,
        })
        .build()
        .expect("scenario engine")
}

/// Runs the full checkpoint-lifecycle scenario and exports its timeline.
/// `quick` shortens the post-restore tail (CI mode); the lifecycle
/// coverage — checkpoint, failure, lazy restore, WAL replay, drain,
/// scrub — is identical in both modes.
///
/// The export is validated before it is returned: the span tree must
/// satisfy every structural invariant and the JSONL must frame-parse
/// with monotone timestamps. Errors are returned, not panicked, so the
/// caller decides how loudly to fail.
pub fn lifecycle_timeline(quick: bool) -> Result<TimelineArtifacts, String> {
    let mut e = scenario_engine(101);
    let tail = if quick { 2 } else { 7 };
    e.train_batches(13).map_err(|err| err.to_string())?;
    e.simulate_failure_and_restore()
        .map_err(|err| err.to_string())?;
    e.train_batches(tail).map_err(|err| err.to_string())?;
    e.drain_lazy_restore().map_err(|err| err.to_string())?;
    e.scrub_now(None).map_err(|err| err.to_string())?;

    let spans = e.obs().spans();
    cnr_obs::span::validate_tree(&spans)
        .map_err(|err| format!("span tree invariant violated: {err}"))?;
    let trace_jsonl = cnr_obs::export::chrome_trace_jsonl(&spans);
    cnr_obs::export::validate_trace_jsonl(&trace_jsonl)
        .map_err(|err| format!("trace schema violated: {err}"))?;
    let metrics_text = cnr_obs::export::prometheus_text(&e.obs().registry().snapshot());
    Ok(TimelineArtifacts {
        trace_jsonl,
        metrics_text,
        spans: spans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_covers_the_whole_lifecycle_and_validates() {
        let t = lifecycle_timeline(true).unwrap();
        assert_eq!(t.trace_jsonl.lines().count(), t.spans);
        for name in [
            "\"name\":\"checkpoint\"",
            "\"name\":\"checkpoint.upload\"",
            "\"name\":\"restore\"",
            "\"name\":\"restore.fetch.host\"",
            "\"name\":\"restore.wal_replay\"",
            "\"name\":\"wal.sync\"",
            "\"name\":\"scrub.sweep\"",
        ] {
            assert!(t.trace_jsonl.contains(name), "timeline must contain {name}");
        }
        assert!(t.metrics_text.contains("cnr_restore_resumes_total 1"));
        assert!(t.metrics_text.contains("cnr_checkpoint_intervals_total"));
        assert!(t.metrics_text.contains("cnr_wal_appends_total"));
        assert!(t.metrics_text.contains("cnr_scrub_sweeps_total"));
    }

    /// Durations include wall-clock CPU time (quantize/decode/merge), so
    /// byte-identity across runs is NOT expected; the *structure* — which
    /// spans exist, how many of each — is batch-count driven and must match.
    #[test]
    fn timeline_structure_is_deterministic() {
        let a = lifecycle_timeline(true).unwrap();
        let b = lifecycle_timeline(true).unwrap();
        assert_eq!(a.spans, b.spans, "span count is batch-count driven");
        let names = |t: &TimelineArtifacts| {
            let mut v: Vec<String> = t
                .trace_jsonl
                .lines()
                .map(|line| {
                    cnr_obs::json::find_raw_value(line, "name")
                        .expect("every trace line has a name")
                        .to_string()
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&a), names(&b), "same multiset of span names");
    }
}
