//! Zero-dependency observability for the Check-N-Run workspace.
//!
//! Check-N-Run's evaluation is built on *decomposed* timing: snapshot stall
//! vs. quantize CPU vs. upload drain on the write side (§4 of the paper),
//! and the fetch/decode/merge downtime model on the read side (§2, §5).
//! This crate is the substrate those decompositions are recorded on:
//!
//! * [`span`] — retrospectively recorded [`Span`]s with explicit parent
//!   edges. An [`Obs`] handle reads time through the [`Clock`] trait, so
//!   the same code paths produce coherent trees whether time is wall-clock
//!   ([`WallClock`]) or the engine's simulated clock (`cnr_cluster::SimClock`
//!   implements [`Clock`]).
//! * [`metrics`] — a [`MetricsRegistry`] of counters, gauges, and
//!   fixed-bucket histograms (p50/p95/p99). Run-level statistics in
//!   `cnr_core` (`RunStats`, `WalRunStats`, …) are *derived from* this
//!   registry rather than hand-accumulated at call sites.
//! * [`export`] — a Chrome `trace_event`-compatible JSONL trace writer and a
//!   Prometheus-style text exposition snapshot, plus a structural validator
//!   for the JSONL timeline.
//! * [`json`] — the hand-rolled JSON escaping/formatting helpers shared with
//!   `cnr_bench::trajectory` (this workspace has no serde_json).
//!
//! The crate is `std`-only by design: it sits *below* `cnr_cluster` in the
//! dependency DAG so every other crate can thread an [`Obs`] handle through
//! without cycles, and so the vendored-stub policy never applies to it.
//! Consumers read what was recorded after the fact ([`Obs::spans`],
//! [`Obs::registry`]) and hand it to the [`export`] writers.

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod span;

pub use clock::{Clock, WallClock};
pub use metrics::{HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use span::{Obs, Span, SpanId, SpanKind};
