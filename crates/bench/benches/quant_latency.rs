//! Quantization micro-benchmarks backing Figures 12/13: per-row cost of
//! each scheme, and the adaptive scheme's bins/ratio scaling.

use cnr_bench::trajectory::{quant_records, quant_schemes};
use cnr_bench::workloads::{sampled_rows, trained_model};
use cnr_quant::{QuantScheme, RowSource};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn schemes(c: &mut Criterion) {
    let (_, model) = trained_model(1, 100, 16);
    let rows = sampled_rows(&model, 64);
    let mut group = c.benchmark_group("quantize_row");
    for (name, scheme) in quant_schemes() {
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = scheme.quantize_row(black_box(rows.row(i % rows.num_rows())));
                i += 1;
                black_box(q)
            })
        });
    }
    group.finish();
}

/// What the adaptive search costs relative to the schemes it is weighed
/// against, from one run of the trajectory's own measurement (the numbers
/// `BENCH_quant.json` records): wall-clock values are comparable only
/// within a run, so the ratios are what carries across machines.
fn adaptive_ratios(_c: &mut Criterion) {
    let measuring = std::env::args().any(|a| a == "--bench");
    let records = quant_records(!measuring);
    let value = |id: &str| {
        records
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("quant_records has no {id}"))
            .value
    };
    for adaptive in ["adaptive4_b25", "adaptive4_b45"] {
        let ns = value(&format!("quantize_row/{adaptive}"));
        println!(
            "ratio {adaptive:<16} {:>6.2} x asymmetric4 {:>6.2} x fp32 {:>6.2} steps/row",
            ns / value("quantize_row/asymmetric4"),
            ns / value("quantize_row/fp32"),
            value(&format!("search_steps/{adaptive}")),
        );
    }
}

fn adaptive_bins(c: &mut Criterion) {
    let (_, model) = trained_model(1, 100, 16);
    let rows = sampled_rows(&model, 64);
    let mut group = c.benchmark_group("adaptive_bins");
    for bins in [5u32, 25, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, &bins| {
            let scheme = QuantScheme::AdaptiveAsymmetric {
                bits: 2,
                num_bins: bins,
                ratio: 1.0,
            };
            let mut i = 0usize;
            b.iter(|| {
                let q = scheme.quantize_row(black_box(rows.row(i % rows.num_rows())));
                i += 1;
                black_box(q)
            })
        });
    }
    group.finish();
}

fn adaptive_ratio(c: &mut Criterion) {
    let (_, model) = trained_model(1, 100, 16);
    let rows = sampled_rows(&model, 64);
    let mut group = c.benchmark_group("adaptive_ratio");
    for pct in [10u32, 50, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(pct), &pct, |b, &pct| {
            let scheme = QuantScheme::AdaptiveAsymmetric {
                bits: 4,
                num_bins: 45,
                ratio: pct as f64 / 100.0,
            };
            let mut i = 0usize;
            b.iter(|| {
                let q = scheme.quantize_row(black_box(rows.row(i % rows.num_rows())));
                i += 1;
                black_box(q)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = schemes, adaptive_ratios, adaptive_bins, adaptive_ratio
}
criterion_main!(benches);
