//! Emits the checked-in bench-trajectory files `BENCH_restore.json`,
//! `BENCH_quant.json`, and `BENCH_wal.json` at the repo root.
//!
//! ```text
//! cargo run --release -p cnr_bench --bin cnr_bench            # full mode
//! cargo run --release -p cnr_bench --bin cnr_bench -- --quick # CI mode
//! cargo run ... -- --timeline    # also emit BENCH_timeline.jsonl + .prom
//! cargo run ... -- --out-dir some/dir                         # elsewhere
//! ```
//!
//! Full mode is what maintainers run before committing a hot-path change,
//! and what CI's bench job diffs against the checked-in files; quick mode
//! shrinks the decode workload, the WAL's measured window and the round
//! counts so a smoke run takes seconds. Only full mode reproduces the
//! checked-in simulated and count records (`simulated_us`, `bytes`,
//! `fraction`, `steps_per_row`): they are identical on every machine, but
//! quick mode's `search_steps/*` and every `BENCH_wal.json` record differ
//! from full mode's. Wall-clock (`ns`) records are only comparable within
//! one machine's history, so each document carries a `machine` block
//! (cores/os/arch) identifying the emitter.

use cnr_bench::timeline::lifecycle_timeline;
use cnr_bench::trajectory::{quant_records, restore_records, to_json, wal_records, MachineInfo};
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut timeline = false;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--timeline" => timeline = true,
            "--out-dir" => {
                out_dir = PathBuf::from(
                    args.next().expect("--out-dir requires a directory argument"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: cnr_bench [--quick] [--timeline] [--out-dir <dir>]");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");

    // Wall-clock records are only interpretable next to the machine that
    // produced them; the emitted documents say which one.
    let machine = MachineInfo::current();

    let restore = restore_records(quick);
    let restore_path = out_dir.join("BENCH_restore.json");
    std::fs::write(&restore_path, to_json("restore", mode, &machine, &restore))
        .expect("write BENCH_restore.json");
    println!("wrote {} ({} records)", restore_path.display(), restore.len());

    let quant = quant_records(quick);
    let quant_path = out_dir.join("BENCH_quant.json");
    std::fs::write(&quant_path, to_json("quant", mode, &machine, &quant))
        .expect("write BENCH_quant.json");
    println!("wrote {} ({} records)", quant_path.display(), quant.len());

    let wal = wal_records(quick);
    let wal_path = out_dir.join("BENCH_wal.json");
    std::fs::write(&wal_path, to_json("wal", mode, &machine, &wal))
        .expect("write BENCH_wal.json");
    println!("wrote {} ({} records)", wal_path.display(), wal.len());

    // Opt-in: the checkpoint-lifecycle timeline (Chrome trace_event JSONL)
    // plus a Prometheus-style metrics snapshot. Structure is deterministic
    // but durations mix in wall-clock CPU time (quantize/decode/merge), so
    // the bytes are machine-dependent; validated before writing.
    if timeline {
        let t = match lifecycle_timeline(quick) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("timeline export failed validation: {err}");
                std::process::exit(1);
            }
        };
        let trace_path = out_dir.join("BENCH_timeline.jsonl");
        std::fs::write(&trace_path, &t.trace_jsonl).expect("write BENCH_timeline.jsonl");
        println!("wrote {} ({} spans)", trace_path.display(), t.spans);
        let metrics_path = out_dir.join("BENCH_metrics.prom");
        std::fs::write(&metrics_path, &t.metrics_text).expect("write BENCH_metrics.prom");
        println!("wrote {}", metrics_path.display());
    }
}
