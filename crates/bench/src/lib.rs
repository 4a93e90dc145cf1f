//! Experiment harness regenerating every figure of the Check-N-Run paper.
//!
//! Each `figN` module produces the data series of the corresponding figure,
//! printed as CSV with `#`-prefixed commentary. The `repro` binary
//! dispatches on figure ids; criterion benches under `benches/` reuse the
//! same workload builders for wall-clock measurements.
//!
//! Scale: the paper's model is O(TB) on 128 GPUs; these experiments use
//! laptop-scale models and report the same *normalized* quantities the
//! paper plots (% of model size, ℓ2 error, reduction factors), so shapes
//! are directly comparable.
//!
//! The motivation figures' models live here too, not in the engine crates:
//! the Bistro-style fleet [`scheduler`] with its [`job`]s, wasted-work
//! accounting ([`recovery`]), the failure CDF ([`failure`]), the
//! model-growth series ([`growth`]) and the communication cost model
//! ([`comm`]). `examples/failure_recovery.rs` is the fleet demo. Fig. 14's
//! restore-degradation experiment ([`accuracy`]) lives here as well: it
//! perturbs a model the way a quantized restore does, without the engine.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod comm;
pub mod failure;
pub mod figures;
pub mod growth;
pub mod job;
mod kmeans;
pub mod recovery;
pub mod scheduler;
pub mod timeline;
pub mod trajectory;
pub mod workloads;

/// Prints a CSV header and rows with a `# <title>` preamble.
pub fn print_csv(title: &str, header: &str, rows: &[String]) {
    println!("# {title}");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    println!();
}

/// Formats a float with fixed precision, trimming noise.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.6}")
    }
}
