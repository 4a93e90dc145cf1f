//! `cnr_lifecycle_bench`: one workload per process.
//!
//! ```text
//! cnr_lifecycle_bench --workload <name> [--seed 7] [--seconds 20] [--trace 0|1]
//! cnr_lifecycle_bench --repeat-check [--seed 7] [--seconds 20]
//! ```
//!
//! A run repeats fixed-work rounds until `--seconds` of measured time are
//! spent, prints every metric by name with its unit, and ends its standard
//! output with one JSON result line. `--trace 1` alternates untraced and
//! traced rounds, reports the per-layer metrics and writes the spans to
//! `benchmark/out/<workload>.trace.jsonl`.

use cnr_lifecycle_bench::harness::{run_round, Round, Tracing};
use cnr_lifecycle_bench::probes::Shadow;
use cnr_lifecycle_bench::report::{
    self, end_to_end, is_noisy, noise, parse_result_line, per_layer, sim_identical_rounds,
    TraceSummary, END_TO_END, NOISY_SPREAD,
};
use cnr_lifecycle_bench::trace::Tracer;
use cnr_lifecycle_bench::workloads::{by_name, Workload, EMBEDDING_DIM, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cnr_lifecycle_bench --workload <full_fp32|incr_adaptive4|recover_chain|online_wal_lazy> \
[--seed N] [--seconds S] [--trace 0|1]\n       cnr_lifecycle_bench --repeat-check [--seed N] [--seconds S]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// System share of this process's CPU time so far.
fn cpu_sys_frac() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some(stime / (utime + stime).max(1.0))
        })
        .unwrap_or(0.0)
}

fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    let mut rounds: Vec<Round> = Vec::new();
    let mut tracing = Tracing {
        tracer: Tracer::new(),
        shadow: Shadow::new(w),
    };
    // A traced run brackets its first traced round with untraced ones, so
    // drift between rounds does not read as tracing overhead.
    let min_rounds = if args.trace { 3 } else { 1 };
    let mut measured = 0.0;
    loop {
        // A traced run alternates, so one process yields both sides of
        // the tracing overhead.
        let traced = args.trace && rounds.len() % 2 == 1;
        let round = run_round(w, args.seed, traced.then_some(&mut tracing));
        measured += round.measure_s;
        let stop = round.error.is_some();
        rounds.push(round);
        let mean_round = measured / rounds.len() as f64;
        if stop || (rounds.len() >= min_rounds && measured + 0.5 * mean_round >= args.seconds) {
            break;
        }
    }

    let all: Vec<&Round> = rounds.iter().collect();
    let attempted: u64 = rounds.iter().map(|r| r.ops.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.ops.failed).sum();
    let errors: Vec<&String> = rounds.iter().filter_map(|r| r.error.as_ref()).collect();
    let identical = sim_identical_rounds(&all);
    if identical != rounds.len() && w.lazy.is_none() {
        // Every eager path must repeat its simulated metrics bit for bit.
        failed += 1;
    }
    let (block_spread, round_spread) = noise(&all);

    println!(
        "workload {} seed {} rounds {} ({} traced) measured {measured:.2} s threads {}",
        w.name,
        args.seed,
        rounds.len(),
        rounds.iter().filter(|r| r.traced).count(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("why: {}", w.why);
    println!(
        "ops_attempted {attempted} ops_failed {failed} (batches, checkpoints, restores, verifications)"
    );
    println!(
        "samples: boundaries {} restores {} reference blocks {}",
        all.iter().map(|r| r.intervals.len()).sum::<usize>(),
        all.iter().map(|r| r.resumes.len()).sum::<usize>(),
        all.iter().map(|r| r.base_blocks.len()).sum::<usize>(),
    );
    println!(
        "noise sentinel: reference-block spread {:.1}%, per-round base spread {:.1}% -> {}",
        block_spread * 1e2,
        round_spread * 1e2,
        if is_noisy(&all) {
            format!(
                "noisy (over {:.0}%): the ratios' base was not stable",
                NOISY_SPREAD * 1e2
            )
        } else {
            "steady".into()
        }
    );
    println!(
        "simulated metrics identical in {identical} of {} rounds{}",
        rounds.len(),
        if identical == rounds.len() {
            ""
        } else if w.lazy.is_some() {
            " (known: on the lazy path thread order leaks into the simulated clock)"
        } else {
            " (unexpected on an eager path)"
        }
    );
    for e in &errors {
        println!("error: {e}");
    }
    for (i, r) in rounds.iter().enumerate() {
        println!("{}", report::round_line(i, r));
    }

    let values = if args.trace {
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        if traced.is_empty() {
            println!("error: no traced round completed");
            println!(
                "{}",
                report::result_line(false, attempted, failed.max(1), &[])
            );
            return ExitCode::SUCCESS;
        }
        let tree = tracing.tracer.validate();
        if let Err(e) = &tree {
            println!("error: span tree invalid: {e}");
            failed += 1;
        }
        for e in &tracing.shadow.samples.errors {
            println!("error: probe: {e}");
        }
        failed += tracing.shadow.samples.errors.len() as u64;
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = out_dir.join(format!("{}.trace.jsonl", w.name));
        match std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, tracing.tracer.to_jsonl()))
        {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                tracing.tracer.spans.len(),
                path.display()
            ),
            Err(e) => println!("trace: not written ({e})"),
        }
        per_layer(
            &untraced,
            &traced,
            &TraceSummary {
                probes: &tracing.shadow.samples,
                spans: tracing.tracer.spans.len(),
                tree_valid: tree.is_ok(),
                cpu_sys_frac: cpu_sys_frac(),
                bytes_per_row: w.scheme().bytes_per_row(EMBEDDING_DIM) as f64,
            },
        )
    } else {
        end_to_end(&all, peak_rss_mb())
    };
    print!("{}", report::table(&values));
    if let Some((_, slowdown)) = values.iter().find(|(n, _)| *n == "ckpt_slowdown") {
        println!(
            "  {:<38} {:>18.6} ratio (ckpt_slowdown - 1)",
            "ckpt_overhead_frac",
            slowdown - 1.0
        );
        print!("{}", report::unregistered(&all));
    }

    // For --repeat-check: every simulated metric and counter, bit for bit.
    println!("#sim {}", rounds[0].sim.fingerprint());

    let correct = failed == 0 && errors.is_empty() && values.iter().all(|(_, v)| v.is_finite());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &values)
    );
    ExitCode::SUCCESS
}

/// One child run's parsed output.
struct ChildRun {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
}

fn run_child(w: &Workload, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{}: exit {:?}\n{stdout}",
            w.name,
            out.status.code()
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let parsed =
        parse_result_line(last).ok_or_else(|| format!("{}: unreadable result line", w.name))?;
    let exact = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#sim "))
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ChildRun {
        correct: parsed.correct,
        failed: parsed.failed,
        metrics: parsed.metrics.into_iter().collect(),
        exact,
    })
}

/// Runs two full sets, each workload in its own child process, and
/// checks that they agree: every end-to-end metric within its same-seed
/// bound, and every simulated and count metric bit-identical on the eager
/// paths.
fn repeat_check(args: &Args) -> ExitCode {
    let mut sets: Vec<Vec<ChildRun>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for w in &WORKLOADS {
            eprintln!("set {} of 2: {}", set + 1, w.name);
            match run_child(w, args) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    println!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(runs);
    }
    let mut disagreements = 0u32;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        println!("== {} (seed {})", w.name, args.seed);
        if !(a.correct && b.correct) || a.failed + b.failed > 0 {
            println!(
                "  DISAGREE: a run was incorrect (ops_failed {} and {})",
                a.failed, b.failed
            );
            disagreements += 1;
        }
        for d in END_TO_END {
            let bound = report::same_seed_bound(d);
            let (Some(&x), Some(&y)) = (a.metrics.get(d.name), b.metrics.get(d.name)) else {
                println!("  DISAGREE: {} missing from a run", d.name);
                disagreements += 1;
                continue;
            };
            let diff = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let ok = diff <= bound;
            println!(
                "  {:<26} {x:>16.6} {y:>16.6} {:<10} diff {:>7.3}% bound {:>4.1}% {}",
                d.name,
                d.unit,
                diff * 1e2,
                bound * 1e2,
                if ok { "ok" } else { "DISAGREE" }
            );
            disagreements += u32::from(!ok);
        }
        let (same, differ): (Vec<&String>, Vec<&String>) = a
            .exact
            .keys()
            .partition(|k| a.exact.get(*k) == b.exact.get(*k));
        println!(
            "  bit-identical ({}): {}",
            same.len(),
            same.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        );
        if !differ.is_empty() {
            let names = differ
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            if w.lazy.is_some() {
                println!(
                    "  differ ({}): {names}\n  known: on the lazy path thread order (or wall-clock) leaks into the \
                     simulated clock; reported, not hidden behind a wide bound",
                    differ.len()
                );
            } else {
                println!("  DISAGREE: not bit-identical on an eager path: {names}");
                disagreements += 1;
            }
        }
    }
    if disagreements == 0 {
        println!("repeat-check: the two sets agree");
        ExitCode::SUCCESS
    } else {
        println!("repeat-check: {disagreements} disagreement(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat_check {
        return repeat_check(&args);
    }
    match args.workload.as_deref().map(by_name) {
        Some(Some(w)) => run_workload(w, &args),
        Some(None) => {
            eprintln!("unknown workload\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
