//! Fleet-level failure recovery: why checkpoint frequency matters (§3.1)
//! and what Check-N-Run's bandwidth savings buy.
//!
//! Simulates a month of a training fleet under the paper-calibrated failure
//! distribution, sweeping the checkpoint interval. Shorter intervals waste
//! less re-training time — but are only affordable if each checkpoint is
//! cheap, which is exactly what incremental+quantized checkpoints provide.
//!
//! The fleet scheduler and the wasted-work accounting are figure code from
//! `cnr_bench`; the restore, WAL and lazy-restore parts run the engine.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use check_n_run::prelude::*;
use cnr_bench::job::TrainingJob;
use cnr_bench::recovery::{account, expected_waste_per_failure};
use cnr_bench::scheduler::{ClusterFleet, Scheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const HOUR: Duration = Duration::from_secs(3600);
const MIN: Duration = Duration::from_secs(60);

fn main() {
    let model = FailureModel::paper_calibrated();

    // Part 1: per-job accounting. One 72-hour training job, failures drawn
    // from the calibrated distribution, intervals from 5 minutes to 4 hours.
    println!("# per-job recovery accounting (72h job, paper-calibrated failures)");
    println!("interval_min,failures,wasted_hours,restore_hours,overhead_pct");
    let mut rng = StdRng::seed_from_u64(17);
    let offsets: Vec<Duration> = (0..64)
        .map(|_| model.sample(&mut rng).unwrap().time_to_failure)
        .collect();
    for interval in [5 * MIN, 15 * MIN, 30 * MIN, 2 * HOUR, 4 * HOUR] {
        let acc = account(72 * HOUR, &offsets, interval, 5 * MIN);
        println!(
            "{},{},{:.2},{:.2},{:.2}",
            interval.as_secs() / 60,
            acc.failures,
            acc.wasted_work.as_secs_f64() / 3600.0,
            acc.restore_time.as_secs_f64() / 3600.0,
            acc.overhead_fraction() * 100.0
        );
    }
    println!(
        "# expected waste/failure at 30min interval: {} min (interval/2)",
        expected_waste_per_failure(30 * MIN).as_secs() / 60
    );
    println!();

    // Part 2: fleet simulation. The paper's fleet shape (21 clusters x 16
    // nodes), a mixed batch of jobs, one simulated week.
    println!("# fleet simulation: 21 clusters x 16 nodes, one week");
    let mut scheduler = Scheduler::new(ClusterFleet::paper_fleet(), model.clone(), 99)
        .with_checkpoint_interval(Some(30 * MIN));
    let jobs: Vec<TrainingJob> = (0..48)
        .map(|i| {
            TrainingJob::new(
                i,
                if i % 4 == 0 { 16 } else { 8 },
                Duration::from_secs(3600 * (12 + (i % 5) * 12)),
                Duration::from_secs(1800 * i),
            )
        })
        .collect();
    let outcomes = scheduler.run(&jobs, Duration::from_secs(7 * 24 * 3600));

    let completed = outcomes.iter().filter(|o| o.completed_at.is_some()).count();
    let failures: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    let wasted: Duration = outcomes.iter().map(|o| o.wasted_work).sum();
    let useful: Duration = outcomes.iter().map(|o| o.work_done).sum();
    println!("jobs completed: {completed}/{}", outcomes.len());
    println!("total failures: {failures}");
    println!(
        "useful work: {:.0} node-hours, wasted re-training: {:.1} node-hours ({:.2}%)",
        useful.as_secs_f64() / 3600.0,
        wasted.as_secs_f64() / 3600.0,
        100.0 * wasted.as_secs_f64() / (useful + wasted).as_secs_f64().max(1e-9)
    );

    // Part 3: the same fleet without checkpointing — the paper's motivation
    // that long jobs "may never complete their task".
    let mut no_ckpt = Scheduler::new(ClusterFleet::paper_fleet(), model, 99)
        .with_checkpoint_interval(None);
    let outcomes2 = no_ckpt.run(&jobs, Duration::from_secs(7 * 24 * 3600));
    let completed2 = outcomes2.iter().filter(|o| o.completed_at.is_some()).count();
    let wasted2: Duration = outcomes2.iter().map(|o| o.wasted_work).sum();
    println!(
        "without checkpoints: {completed2}/{} jobs completed, {:.0} node-hours wasted",
        outcomes2.len(),
        wasted2.as_secs_f64() / 3600.0
    );
    println!();

    // Part 4: recovery-latency quickstart — the sharded restore pipeline.
    // One job, a constrained remote, and the same failure restored over
    // 1 vs 8 reader hosts: the fetch/decode/merge stages shrink
    // near-linearly with hosts because each fetches its share of the
    // checkpoint chain over its own downlink. drain_wait is the time the
    // failure spent waiting for the in-flight upload backlog to settle
    // (§4.4: the checkpoint is only valid once durable) and does not
    // scale with reader hosts.
    println!("# recovery latency: sharded restore, 1 vs 8 reader hosts");
    println!("reader_hosts,drain_wait_ms,fetch_ms,decode_ms,merge_ms,time_to_resume_ms");
    for hosts in [1usize, 8] {
        let spec = DatasetSpec::tiny(99);
        let model_cfg = ModelConfig::for_dataset(&spec, 16);
        let mut engine = EngineBuilder::new(spec, model_cfg)
            .checkpoint_every_batches(50)
            .cluster_shape(1, 2)
            .checkpoint_config(CheckpointConfig {
                interval_batches: 50,
                chunk_rows: 64,
                ..CheckpointConfig::default()
            })
            .writer_hosts(hosts)
            .reader_hosts(hosts)
            .remote_config(RemoteConfig {
                bandwidth_bytes_per_sec: 512.0 * 1024.0, // constrained uplinks
                base_latency: Duration::from_micros(200),
                replication: 1,
                channels: hosts as u32,
            })
            .build()
            .expect("engine construction");
        engine.train_batches(50).expect("training");
        engine.simulate_failure_and_restore().expect("restore");
        let resume = &engine.stats().resumes[0];
        println!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.2}",
            resume.reader_hosts,
            resume.drain_wait.as_secs_f64() * 1000.0,
            resume.fetch.as_secs_f64() * 1000.0,
            resume.decode.as_secs_f64() * 1000.0,
            resume.merge.as_secs_f64() * 1000.0,
            resume.time_to_resume().as_secs_f64() * 1000.0,
        );
    }
    println!();

    // Part 5: the per-iteration delta WAL. Same job, same failure point —
    // without the WAL a crash rolls back to the last interval checkpoint
    // and re-trains the whole tail; with it, restore replays the logged
    // per-iteration deltas and the loss collapses to at most the one
    // unsynced iteration.
    println!("# delta WAL: lost work at the same failure point, with and without");
    println!("wal,restore_point,replayed_iterations,lost_iterations,resume_iteration");
    for wal in [false, true] {
        let spec = DatasetSpec::tiny(99);
        let model_cfg = ModelConfig::for_dataset(&spec, 16);
        let mut b = EngineBuilder::new(spec, model_cfg)
            .checkpoint_every_batches(50)
            .cluster_shape(1, 2);
        if wal {
            b = b.delta_wal(DeltaWalConfig);
        }
        let mut engine = b.build().expect("engine construction");
        // Checkpoint at 50, then 20 more iterations that only the WAL has.
        engine.train_batches(70).expect("training");
        engine.simulate_failure_and_restore().expect("restore");
        let resume = engine.stats().resumes.last().expect("resume");
        println!(
            "{},{:?},{},{},{}",
            wal,
            resume.restore_point,
            resume.wal_replayed_iterations,
            resume.lost_iterations,
            engine.trainer().model().iteration(),
        );
    }
    println!();

    // Part 6: lazy (CPR-style) restore — train before the restore
    // finishes. Same failure, two restore modes over a slow downlink:
    // eager waits for every embedding row; lazy resumes once the dense
    // layers plus the hottest 5% of rows are applied, faults cold rows
    // the next batches touch in on demand, and drains the rest in the
    // background — converging to the identical model.
    println!("# lazy restore: first-batch vs full-resume latency");
    println!("mode,first_batch_ms,full_resume_ms,pending_rows_at_first_batch,fault_in_fetches");
    for lazy in [false, true] {
        let spec = DatasetSpec::tiny(99);
        let model_cfg = ModelConfig::for_dataset(&spec, 16);
        let mut b = EngineBuilder::new(spec, model_cfg)
            .checkpoint_every_batches(5)
            .cluster_shape(1, 2)
            .writer_hosts(4)
            .reader_hosts(2)
            .remote_config(RemoteConfig {
                bandwidth_bytes_per_sec: 64.0 * 1024.0,
                base_latency: Duration::from_micros(100),
                replication: 1,
                channels: 2,
            });
        if lazy {
            b = b.lazy_restore(0.05); // dense + hottest 5% before first batch
        }
        let mut engine = b.build().expect("engine construction");
        // Fail 3 batches past the checkpoint at 10, so the tracker's
        // recent working set leaves a genuine cold tail to defer.
        engine.train_batches(13).expect("training");
        engine.simulate_failure_and_restore().expect("restore");
        let pending = engine.pending_lazy().map_or(0, |l| l.pending_rows());
        // Train through the drain window (cold rows fault in on demand),
        // then finish the background drain.
        engine.train_batches(3).expect("training past restore");
        engine.drain_lazy_restore().expect("drain");
        let resume = engine.stats().resumes.last().expect("resume");
        println!(
            "{},{:.2},{:.2},{},{}",
            if lazy { "lazy" } else { "eager" },
            resume.time_to_first_batch.as_secs_f64() * 1000.0,
            resume.time_to_resume().as_secs_f64() * 1000.0,
            pending,
            resume.fault_in_fetches,
        );
    }
}
