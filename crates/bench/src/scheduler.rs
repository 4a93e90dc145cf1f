//! A Bistro-like fleet scheduler (§2.2 of the paper).
//!
//! Jobs queue by priority (then FIFO), clusters have bounded node capacity,
//! and a discrete-event loop advances between job start / failure / finish
//! events. Failures are sampled from a [`FailureModel`]; a failed job loses
//! the work since its last checkpoint and re-queues, which is exactly the
//! wasted-work mechanism that motivates frequent checkpointing (§3.1).

use crate::job::{JobId, TrainingJob};
use cnr_cluster::FailureModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::time::Duration;

/// Capacity description of the training fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFleet {
    /// Number of clusters (the paper observes 21).
    pub clusters: usize,
    /// Nodes per cluster (the paper's clusters have 16).
    pub nodes_per_cluster: usize,
}

impl ClusterFleet {
    /// The fleet from §3.1: 21 clusters of 16 nodes.
    pub fn paper_fleet() -> Self {
        Self {
            clusters: 21,
            nodes_per_cluster: 16,
        }
    }

    /// Total node capacity.
    pub fn total_nodes(&self) -> usize {
        self.clusters * self.nodes_per_cluster
    }
}

/// What happened to a job by the end of the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's identity.
    pub id: JobId,
    /// Wall-clock completion time, if it completed.
    pub completed_at: Option<Duration>,
    /// Times at which the job failed (absolute simulation time).
    pub failures: Vec<Duration>,
    /// Execution time completed before each failure (the Figure 3 metric:
    /// per-failure time-to-failure, counted from the last (re)start).
    pub run_before_failure: Vec<Duration>,
    /// Total productive work completed.
    pub work_done: Duration,
    /// Total work re-executed due to failures (lost progress).
    pub wasted_work: Duration,
}

/// Discrete-event fleet scheduler.
#[derive(Debug)]
pub struct Scheduler {
    fleet: ClusterFleet,
    failure_model: FailureModel,
    /// Fraction of work preserved at failure: progress is rounded down to
    /// the last multiple of `checkpoint_interval`. `None` disables
    /// checkpointing entirely (all progress lost on failure).
    checkpoint_interval: Option<Duration>,
    rng: StdRng,
}

#[derive(Debug, PartialEq, Eq)]
enum Event {
    /// A running job ends (fails or completes) at this time, having run for
    /// `ran_micros` since its (re)start.
    JobEnds {
        at_micros: u64,
        job: JobId,
        fails: bool,
        ran_micros: u64,
    },
}

impl Event {
    fn time(&self) -> u64 {
        match self {
            Event::JobEnds { at_micros, .. } => *at_micros,
        }
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time().cmp(&other.time())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Scheduler {
    /// Creates a scheduler over `fleet` with the given failure model.
    pub fn new(fleet: ClusterFleet, failure_model: FailureModel, seed: u64) -> Self {
        Self {
            fleet,
            failure_model,
            checkpoint_interval: Some(Duration::from_secs(30 * 60)),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sets the checkpoint interval used for progress preservation
    /// (`None` = no checkpoints; failures restart jobs from scratch).
    pub fn with_checkpoint_interval(mut self, interval: Option<Duration>) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Runs `jobs` to completion (or until `horizon`) and reports outcomes.
    ///
    /// Jobs are started in priority-then-submission order whenever nodes are
    /// free. Each (re)start samples a fresh time-to-failure; if it exceeds
    /// the job's remaining work the job completes, otherwise it fails, loses
    /// progress back to its last checkpoint, and re-queues.
    pub fn run(&mut self, jobs: &[TrainingJob], horizon: Duration) -> Vec<JobOutcome> {
        let mut outcomes: HashMap<JobId, JobOutcome> = jobs
            .iter()
            .map(|j| {
                (
                    j.id,
                    JobOutcome {
                        id: j.id,
                        completed_at: None,
                        failures: Vec::new(),
                        run_before_failure: Vec::new(),
                        work_done: Duration::ZERO,
                        wasted_work: Duration::ZERO,
                    },
                )
            })
            .collect();
        let spec: HashMap<JobId, &TrainingJob> = jobs.iter().map(|j| (j.id, j)).collect();
        let mut remaining: HashMap<JobId, Duration> =
            jobs.iter().map(|j| (j.id, j.work)).collect();

        // Ready queue ordered by (priority desc, submitted_at asc, id asc).
        let mut ready: Vec<JobId> = Vec::new();
        let mut pending: Vec<&TrainingJob> = jobs.iter().collect();
        pending.sort_by_key(|j| j.submitted_at);

        let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut free_nodes = self.fleet.total_nodes();
        let mut now_micros = 0u64;
        let horizon_micros = horizon.as_micros().min(u128::from(u64::MAX)) as u64;

        loop {
            // Admit newly submitted jobs.
            while let Some(j) = pending.first() {
                if j.submitted_at.as_micros() as u64 <= now_micros {
                    ready.push(j.id);
                    pending.remove(0);
                } else {
                    break;
                }
            }
            // Sort ready queue: priority desc, then id for determinism.
            ready.sort_by(|a, b| {
                let ja = spec[a];
                let jb = spec[b];
                jb.priority
                    .cmp(&ja.priority)
                    .then(ja.submitted_at.cmp(&jb.submitted_at))
                    .then(ja.id.cmp(&jb.id))
            });

            // Start as many ready jobs as capacity allows.
            let mut i = 0;
            while i < ready.len() {
                let id = ready[i];
                let nodes = spec[&id].nodes;
                if nodes <= free_nodes {
                    ready.remove(i);
                    free_nodes -= nodes;
                    let work_left = remaining[&id];
                    let ttf = self.failure_model.sample(&mut self.rng);
                    let (ends_in, fails) = match ttf {
                        Some(s) if s.time_to_failure < work_left => (s.time_to_failure, true),
                        _ => (work_left, false),
                    };
                    events.push(Reverse(Event::JobEnds {
                        at_micros: now_micros + ends_in.as_micros() as u64,
                        job: id,
                        fails,
                        ran_micros: ends_in.as_micros() as u64,
                    }));
                } else {
                    i += 1;
                }
            }

            // Advance to the next event (or next submission if idle).
            let next_event_time = events.peek().map(|Reverse(e)| e.time());
            let next_submit_time = pending
                .first()
                .map(|j| j.submitted_at.as_micros() as u64);
            let next = match (next_event_time, next_submit_time) {
                (None, None) => break, // fully drained
                (a, b) => a.into_iter().chain(b).min().unwrap(),
            };
            if next > horizon_micros {
                break;
            }
            now_micros = next;

            // Process all events at `now`.
            while let Some(Reverse(e)) = events.peek() {
                if e.time() > now_micros {
                    break;
                }
                let Reverse(Event::JobEnds {
                    job,
                    fails,
                    ran_micros,
                    ..
                }) = events.pop().unwrap();
                let nodes = spec[&job].nodes;
                free_nodes += nodes;
                let out = outcomes.get_mut(&job).expect("job outcome exists");
                let work_left = remaining[&job];
                if fails {
                    // The job ran for `ttf` (< work_left) since its restart.
                    let ran = Duration::from_micros(ran_micros);
                    out.failures.push(Duration::from_micros(now_micros));
                    out.run_before_failure.push(ran);
                    // Progress preserved = floor(ran / ckpt) * ckpt.
                    let preserved = match self.checkpoint_interval {
                        Some(ivl) if !ivl.is_zero() => {
                            let k = ran.as_micros() / ivl.as_micros();
                            Duration::from_micros((k * ivl.as_micros()) as u64)
                        }
                        _ => Duration::ZERO,
                    };
                    let wasted = ran - preserved;
                    out.wasted_work += wasted;
                    out.work_done += preserved;
                    *remaining.get_mut(&job).unwrap() = work_left - preserved;
                    ready.push(job);
                } else {
                    out.work_done += work_left;
                    out.completed_at = Some(Duration::from_micros(now_micros));
                    *remaining.get_mut(&job).unwrap() = Duration::ZERO;
                }
            }
        }

        let mut result: Vec<JobOutcome> = outcomes.into_values().collect();
        result.sort_by_key(|o| o.id);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPriority;

    fn fleet() -> ClusterFleet {
        ClusterFleet {
            clusters: 2,
            nodes_per_cluster: 4,
        }
    }

    #[test]
    fn jobs_complete_without_failures() {
        let mut s = Scheduler::new(fleet(), FailureModel::None, 1);
        let jobs = vec![
            TrainingJob::new(1, 4, Duration::from_secs(100), Duration::ZERO),
            TrainingJob::new(2, 4, Duration::from_secs(200), Duration::ZERO),
        ];
        let out = s.run(&jobs, Duration::from_secs(10_000));
        assert!(out.iter().all(|o| o.completed_at.is_some()));
        assert!(out.iter().all(|o| o.failures.is_empty()));
        assert_eq!(out[0].work_done, Duration::from_secs(100));
    }

    #[test]
    fn capacity_serializes_oversized_jobs() {
        // Two 8-node jobs on an 8-node fleet must run one after the other.
        let mut s = Scheduler::new(fleet(), FailureModel::None, 1);
        let jobs = vec![
            TrainingJob::new(1, 8, Duration::from_secs(100), Duration::ZERO),
            TrainingJob::new(2, 8, Duration::from_secs(100), Duration::ZERO),
        ];
        let out = s.run(&jobs, Duration::from_secs(10_000));
        let t1 = out[0].completed_at.unwrap();
        let t2 = out[1].completed_at.unwrap();
        assert_eq!(t1.max(t2), Duration::from_secs(200));
    }

    #[test]
    fn priority_preempts_queue_order() {
        let mut s = Scheduler::new(fleet(), FailureModel::None, 1);
        let mut low = TrainingJob::new(1, 8, Duration::from_secs(100), Duration::ZERO);
        low.priority = JobPriority::Low;
        let mut high = TrainingJob::new(2, 8, Duration::from_secs(100), Duration::ZERO);
        high.priority = JobPriority::High;
        let out = s.run(&[low, high], Duration::from_secs(10_000));
        // High-priority job 2 completes first even though job 1 sorts earlier.
        assert!(out[1].completed_at.unwrap() < out[0].completed_at.unwrap());
    }

    #[test]
    fn failures_cause_wasted_work_and_requeue() {
        let mut s = Scheduler::new(
            fleet(),
            FailureModel::Exponential {
                mtbf: Duration::from_secs(120),
            },
            7,
        )
        .with_checkpoint_interval(Some(Duration::from_secs(30)));
        let jobs = vec![TrainingJob::new(
            1,
            4,
            Duration::from_secs(600),
            Duration::ZERO,
        )];
        let out = s.run(&jobs, Duration::from_secs(1_000_000));
        assert!(out[0].completed_at.is_some(), "job should finish eventually");
        assert!(!out[0].failures.is_empty(), "2-minute MTBF must fail a 10-minute job");
        assert!(out[0].wasted_work > Duration::ZERO);
        // Wasted work per failure is bounded by the checkpoint interval.
        assert!(
            out[0].wasted_work <= Duration::from_secs(30) * out[0].failures.len() as u32,
            "wasted work exceeds one interval per failure"
        );
    }

    #[test]
    fn no_checkpointing_loses_all_progress() {
        let mut s = Scheduler::new(
            fleet(),
            FailureModel::Exponential {
                mtbf: Duration::from_secs(500),
            },
            11,
        )
        .with_checkpoint_interval(None);
        let jobs = vec![TrainingJob::new(
            1,
            4,
            Duration::from_secs(300),
            Duration::ZERO,
        )];
        let out = s.run(&jobs, Duration::from_secs(1_000_000));
        if let Some(_done) = out[0].completed_at {
            // When it eventually completed, every failed attempt was fully wasted.
            let total_failed_time: Duration = out[0].run_before_failure.iter().sum();
            assert_eq!(out[0].wasted_work, total_failed_time);
        }
    }

    #[test]
    fn horizon_stops_simulation() {
        let mut s = Scheduler::new(fleet(), FailureModel::None, 1);
        let jobs = vec![TrainingJob::new(
            1,
            4,
            Duration::from_secs(1000),
            Duration::ZERO,
        )];
        let out = s.run(&jobs, Duration::from_secs(10));
        assert!(out[0].completed_at.is_none());
    }

    #[test]
    fn ttf_distribution_matches_model_in_fleet_run() {
        // Collect run-before-failure samples across many jobs and check the
        // median is near the model's (exponential: median = mtbf*ln2).
        let mtbf = Duration::from_secs(3600);
        let mut s = Scheduler::new(
            ClusterFleet {
                clusters: 4,
                nodes_per_cluster: 16,
            },
            FailureModel::Exponential { mtbf },
            3,
        );
        let jobs: Vec<TrainingJob> = (0..64)
            .map(|i| TrainingJob::new(i, 1, Duration::from_secs(86_400), Duration::ZERO))
            .collect();
        let out = s.run(&jobs, Duration::from_secs(40 * 86_400));
        let mut ttfs: Vec<f64> = out
            .iter()
            .flat_map(|o| o.run_before_failure.iter().map(|d| d.as_secs_f64()))
            .collect();
        assert!(ttfs.len() > 100);
        ttfs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ttfs[ttfs.len() / 2];
        let expected = 3600.0 * std::f64::consts::LN_2;
        assert!(
            (median - expected).abs() / expected < 0.25,
            "median ttf {median} vs expected {expected}"
        );
    }
}
