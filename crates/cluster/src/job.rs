//! Training job descriptors.

use std::time::Duration;

/// Unique identifier of a training job within a fleet simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority; higher runs first (Bistro/PBS-style, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPriority {
    /// Best-effort experimentation jobs.
    Low,
    /// Default production training.
    Normal,
    /// Business-critical retraining.
    High,
}

/// A training job submitted to the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingJob {
    /// Job identity.
    pub id: JobId,
    /// Scheduling priority.
    pub priority: JobPriority,
    /// Number of nodes the job occupies while running.
    pub nodes: usize,
    /// Writer hosts participating in each checkpoint upload: every host
    /// owns a row-range of every embedding table and writes its own shard
    /// in parallel (§4.4). Defaults to `nodes` — in the production layout
    /// each trainer node uploads the shard it holds.
    pub writer_hosts: usize,
    /// Reader hosts participating in each restore: on recovery every host
    /// fetches and decodes a share of the checkpoint chain over its own
    /// downlink, so time-to-resume shrinks with this count. Defaults to
    /// `nodes` — the restarted trainer nodes double as restore readers.
    pub reader_hosts: usize,
    /// Training time needed to complete (excluding failure rework).
    pub work: Duration,
    /// Submission time relative to the simulation epoch.
    pub submitted_at: Duration,
}

impl TrainingJob {
    /// Convenience constructor with normal priority; every node doubles as
    /// a writer host.
    pub fn new(id: u64, nodes: usize, work: Duration, submitted_at: Duration) -> Self {
        Self {
            id: JobId(id),
            priority: JobPriority::Normal,
            nodes,
            writer_hosts: nodes,
            reader_hosts: nodes,
            work,
            submitted_at,
        }
    }

    /// Overrides the writer-host count (e.g. dedicated checkpoint uploaders
    /// instead of one writer per trainer node).
    pub fn with_writer_hosts(mut self, writer_hosts: usize) -> Self {
        assert!(writer_hosts >= 1, "need at least one writer host");
        self.writer_hosts = writer_hosts;
        self
    }

    /// Overrides the reader-host count used by sharded restores (e.g. a
    /// recovery tier narrower than the training fleet).
    pub fn with_reader_hosts(mut self, reader_hosts: usize) -> Self {
        assert!(reader_hosts >= 1, "need at least one reader host");
        self.reader_hosts = reader_hosts;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_correctly() {
        assert!(JobPriority::High > JobPriority::Normal);
        assert!(JobPriority::Normal > JobPriority::Low);
    }

    #[test]
    fn display_formats_id() {
        assert_eq!(JobId(7).to_string(), "job-7");
    }

    #[test]
    fn writer_hosts_default_to_nodes() {
        let job = TrainingJob::new(1, 16, Duration::from_secs(60), Duration::ZERO);
        assert_eq!(job.writer_hosts, 16);
        let job = job.with_writer_hosts(4);
        assert_eq!(job.writer_hosts, 4);
        assert_eq!(job.nodes, 16);
    }

    #[test]
    fn reader_hosts_default_to_nodes() {
        let job = TrainingJob::new(2, 8, Duration::from_secs(60), Duration::ZERO);
        assert_eq!(job.reader_hosts, 8);
        let job = job.with_reader_hosts(2);
        assert_eq!(job.reader_hosts, 2);
        assert_eq!(job.writer_hosts, 8, "writer side untouched");
    }
}
