//! Model-parallel placement of embedding tables across devices.
//!
//! The paper's training clusters have 16 nodes × 8 GPUs (§2.2); embedding
//! tables are partitioned across GPUs (model parallelism) while MLPs are
//! replicated (data parallelism). Check-N-Run's snapshot step is distributed:
//! *each* device copies its local shard to host memory concurrently, which is
//! why snapshot stall time does not grow with node count (§4.2). The shard
//! plan lets the snapshot simulator account per-device bytes.

use crate::config::ModelConfig;

/// Identity of one accelerator in the training cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId {
    /// Node index within the cluster.
    pub node: u32,
    /// GPU index within the node.
    pub gpu: u32,
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}/gpu{}", self.node, self.gpu)
    }
}

/// Assignment of every table (by index) to a device, plus the roster.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Device that owns each table, index-aligned with the model's tables.
    pub table_owner: Vec<DeviceId>,
    /// All devices in the cluster (MLPs are replicated on each).
    pub devices: Vec<DeviceId>,
}

impl ShardPlan {
    /// Greedy balanced placement: tables sorted by size descending, each
    /// assigned to the least-loaded device (classic LPT heuristic).
    pub fn balanced(config: &ModelConfig, nodes: u32, gpus_per_node: u32) -> Self {
        assert!(nodes >= 1 && gpus_per_node >= 1, "need at least one device");
        let devices: Vec<DeviceId> = (0..nodes)
            .flat_map(|n| (0..gpus_per_node).map(move |g| DeviceId { node: n, gpu: g }))
            .collect();

        let mut order: Vec<usize> = (0..config.tables.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(config.tables[i].rows * config.tables[i].dim as u64));

        let mut load = vec![0u64; devices.len()];
        let mut owner = vec![DeviceId { node: 0, gpu: 0 }; config.tables.len()];
        for i in order {
            let bytes = config.tables[i].rows * config.tables[i].dim as u64 * 4;
            let (dev_idx, _) = load
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| **l)
                .expect("at least one device");
            owner[i] = devices[dev_idx];
            load[dev_idx] += bytes;
        }
        Self {
            table_owner: owner,
            devices,
        }
    }

    /// Tables owned by `device`.
    pub fn tables_of(&self, device: DeviceId) -> Vec<usize> {
        self.table_owner
            .iter()
            .enumerate()
            .filter_map(|(t, &d)| (d == device).then_some(t))
            .collect()
    }

    /// Embedding bytes resident on `device`.
    pub fn bytes_of(&self, config: &ModelConfig, device: DeviceId) -> u64 {
        self.tables_of(device)
            .into_iter()
            .map(|t| config.tables[t].rows * config.tables[t].dim as u64 * 4)
            .sum()
    }

    /// Largest per-device embedding footprint — the quantity that bounds
    /// snapshot stall time, since devices snapshot concurrently (§4.2).
    pub fn max_device_bytes(&self, config: &ModelConfig) -> u64 {
        self.devices
            .iter()
            .map(|&d| self.bytes_of(config, d))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptimizerConfig, TableSpec};

    fn config_with(rows: &[u64]) -> ModelConfig {
        ModelConfig {
            tables: rows.iter().map(|&r| TableSpec { rows: r, dim: 4 }).collect(),
            dense_dim: 2,
            bottom_hidden: vec![4],
            top_hidden: vec![4],
            seed: 1,
            optimizer: OptimizerConfig::Sgd { lr: 0.1 },
        }
    }

    #[test]
    fn every_table_gets_an_owner() {
        let cfg = config_with(&[100, 200, 300, 50]);
        let plan = ShardPlan::balanced(&cfg, 2, 2);
        assert_eq!(plan.table_owner.len(), 4);
        assert_eq!(plan.devices.len(), 4);
        let total: usize = plan
            .devices
            .iter()
            .map(|&d| plan.tables_of(d).len())
            .sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn balanced_placement_spreads_load() {
        // 4 equal tables on 4 devices: one each.
        let cfg = config_with(&[100, 100, 100, 100]);
        let plan = ShardPlan::balanced(&cfg, 2, 2);
        for &d in &plan.devices {
            assert_eq!(plan.tables_of(d).len(), 1);
        }
        assert_eq!(plan.max_device_bytes(&cfg), 100 * 4 * 4);
    }

    #[test]
    fn lpt_beats_naive_on_skewed_tables() {
        // One huge table + three small: max device load should be the huge
        // table alone.
        let cfg = config_with(&[1000, 10, 10, 10]);
        let plan = ShardPlan::balanced(&cfg, 1, 2);
        let max = plan.max_device_bytes(&cfg);
        assert_eq!(max, 1000 * 4 * 4, "huge table should sit alone");
    }

    #[test]
    fn single_device_owns_everything() {
        let cfg = config_with(&[10, 20]);
        let plan = ShardPlan::balanced(&cfg, 1, 1);
        assert_eq!(plan.tables_of(DeviceId { node: 0, gpu: 0 }).len(), 2);
    }

    #[test]
    fn device_display() {
        assert_eq!(DeviceId { node: 3, gpu: 7 }.to_string(), "node3/gpu7");
    }
}
