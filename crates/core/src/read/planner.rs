//! Fetch planning: assigning a restore chain's chunks to reader hosts.
//!
//! The restore-side mirror of [`crate::write::chunker`]. Where the write
//! path shards *rows* (it owns the data), the read path shards *objects*:
//! the manifests already describe every chunk (`ChunkMeta`), including how
//! many multipart parts it was uploaded in — which is exactly the ranged
//! fetch plan, since part boundaries are where a download can be split
//! without re-framing. Planning is pure: the assignment depends only on the
//! chain and the host count, never on execution timing, so a sharded
//! restore is deterministic.
//!
//! **Priority mode** ([`plan_priority`]) additionally orders each host's
//! fetch list by access heat: chunks covering the hottest embedding rows
//! (ranked by a [`RowHeat`] model built from the `cnr_workload` Zipf prior
//! and `cnr_tracking` coverage) are admitted first, so a lazy
//! restore can resume training once the dense layers — which ride the
//! manifests, fetched before any chunk — plus the top-K hot rows have
//! landed, while the cold tail keeps draining in the background (CPR-style
//! partial recovery).

use crate::manifest::{ChunkMeta, Manifest};
use cnr_tracking::CoverageAnalyzer;
use cnr_workload::ZipfSampler;

/// One chunk download owed to a reader host.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchItem {
    /// Position of the owning manifest in the restore chain (0 = the full
    /// baseline).
    pub level: usize,
    /// The chunk's place in the serial application order — 1-based
    /// position when every chunk of the chain is sorted by `(level, key)`,
    /// which is the order [`crate::restore::restore`] writes them in. Fixed
    /// by the manifests before anything is fetched; a row keeps the value
    /// of the highest-ranked chunk that names it, whatever order chunks
    /// arrive in (0 is reserved for "no chunk").
    pub rank: u32,
    /// Object key of the chunk.
    pub key: String,
    /// Writer shard that produced the chunk (diagnostics only; reader
    /// assignment is independent of writer sharding).
    pub shard: u16,
    /// Serialized chunk size in bytes (from the manifest — the fetcher
    /// never needs a `head` round trip).
    pub bytes: u64,
    /// Ranged reads to issue for the chunk: the multipart part count the
    /// chunk was uploaded in (`ChunkMeta.parts`), so download granularity
    /// mirrors upload granularity.
    pub parts: u32,
    /// Embedding rows in the chunk.
    pub rows: u32,
    /// Whether the chunk must be applied before training resumes. The
    /// byte-balancing [`plan`] marks everything hot (all-or-nothing
    /// restore); [`plan_priority`] marks only chunks covering top-K rows,
    /// and a lazy restore stamps first-batch time when the last hot chunk
    /// arrives.
    pub hot: bool,
}

/// Per-row access-heat scores used to order priority fetch plans.
///
/// Scores are relative: only the ordering (and the top-`hot_fraction`
/// cutoff) matters, not the absolute values. Build one from the workload's
/// Zipf skew ([`RowHeat::zipf`]) and boost it with the tracker's coverage
/// window ([`RowHeat::boost_covered`]); the two sources compose additively.
#[derive(Debug, Clone)]
pub struct RowHeat {
    /// Per-table, per-row scores; higher is hotter.
    scores: Vec<Vec<f32>>,
}

impl RowHeat {
    /// A heat model where every row scores equally (priority planning
    /// degenerates to deterministic key order).
    pub fn uniform(row_counts: &[usize]) -> Self {
        Self {
            scores: row_counts.iter().map(|&n| vec![1.0; n]).collect(),
        }
    }

    /// Heat from the workload's Zipf skew: row `k` of every table scores
    /// its Zipf probability mass, so low row indices (popular ids) rank
    /// first — the same distribution [`cnr_workload`] samples batches from.
    pub fn zipf(row_counts: &[usize], exponent: f64) -> Self {
        let scores = row_counts
            .iter()
            .map(|&n| match ZipfSampler::new(n as u64, exponent) {
                Some(z) => z.pmf_all().into_iter().map(|p| p as f32).collect(),
                None => vec![1.0; n],
            })
            .collect();
        Self { scores }
    }

    /// Boosts every row the coverage window has touched by `factor` — rows
    /// the current training window provably uses outrank cold Zipf mass.
    /// Walks the window's set rows only, not every row of the model.
    pub fn boost_covered(&mut self, coverage: &CoverageAnalyzer, factor: f32) {
        for (t, table) in self.scores.iter_mut().enumerate() {
            for r in coverage.touched_rows(t) {
                if let Some(s) = table.get_mut(r) {
                    *s += factor;
                }
            }
        }
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.scores.iter().map(|t| t.len()).sum()
    }

    /// Hottest score inside `[first, last]` of `table`; `None` when the
    /// table or range is unknown to the model.
    fn score_range(&self, table: u16, first: u32, last: u32) -> Option<f32> {
        let t = self.scores.get(table as usize)?;
        let lo = first as usize;
        let hi = (last as usize + 1).min(t.len());
        if lo >= hi {
            return None;
        }
        t[lo..hi].iter().copied().reduce(f32::max)
    }

    /// Score cutoff such that roughly `hot_fraction` of all rows score at
    /// or above it. `>= 1.0` makes everything hot; `<= 0.0` nothing.
    pub fn hot_cutoff(&self, hot_fraction: f64) -> f32 {
        let total = self.total_rows();
        if total == 0 || hot_fraction >= 1.0 {
            return f32::NEG_INFINITY;
        }
        let k = (hot_fraction * total as f64).ceil() as usize;
        if k == 0 {
            return f32::INFINITY;
        }
        // The k-th hottest score is one order statistic: select it, do not
        // sort for it.
        let mut all: Vec<f32> = self.scores.iter().flatten().copied().collect();
        let kth = k.min(all.len()) - 1;
        *all.select_nth_unstable_by(kth, |a, b| b.total_cmp(a)).1
    }
}

/// Assigns every chunk of `chain` (oldest manifest first) to one of
/// `reader_hosts` hosts, balancing by bytes: each chunk goes to the
/// currently lightest host (ties to the lowest index). Returns one item
/// list per host, in deterministic order; trailing hosts may be empty when
/// there are fewer chunks than hosts.
///
/// Balancing by bytes rather than by writer shard matters: a checkpoint
/// written by one host must still restore `reader_hosts`-wide, and a
/// checkpoint written by more hosts than are restoring must not overload
/// any reader.
pub fn plan(chain: &[Manifest], reader_hosts: usize) -> Vec<Vec<FetchItem>> {
    deal(ranked_items(chain).into_iter().map(|(_, item)| item), reader_hosts)
}

/// One [`FetchItem`] per chunk of `chain`, in manifest order, beside the
/// chunk it was made from; every item is ranked ([`FetchItem::rank`]) and
/// marked hot.
fn ranked_items(chain: &[Manifest]) -> Vec<(&ChunkMeta, FetchItem)> {
    let mut items: Vec<(&ChunkMeta, FetchItem)> = chain
        .iter()
        .enumerate()
        .flat_map(|(level, manifest)| {
            manifest.chunks.iter().map(move |chunk| {
                let item = FetchItem {
                    level,
                    rank: 0,
                    key: chunk.key.clone(),
                    shard: chunk.shard,
                    bytes: chunk.bytes,
                    parts: chunk.parts.max(1),
                    rows: chunk.rows,
                    // All-or-nothing restore: every chunk gates first batch.
                    hot: true,
                };
                (chunk, item)
            })
        })
        .collect();
    let mut serial_order: Vec<usize> = (0..items.len()).collect();
    serial_order.sort_by_key(|&i| (items[i].1.level, &items[i].0.key));
    for (position, i) in serial_order.into_iter().enumerate() {
        items[i].1.rank = position as u32 + 1;
    }
    items
}

/// Deals `items`, in the order given, each to the currently lightest host.
fn deal(items: impl IntoIterator<Item = FetchItem>, reader_hosts: usize) -> Vec<Vec<FetchItem>> {
    let hosts = reader_hosts.max(1);
    let mut assignments: Vec<Vec<FetchItem>> = (0..hosts).map(|_| Vec::new()).collect();
    let mut load = vec![0u64; hosts];
    for item in items {
        let h = lightest(&load);
        load[h] += item.bytes;
        assignments[h].push(item);
    }
    assignments
}

/// Priority mode: like [`plan`], but every host's fetch list is ordered by
/// descending access heat, so the [`FetchScheduler`](super::scheduler)
/// (which admits ranged reads in list order) streams the hottest chunks
/// first. Chunks whose hottest row scores at or above the top-`hot_fraction`
/// cutoff are marked [`FetchItem::hot`]; a lazy restore resumes training
/// once those (plus the dense MLPs and reader cursor, which ride the
/// manifests fetched before any chunk) have been applied. A chunk whose
/// recorded table or row range the heat model does not know ranks
/// conservatively hottest — it cannot be deferred safely.
///
/// Assignment remains greedy-lightest-host, but performed in heat order, so
/// per-host lists stay sorted by heat and hot work spreads evenly over all
/// downlinks. Planning is pure and deterministic: ties break on
/// `(level, key)`.
pub fn plan_priority(
    chain: &[Manifest],
    reader_hosts: usize,
    heat: &RowHeat,
    hot_fraction: f64,
) -> Vec<Vec<FetchItem>> {
    let cutoff = heat.hot_cutoff(hot_fraction);
    // Score every chunk of every level; unknown ranges score infinitely hot.
    let mut scored: Vec<(f32, FetchItem)> = ranked_items(chain)
        .into_iter()
        .map(|(chunk, item)| {
            let score = heat
                .score_range(chunk.table, chunk.first_row, chunk.last_row)
                .unwrap_or(f32::INFINITY);
            (score, item)
        })
        .collect();
    // Hottest first; ties in serial order, which is what the rank is.
    scored.sort_by(|(a_score, a), (b_score, b)| {
        b_score
            .partial_cmp(a_score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.rank.cmp(&b.rank))
    });
    let by_heat = scored.into_iter().map(|(score, item)| FetchItem {
        hot: score >= cutoff,
        ..item
    });
    deal(by_heat, reader_hosts)
}

/// Index of the currently lightest-loaded host (ties to the lowest index).
fn lightest(load: &[u64]) -> usize {
    load.iter()
        .enumerate()
        .min_by_key(|(i, l)| (**l, *i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{CheckpointId, CheckpointKind, ChunkMeta, ShardMeta, TableMeta};
    use cnr_quant::QuantScheme;
    use cnr_reader::ReaderState;

    fn manifest_with_chunks(id: u64, sizes: &[u64]) -> Manifest {
        let chunks: Vec<ChunkMeta> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| ChunkMeta {
                key: Manifest::chunk_key("job", CheckpointId(id), 0, i as u32),
                shard: 0,
                rows: 8,
                bytes,
                parts: 1 + (bytes / 1024) as u32,
                table: 0,
                first_row: (i * 8) as u32,
                last_row: (i * 8 + 7) as u32,
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        Manifest {
            id: CheckpointId(id),
            kind: CheckpointKind::Full,
            base: None,
            iteration: 0,
            reader_state: ReaderState::fresh(),
            scheme: QuantScheme::Fp32,
            tables: vec![TableMeta {
                rows: 64,
                dim: 8,
                has_optimizer_state: false,
            }],
            bottom_mlp: vec![],
            top_mlp: vec![],
            chunks,
            shards: vec![ShardMeta {
                host: 0,
                rows: 8 * sizes.len() as u64,
                chunks: sizes.len() as u32,
                bytes: total,
                parts: 0,
            }],
            payload_bytes: total,
        }
    }

    #[test]
    fn plan_covers_every_chunk_exactly_once() {
        let chain = vec![
            manifest_with_chunks(0, &[100, 200, 300, 400, 500]),
            manifest_with_chunks(1, &[50, 60]),
        ];
        for hosts in [1usize, 2, 3, 7] {
            let assignment = plan(&chain, hosts);
            assert_eq!(assignment.len(), hosts);
            let mut keys: Vec<&str> = assignment
                .iter()
                .flatten()
                .map(|i| i.key.as_str())
                .collect();
            keys.sort_unstable();
            let mut expected: Vec<&str> = chain
                .iter()
                .flat_map(|m| m.chunks.iter().map(|c| c.key.as_str()))
                .collect();
            expected.sort_unstable();
            assert_eq!(keys, expected, "hosts={hosts}");
        }
    }

    #[test]
    fn plan_balances_bytes_across_hosts() {
        // 8 equal chunks over 4 hosts: exactly 2 each.
        let chain = vec![manifest_with_chunks(0, &[1000; 8])];
        let assignment = plan(&chain, 4);
        for items in &assignment {
            assert_eq!(items.len(), 2);
        }
        // Skewed sizes still stay within one max-chunk of balance.
        let chain = vec![manifest_with_chunks(0, &[900, 100, 100, 100, 100, 100])];
        let assignment = plan(&chain, 2);
        let loads: Vec<u64> = assignment
            .iter()
            .map(|items| items.iter().map(|i| i.bytes).sum())
            .collect();
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 900);
    }

    #[test]
    fn plan_records_levels_and_parts() {
        let chain = vec![
            manifest_with_chunks(0, &[2048]),
            manifest_with_chunks(1, &[10]),
        ];
        let assignment = plan(&chain, 1);
        assert_eq!(assignment[0][0].level, 0);
        assert_eq!(assignment[0][0].parts, 3, "parts follow ChunkMeta");
        assert_eq!(assignment[0][1].level, 1);
    }

    #[test]
    fn plan_is_deterministic() {
        let chain = vec![manifest_with_chunks(0, &[7, 7, 7, 9, 9, 3])];
        assert_eq!(plan(&chain, 3), plan(&chain, 3));
    }

    #[test]
    fn more_hosts_than_chunks_leaves_trailing_hosts_idle() {
        let chain = vec![manifest_with_chunks(0, &[5, 5])];
        let assignment = plan(&chain, 4);
        assert_eq!(assignment[0].len(), 1);
        assert_eq!(assignment[1].len(), 1);
        assert!(assignment[2].is_empty() && assignment[3].is_empty());
    }

    #[test]
    fn eager_plan_marks_everything_hot() {
        let chain = vec![manifest_with_chunks(0, &[10, 10, 10])];
        assert!(plan(&chain, 2).iter().flatten().all(|i| i.hot));
    }

    #[test]
    fn priority_plan_orders_each_host_by_descending_heat() {
        // 64 rows, 8 chunks of 8 rows each, Zipf heat: chunk 0 (rows 0-7)
        // is hottest, chunk 7 coldest.
        let chain = vec![manifest_with_chunks(0, &[100; 8])];
        let heat = RowHeat::zipf(&[64], 1.05);
        for hosts in [1usize, 2, 3] {
            let assignment = plan_priority(&chain, hosts, &heat, 0.25);
            for items in &assignment {
                let seqs: Vec<&str> = items.iter().map(|i| i.key.as_str()).collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable(); // key order == chunk seq == row order
                assert_eq!(seqs, sorted, "heat order follows row order under Zipf");
            }
            // Full coverage, exactly once.
            let total: usize = assignment.iter().map(|v| v.len()).sum();
            assert_eq!(total, 8, "hosts={hosts}");
        }
    }

    #[test]
    fn priority_plan_hot_fraction_bounds_the_hot_set() {
        let chain = vec![manifest_with_chunks(0, &[100; 8])];
        let heat = RowHeat::zipf(&[64], 1.05);
        // Top 25% of 64 rows = 16 rows = the 2 hottest chunks.
        let assignment = plan_priority(&chain, 2, &heat, 0.25);
        let hot: Vec<&str> = assignment
            .iter()
            .flatten()
            .filter(|i| i.hot)
            .map(|i| i.key.as_str())
            .collect();
        assert_eq!(hot.len(), 2, "hot set is chunk-granular top-K");
        // Everything hot at fraction 1.0; nothing at 0.0.
        let all = plan_priority(&chain, 2, &heat, 1.0);
        assert!(all.iter().flatten().all(|i| i.hot));
        let none = plan_priority(&chain, 2, &heat, 0.0);
        assert!(none.iter().flatten().all(|i| !i.hot));
    }

    #[test]
    fn priority_plan_treats_unranked_chunks_as_hottest() {
        let mut chain = vec![manifest_with_chunks(0, &[100; 4])];
        // A table id the heat model has never heard of (manifests are
        // untrusted input).
        chain[0].chunks[3].table = 9;
        let heat = RowHeat::zipf(&[64], 1.05);
        let assignment = plan_priority(&chain, 1, &heat, 0.1);
        assert_eq!(
            assignment[0][0].key, chain[0].chunks[3].key,
            "unranked chunk must fetch first"
        );
        assert!(assignment[0][0].hot, "unranked chunks cannot be deferred");
    }

    #[test]
    fn priority_plan_is_deterministic_and_covers_every_chunk() {
        let chain = vec![
            manifest_with_chunks(0, &[100, 300, 50, 200]),
            manifest_with_chunks(1, &[40, 60]),
        ];
        let heat = RowHeat::zipf(&[64], 1.0);
        for hosts in [1usize, 2, 4] {
            let a = plan_priority(&chain, hosts, &heat, 0.5);
            assert_eq!(a, plan_priority(&chain, hosts, &heat, 0.5));
            let mut keys: Vec<&str> =
                a.iter().flatten().map(|i| i.key.as_str()).collect();
            keys.sort_unstable();
            let mut expected: Vec<&str> = chain
                .iter()
                .flat_map(|m| m.chunks.iter().map(|c| c.key.as_str()))
                .collect();
            expected.sort_unstable();
            assert_eq!(keys, expected, "hosts={hosts}");
        }
    }

    #[test]
    fn hot_cutoff_is_the_kth_hottest_score_of_a_full_sort() {
        // Heavy ties (a Zipf prior under a flat coverage boost, plus a
        // uniform table), across two tables of different sizes.
        let mut heat = RowHeat::zipf(&[300, 41], 1.05);
        let mut cov = CoverageAnalyzer::new(&[300, 41]);
        for row in (0..300).step_by(3) {
            cov.observe(0, row);
        }
        heat.boost_covered(&cov, 1.0);
        heat.scores[1].fill(1.0);
        let mut sorted: Vec<f32> = heat.scores.iter().flatten().copied().collect();
        sorted.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        let n = sorted.len();
        for k in [1, 2, 41, 100, 101, 140, 141, 142, n - 1, n] {
            // Fractions at both ends of the interval whose ceiling is k.
            for fraction in [(k as f64 - 0.999) / n as f64, (k as f64 - 0.001) / n as f64] {
                assert_eq!(
                    heat.hot_cutoff(fraction).to_bits(),
                    sorted[k - 1].to_bits(),
                    "k={k} of {n}"
                );
            }
        }
        assert_eq!(heat.hot_cutoff(1.0), f32::NEG_INFINITY);
        assert_eq!(heat.hot_cutoff(0.0), f32::INFINITY);
        let all_tied = RowHeat::uniform(&[17, 3]);
        for fraction in [0.01, 0.5, 0.99] {
            assert_eq!(all_tied.hot_cutoff(fraction), 1.0);
        }
    }

    #[test]
    fn serial_ranks_follow_level_then_key_whatever_the_manifest_order() {
        let mut chain = vec![
            manifest_with_chunks(0, &[10, 20, 30]),
            manifest_with_chunks(1, &[5, 6]),
        ];
        chain[0].chunks.swap(0, 2); // manifest order is not key order
        let rank_of = |plan: Vec<Vec<FetchItem>>| {
            let mut ranks: Vec<(u32, usize, String)> = plan
                .into_iter()
                .flatten()
                .map(|i| (i.rank, i.level, i.key))
                .collect();
            ranks.sort();
            ranks
        };
        let eager = rank_of(plan(&chain, 3));
        let mut expected: Vec<(usize, String)> = chain
            .iter()
            .enumerate()
            .flat_map(|(level, m)| m.chunks.iter().map(move |c| (level, c.key.clone())))
            .collect();
        expected.sort();
        let expected: Vec<(u32, usize, String)> = expected
            .into_iter()
            .enumerate()
            .map(|(i, (level, key))| (i as u32 + 1, level, key))
            .collect();
        assert_eq!(eager, expected, "1-based position in (level, key) order");
        let heat = RowHeat::zipf(&[64], 1.05);
        assert_eq!(
            rank_of(plan_priority(&chain, 2, &heat, 0.3)),
            expected,
            "fetch order and host count do not move a chunk's rank"
        );
    }

    /// Boosting over the analyzer's set rows adds exactly what probing
    /// every row adds: the same scores, bit for bit, on a random mask over
    /// tables of different sizes (one of them not a whole number of words).
    #[test]
    fn boosting_set_rows_equals_probing_every_row() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let row_counts = [1000, 77, 64];
        let mut rng = StdRng::seed_from_u64(30);
        let mut cov = CoverageAnalyzer::new(&row_counts);
        for (t, &rows) in row_counts.iter().enumerate() {
            for row in 0..rows {
                if rng.gen_bool(0.3) {
                    cov.observe(t, row);
                }
            }
        }
        let mut probed = RowHeat::zipf(&row_counts, 1.05);
        for (t, table) in probed.scores.iter_mut().enumerate() {
            for (r, s) in table.iter_mut().enumerate() {
                if cov.is_touched(t, r) {
                    *s += 0.75;
                }
            }
        }
        let mut boosted = RowHeat::zipf(&row_counts, 1.05);
        boosted.boost_covered(&cov, 0.75);
        let bits = |h: &RowHeat| -> Vec<u32> { h.scores.iter().flatten().map(|s| s.to_bits()).collect() };
        assert_eq!(bits(&boosted), bits(&probed));
        assert_ne!(bits(&boosted), bits(&RowHeat::zipf(&row_counts, 1.05)), "something was boosted");
    }

    #[test]
    fn heat_sources_compose() {
        let mut heat = RowHeat::zipf(&[8], 1.05);
        let mut cov = CoverageAnalyzer::new(&[8]);
        cov.observe(0, 6);
        heat.boost_covered(&cov, 1.0);
        // Row 6 (Zipf tail, covered: +1.0) outranks row 0 (the Zipf head,
        // uncovered), which outranks the uncovered row 3.
        assert!(heat.score_range(0, 6, 6) > heat.score_range(0, 0, 0));
        assert!(heat.score_range(0, 0, 0) > heat.score_range(0, 3, 3));
        assert_eq!(heat.score_range(1, 0, 0), None, "unknown table");
    }
}
