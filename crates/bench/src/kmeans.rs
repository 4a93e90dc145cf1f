//! Non-uniform quantization via 1-D k-means clustering (§5.2, Approach 2)
//! — the Figure 9 baseline, and nothing else.
//!
//! Each embedding vector's `n` elements are partitioned into `2^bits`
//! clusters; the codebook stores the centroids and each element is coded by
//! its cluster index. The paper runs 15 Lloyd iterations and finds the ℓ2
//! error marginally better than adaptive asymmetric — but "orders of
//! magnitude slower" (48+ hours for one production checkpoint), which is why
//! Check-N-Run rejects it. So does this repo: k-means is not a
//! `cnr_quant::QuantScheme`, no checkpoint is written with it and no reader
//! accepts a codebook row. It lives here because Figure 9 plots it as the
//! quality yardstick.

use cnr_quant::{row_l2_error, RowSource};

/// Default Lloyd iteration count, as used in the paper's Figure 9.
pub const DEFAULT_ITERS: usize = 15;

/// Quantizes `row` into `2^bits` k-means clusters with `iters` Lloyd
/// iterations. Returns the per-element cluster codes and the codebook
/// (ascending centroids; element `i` de-quantizes to `codebook[codes[i]]`).
pub fn quantize_kmeans(row: &[f32], bits: u8, iters: usize) -> (Vec<u16>, Vec<f32>) {
    assert!((1..=12).contains(&bits), "kmeans bits must be in 1..=12");
    let k = 1usize << bits;
    if row.is_empty() {
        return (Vec::new(), vec![0.0; k]);
    }

    // Initialize centroids at evenly spaced quantiles of the sorted values —
    // deterministic and a good fit for 1-D data (avoids the random-init
    // variance the paper observed at 4 bits).
    let mut sorted: Vec<f32> = row.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in embedding row"));
    let mut centroids: Vec<f32> = (0..k)
        .map(|i| {
            let pos = (i as f64 + 0.5) / k as f64 * (sorted.len() - 1) as f64;
            sorted[pos.round() as usize]
        })
        .collect();
    dedup_nudge(&mut centroids);

    let mut assignment = vec![0u16; row.len()];
    for _ in 0..iters {
        // Assignment step: nearest centroid. Centroids are kept sorted, so a
        // binary search gives the nearest in O(log k).
        for (x, a) in row.iter().zip(assignment.iter_mut()) {
            *a = nearest_sorted(&centroids, *x) as u16;
        }
        // Update step: move each centroid to the mean of its members.
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (x, &a) in row.iter().zip(&assignment) {
            sums[a as usize] += *x as f64;
            counts[a as usize] += 1;
        }
        let mut moved = false;
        for c in 0..k {
            if counts[c] > 0 {
                let mean = (sums[c] / counts[c] as f64) as f32;
                if mean != centroids[c] {
                    centroids[c] = mean;
                    moved = true;
                }
            }
            // Empty clusters keep their previous centroid.
        }
        centroids.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if !moved {
            break; // converged
        }
    }
    // Final assignment against the converged codebook.
    for (x, a) in row.iter().zip(assignment.iter_mut()) {
        *a = nearest_sorted(&centroids, *x) as u16;
    }
    (assignment, centroids)
}

/// Mean ℓ2 error of `bits`-bit k-means ([`DEFAULT_ITERS`] iterations) over
/// every row of `source`: Figure 9's k-means bar, computed the way
/// `cnr_quant::mean_l2_error` computes the stored schemes' bars.
pub fn mean_l2_error<S: RowSource + ?Sized>(source: &S, bits: u8) -> f64 {
    let n = source.num_rows();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for i in 0..n {
        let row = source.row(i);
        let (codes, codebook) = quantize_kmeans(row, bits, DEFAULT_ITERS);
        let back: Vec<f32> = codes.iter().map(|&c| codebook[c as usize]).collect();
        total += row_l2_error(row, &back);
    }
    total / n as f64
}

/// Index of the centroid nearest to `x` in an ascending-sorted codebook.
fn nearest_sorted(centroids: &[f32], x: f32) -> usize {
    match centroids.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i >= centroids.len() {
                centroids.len() - 1
            } else {
                // Pick the closer of the two neighbours.
                if (x - centroids[i - 1]).abs() <= (centroids[i] - x).abs() {
                    i - 1
                } else {
                    i
                }
            }
        }
    }
}

/// Ensures strictly increasing centroids by nudging duplicates apart; k-means
/// with duplicate centroids wastes codes and confuses the binary search.
fn dedup_nudge(centroids: &mut [f32]) {
    for i in 1..centroids.len() {
        if centroids[i] <= centroids[i - 1] {
            centroids[i] = next_up(centroids[i - 1]);
        }
    }
}

/// Smallest f32 strictly greater than `x` (no std `next_up` on our MSRV).
fn next_up(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    let bits = if x == 0.0 { 1 } else if x > 0.0 { x.to_bits() + 1 } else { x.to_bits() - 1 };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_quant::QuantScheme;

    fn clustered_row() -> Vec<f32> {
        // Two tight clusters: ideal for k-means, bad for uniform grids.
        let mut v = Vec::new();
        for i in 0..16 {
            v.push(-1.0 + i as f32 * 1e-3);
        }
        for i in 0..16 {
            v.push(1.0 + i as f32 * 1e-3);
        }
        v
    }

    fn kmeans_error(row: &[f32], bits: u8) -> f64 {
        mean_l2_error(&cnr_quant::FlatRows::new(row.to_vec(), row.len()), bits)
    }

    #[test]
    fn beats_uniform_on_clustered_data() {
        let row = clustered_row();
        let uniform = QuantScheme::Asymmetric { bits: 2 }.quantize_row(&row);
        let uniform_err = row_l2_error(&row, &uniform.dequantize());
        let km_err = kmeans_error(&row, 2);
        assert!(
            km_err < uniform_err * 0.5,
            "kmeans {km_err} should crush uniform {uniform_err} on bimodal data"
        );
    }

    #[test]
    fn exact_when_clusters_ge_distinct_values() {
        // 4 distinct values, 8 clusters -> zero error.
        let row = vec![0.1f32, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3, 0.4];
        assert!(kmeans_error(&row, 3) < 1e-7);
    }

    #[test]
    fn codes_fit_bit_width() {
        let row: Vec<f32> = (0..64).map(|i| (i as f32 * 0.71).sin()).collect();
        let (codes, _) = quantize_kmeans(&row, 3, DEFAULT_ITERS);
        assert!(codes.iter().all(|&c| c < 8));
    }

    #[test]
    fn constant_row_is_exact() {
        let row = vec![0.77f32; 10];
        assert!(kmeans_error(&row, 2) < 1e-7);
    }

    #[test]
    fn empty_row() {
        let (codes, codebook) = quantize_kmeans(&[], 4, 5);
        assert!(codes.is_empty());
        assert_eq!(codebook.len(), 16);
    }

    #[test]
    fn error_decreases_with_bits() {
        let row: Vec<f32> = (0..128).map(|i| (i as f32 * 0.13).sin() * 0.3).collect();
        let e2 = kmeans_error(&row, 2);
        let e4 = kmeans_error(&row, 4);
        assert!(e4 < e2);
    }

    #[test]
    fn more_iters_never_hurt_much() {
        let row: Vec<f32> = (0..64).map(|i| ((i * 31 % 64) as f32 / 64.0).powi(2)).collect();
        let e1 = {
            let (c, cb) = quantize_kmeans(&row, 3, 1);
            let back: Vec<f32> = c.iter().map(|&x| cb[x as usize]).collect();
            row_l2_error(&row, &back)
        };
        let e15 = kmeans_error(&row, 3);
        assert!(e15 <= e1 * 1.05, "15 iters ({e15}) much worse than 1 ({e1})");
    }

    #[test]
    fn nearest_sorted_picks_closest() {
        let cb = vec![-1.0f32, 0.0, 1.0];
        assert_eq!(nearest_sorted(&cb, -0.9), 0);
        assert_eq!(nearest_sorted(&cb, -0.4), 1);
        assert_eq!(nearest_sorted(&cb, 0.6), 2);
        assert_eq!(nearest_sorted(&cb, 5.0), 2);
        assert_eq!(nearest_sorted(&cb, -5.0), 0);
    }
}
