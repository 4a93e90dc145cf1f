//! Checkpoint quantization for embedding tables.
//!
//! Implements §5.2 of the Check-N-Run paper: quantization applied *only to
//! checkpoints* (training stays FP32), evaluated by the mean ℓ2 error between
//! original and de-quantized embedding vectors. The schemes a checkpoint can
//! be stored in, with the paper's Figure 9 verdict on each:
//!
//! | scheme | paper verdict |
//! |---|---|
//! | uniform symmetric | worst — embedding values are not symmetric |
//! | uniform asymmetric | good, cheap; used for 8-bit |
//! | adaptive asymmetric | ≈ k-means quality at feasible cost; default ≤4 bits |
//!
//! The fourth scheme of Figure 9, non-uniform k-means, is marginally best
//! on ℓ2 and orders of magnitude too slow; the paper rejects it, and so
//! does the wire format: it is not a [`QuantScheme`] and no stored row
//! carries a codebook. It survives as the Fig. 9–11 baseline in
//! `cnr_bench`.
//!
//! The adaptive scheme is a greedy range-shrinking search ([`adaptive`])
//! parameterized by `num_bins` and `ratio` (Figures 10–13); the engine runs
//! it at the paper's fixed optima ([`QuantScheme::recommended_for_bits`]).
//!
//! A uniform row (symmetric, asymmetric or adaptive) stores its scale and
//! zero point as two binary16 values ([`params`]): its range is chosen on
//! `f32` grids and rounded once to the grid it is stored on. A chunk holding
//! a value its scheme cannot describe — NaN, `±∞` or a magnitude beyond
//! ±32752 for a uniform scheme, a finite value binary16 rounds to `±∞` for
//! fp16 — is stored as exact fp32 rows, decided from the values
//! ([`QuantScheme::stored_for`]): a value restores approximately or
//! exactly, never as garbage.
//!
//! Quantized rows serialize to a compact byte format ([`codec`]) used by
//! the chunked checkpoint writer in `cnr-core`. Every scheme's row body has
//! a fixed length given the chunk-level context
//! ([`codec::RowDecoder::body_len`]), so row `k` of a stored chunk is found
//! by arithmetic, and a reader resolves that context once per chunk and
//! de-quantizes the chunk's rows in one loop ([`codec::RowDecoder`]).

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod bitpack;
pub mod codec;
pub mod error;
pub mod half;
mod kernel;
pub mod params;
pub mod scheme;
#[cfg(test)]
mod reference;
pub mod uniform;

pub use codec::QuantizedRow;
pub use error::{mean_l2_error, row_l2_error};
pub use params::QuantParams;
pub use scheme::QuantScheme;

/// Source of embedding rows for whole-checkpoint error metrics. Implemented
/// by [`FlatRows`] for figures, tests and benches.
pub trait RowSource {
    /// Number of rows available.
    fn num_rows(&self) -> usize;
    /// Row `i` as a slice of f32 values.
    fn row(&self, i: usize) -> &[f32];
    /// Dimensionality of each row.
    fn dim(&self) -> usize;
}

/// A [`RowSource`] over a flat `Vec<f32>` (row-major).
#[derive(Debug, Clone)]
pub struct FlatRows {
    data: Vec<f32>,
    dim: usize,
}

impl FlatRows {
    /// Wraps row-major data with the given row dimensionality.
    ///
    /// Panics when the data length is not a multiple of `dim`, because a
    /// ragged table means the caller has a bug.
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "data length {} is not a multiple of dim {dim}",
            data.len()
        );
        Self { data, dim }
    }

    /// The underlying flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

impl RowSource for FlatRows {
    fn num_rows(&self) -> usize {
        self.data.len() / self.dim
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_rows_slicing() {
        let r = FlatRows::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.dim(), 3);
        assert_eq!(r.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(r.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn flat_rows_rejects_ragged() {
        let _ = FlatRows::new(vec![1.0; 7], 3);
    }
}
