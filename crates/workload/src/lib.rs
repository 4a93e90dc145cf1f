//! Synthetic workloads for training deep learning recommendation models.
//!
//! The Check-N-Run paper ([Eisenman et al., NSDI'22]) evaluates on production
//! click datasets that are not public. This crate provides the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! * **Skewed sparse access** — embedding-table lookups in production
//!   recommendation workloads follow a heavy-tailed (approximately Zipfian)
//!   popularity distribution. The fraction-of-model-modified curves in the
//!   paper (Figures 5 and 6) are a direct consequence of this skew, so the
//!   [`zipf::ZipfSampler`] is the load-bearing piece of this crate.
//! * **Determinism** — batch `i` of a [`dataset::SyntheticDataset`] has
//!   identical contents no matter when or where it is generated. This is what
//!   lets integration tests verify the paper's *reader/trainer gap avoidance*
//!   protocol: resuming from a checkpointed reader state must replay the exact
//!   same sample stream.
//! * **Learnable signal** — labels are produced by a hidden
//!   [`teacher::TeacherModel`], so a model trained on this data has a
//!   decreasing loss, and a checkpoint-restore that perturbs the model (e.g.
//!   via quantization) produces a *measurable* accuracy degradation, which is
//!   what Figure 14 of the paper measures.
//!
//! [Eisenman et al., NSDI'22]: https://www.usenix.org/conference/nsdi22/presentation/eisenman

#![forbid(unsafe_code)]

pub mod batch;
pub mod dataset;
pub mod qps;
pub mod teacher;
pub mod zipf;

pub use batch::Batch;
pub use dataset::{DatasetSpec, SyntheticDataset, TableAccessSpec};
pub use qps::QpsModel;
pub use teacher::TeacherModel;
pub use zipf::ZipfSampler;

/// Mixes a stream identifier into a seed, producing an independent seed.
///
/// This is a [SplitMix64](https://prng.di.unimi.it/splitmix64.c) finalizer,
/// used everywhere the crate needs "one RNG per (seed, index)" determinism.
#[inline]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_deterministic() {
        assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
    }

    #[test]
    fn mix_seed_separates_streams() {
        assert_ne!(mix_seed(42, 7), mix_seed(42, 8));
        assert_ne!(mix_seed(42, 7), mix_seed(43, 7));
    }

    #[test]
    fn mix_seed_zero_is_not_fixed_point() {
        assert_ne!(mix_seed(0, 0), 0);
    }
}
