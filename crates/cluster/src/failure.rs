//! Time-to-failure models for long-running training jobs.
//!
//! §3.1 of the paper measures failures across 21 clusters for a month:
//! network issues, hardware failures, OOMs, power outages, code bugs. The
//! observed distribution is fat-tailed: 10% of failed jobs ran at least
//! 13.5 hours before failing, and the top 1% at least 53.9 hours (jobs that
//! fail within 5 minutes are excluded as user setup errors).
//!
//! A log-normal time-to-failure reproduces that tail. Solving
//! `P(T ≥ 13.5h) = 0.10` and `P(T ≥ 53.9h) = 0.01` gives
//! `σ = ln(53.9/13.5)/(z₀.₉₉ − z₀.₉) ≈ 1.325` and
//! `μ = ln 13.5 − z₀.₉·σ ≈ 0.904` (hours), i.e. a median of ≈2.47 h —
//! those are [`FailureModel::paper_calibrated`]'s parameters.

use rand::Rng;
use std::time::Duration;

/// A sampled time-to-failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtfSample {
    /// Execution time completed before the failure.
    pub time_to_failure: Duration,
}

/// A writer host dying partway through a sharded checkpoint upload.
///
/// The paper's validity rule (§4.4: a checkpoint is declared valid only
/// when *every* node finishes storing successfully) exists because
/// individual writer hosts do fail mid-upload. The sharded writer reacts by
/// aborting the dead host's in-flight multipart upload and re-sharding its
/// remaining rows over the surviving hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostKill {
    /// Index of the writer host that dies.
    pub host: u16,
    /// Chunks the host completes before dying (it dies mid-way through
    /// chunk `after_chunks`, whose upload is aborted).
    pub after_chunks: u32,
}

/// Distribution of job time-to-failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModel {
    /// Memoryless failures at a constant rate (classic MTBF model).
    Exponential {
        /// Mean time between failures.
        mtbf: Duration,
    },
    /// Weibull: `shape < 1` models infant mortality, `> 1` wear-out.
    Weibull {
        /// Scale parameter λ.
        scale: Duration,
        /// Shape parameter k.
        shape: f64,
    },
    /// Log-normal of `ln T ~ N(mu_ln_hours, sigma_ln_hours²)`, with T in hours.
    LogNormal {
        /// Mean of ln(T/hours).
        mu_ln_hours: f64,
        /// Std-dev of ln(T/hours).
        sigma_ln_hours: f64,
    },
    /// No failures ever (control runs).
    None,
}

impl FailureModel {
    /// Log-normal calibrated to the paper's Figure 3 percentiles
    /// (P90 = 13.5 h, P99 = 53.9 h).
    pub fn paper_calibrated() -> Self {
        FailureModel::LogNormal {
            mu_ln_hours: 0.904,
            sigma_ln_hours: 1.325,
        }
    }

    /// Samples a time-to-failure. Returns `None` for [`FailureModel::None`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<TtfSample> {
        let hours = match self {
            FailureModel::None => return None,
            FailureModel::Exponential { mtbf } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -u.ln() * mtbf.as_secs_f64() / 3600.0
            }
            FailureModel::Weibull { scale, shape } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (-u.ln()).powf(1.0 / shape) * scale.as_secs_f64() / 3600.0
            }
            FailureModel::LogNormal {
                mu_ln_hours,
                sigma_ln_hours,
            } => {
                let z = standard_normal(rng);
                (mu_ln_hours + sigma_ln_hours * z).exp()
            }
        };
        Some(TtfSample {
            time_to_failure: Duration::from_secs_f64(hours * 3600.0),
        })
    }
}

/// Box–Muller standard normal.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantile(samples: &mut [f64], q: f64) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[((samples.len() as f64 * q) as usize).min(samples.len() - 1)]
    }

    #[test]
    fn paper_calibration_hits_percentiles() {
        let model = FailureModel::paper_calibrated();
        let mut rng = StdRng::seed_from_u64(42);
        let mut hours: Vec<f64> = (0..200_000)
            .map(|_| model.sample(&mut rng).unwrap().time_to_failure.as_secs_f64() / 3600.0)
            .collect();
        let p90 = quantile(&mut hours, 0.90);
        let p99 = quantile(&mut hours, 0.99);
        assert!(
            (p90 - 13.5).abs() < 1.0,
            "P90 {p90} should be ~13.5h (paper Figure 3)"
        );
        assert!(
            (p99 - 53.9).abs() < 5.0,
            "P99 {p99} should be ~53.9h (paper Figure 3)"
        );
    }

    #[test]
    fn exponential_mean_matches_mtbf() {
        let model = FailureModel::Exponential {
            mtbf: Duration::from_secs(3600),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mean: f64 = (0..100_000)
            .map(|_| model.sample(&mut rng).unwrap().time_to_failure.as_secs_f64())
            .sum::<f64>()
            / 100_000.0;
        assert!((mean - 3600.0).abs() < 60.0, "mean {mean} vs 3600");
    }

    #[test]
    fn none_never_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(FailureModel::None.sample(&mut rng).is_none());
    }
}
