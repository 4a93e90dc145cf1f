//! Dynamic quantization bit-width selection (§6.2.1).
//!
//! Figure 14 establishes how many times a job can restore from a quantized
//! checkpoint before crossing the 0.01% accuracy-loss budget:
//!
//! | bits | restores tolerated |
//! |------|--------------------|
//! | 2    | ≤ 1                |
//! | 3    | ≤ 3                |
//! | 4    | ≤ 20 (paper: "up to 20") |
//! | 8    | 100+               |
//!
//! Check-N-Run estimates the expected number of failures from the failure
//! probability and the job's expected duration (the caller makes that
//! estimate; the engine takes it as `QuantMode::Dynamic {
//! expected_restores }`), picks the most
//! aggressive bit-width whose budget covers it, and **falls back to 8-bit
//! automatically** when observed restores exceed the estimate.

use cnr_quant::QuantScheme;

/// Restore budget per bit-width, from §6.2.1.
const BUDGETS: [(u8, u32); 4] = [(2, 1), (3, 3), (4, 20), (8, 100)];

/// Stateful bit-width selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitwidthSelector {
    expected_restores: u32,
    observed_restores: u32,
}

impl BitwidthSelector {
    /// Creates a selector for a job expected to restore `expected_restores`
    /// times.
    pub fn new(expected_restores: u32) -> Self {
        Self {
            expected_restores,
            observed_restores: 0,
        }
    }

    /// Restores observed so far.
    pub fn observed_restores(&self) -> u32 {
        self.observed_restores
    }

    /// The restore count the selector is currently provisioning for.
    pub fn effective_restores(&self) -> u32 {
        self.expected_restores.max(self.observed_restores)
    }

    /// Current bit-width: the most aggressive whose budget covers the
    /// effective restore count. Exceeding every budget falls back to 8-bit
    /// (the paper's automatic fallback).
    pub fn bits(&self) -> u8 {
        let l = self.effective_restores();
        for (bits, budget) in BUDGETS {
            if l <= budget {
                return bits;
            }
        }
        8
    }

    /// The recommended scheme at the current bit-width (§5.2 summary:
    /// adaptive asymmetric ≤4 bits, naive asymmetric at 8).
    pub fn scheme(&self) -> QuantScheme {
        QuantScheme::recommended_for_bits(self.bits())
    }

    /// Records one restore event; may shift subsequent checkpoints to a
    /// wider bit-width.
    pub fn on_restore(&mut self) {
        self.observed_restores += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_paper() {
        assert_eq!(BitwidthSelector::new(0).bits(), 2);
        assert_eq!(BitwidthSelector::new(1).bits(), 2);
        assert_eq!(BitwidthSelector::new(2).bits(), 3);
        assert_eq!(BitwidthSelector::new(3).bits(), 3);
        assert_eq!(BitwidthSelector::new(4).bits(), 4);
        assert_eq!(BitwidthSelector::new(20).bits(), 4);
        assert_eq!(BitwidthSelector::new(21).bits(), 8);
        assert_eq!(BitwidthSelector::new(1000).bits(), 8);
    }

    #[test]
    fn fallback_widens_on_excess_restores() {
        let mut s = BitwidthSelector::new(1);
        assert_eq!(s.bits(), 2);
        s.on_restore();
        assert_eq!(s.bits(), 2, "within budget");
        s.on_restore();
        assert_eq!(s.bits(), 3, "exceeded 2-bit budget");
        for _ in 0..19 {
            s.on_restore();
        }
        assert_eq!(s.observed_restores(), 21);
        assert_eq!(s.bits(), 8, "exceeded every aggressive budget");
    }

    #[test]
    fn scheme_follows_bits() {
        assert!(matches!(
            BitwidthSelector::new(1).scheme(),
            QuantScheme::AdaptiveAsymmetric { bits: 2, .. }
        ));
        assert!(matches!(
            BitwidthSelector::new(50).scheme(),
            QuantScheme::Asymmetric { bits: 8 }
        ));
    }
}
