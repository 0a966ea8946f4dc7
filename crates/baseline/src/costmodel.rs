//! Deployment cost of the correlation baseline, for the E10 comparison.
//!
//! The paper's §5 argument is qualitative ("challenging to deploy,
//! requiring … a large number of (fake) control accounts"); this module
//! makes it a number: accounts created and maintained, browsing volume
//! driven, and the statistical-power floor on the population size.

use adsim_types::stats::ln_choose;

/// Cost accounting for one baseline deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineCost {
    /// Fake accounts created.
    pub accounts: usize,
    /// Impression opportunities driven across all accounts.
    pub opportunities: u64,
    /// Hypotheses tested (ads × candidate attributes).
    pub hypotheses: usize,
}

impl BaselineCost {
    /// Accounts per attribute studied — the headline deployment-burden
    /// ratio E10 compares against the Treads value of 0 (Treads need no
    /// fake accounts at all).
    pub fn accounts_per_attribute(&self, attributes: usize) -> f64 {
        if attributes == 0 {
            return 0.0;
        }
        self.accounts as f64 / attributes as f64
    }
}

/// The smallest control population for which a perfectly-separating
/// exposure pattern can reach Bonferroni significance.
///
/// With `n` accounts split evenly (p = ½ assignment), the best-case
/// chi-square 2×2 p-value is roughly the Fisher tail
/// `1 / C(n, n/2)`; Bonferroni multiplies it by the number of hypotheses
/// `m`. We return the smallest even `n` with `m / C(n, n/2) ≤ alpha` —
/// the "statistically significant claims" floor the paper alludes to.
pub fn minimum_population(hypotheses: usize, alpha: f64) -> usize {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha in (0,1)");
    let m = hypotheses.max(1) as f64;
    let mut n = 2usize;
    loop {
        let log_tail = -ln_choose(n as u64, n as u64 / 2); // ln(1/C(n, n/2))
        let log_corrected = m.ln() + log_tail;
        if log_corrected <= alpha.ln() {
            return n;
        }
        n += 2;
        assert!(n < 10_000, "no feasible population under 10k accounts");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_population_grows_with_hypotheses() {
        let small = minimum_population(4, 0.05);
        let large = minimum_population(507 * 507, 0.05);
        assert!(small >= 6, "min population {small}");
        assert!(large > small);
        // Sanity: C(6,3)=20 → 1/20 = 0.05; with 1 hypothesis the 0.05
        // threshold is reached exactly at n=6.
        assert_eq!(minimum_population(1, 0.05), 6);
    }

    #[test]
    fn accounts_per_attribute_ratio() {
        let cost = BaselineCost {
            accounts: 48,
            opportunities: 4800,
            hypotheses: 16,
        };
        assert!((cost.accounts_per_attribute(4) - 12.0).abs() < 1e-12);
        assert_eq!(cost.accounts_per_attribute(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha in (0,1)")]
    fn invalid_alpha_panics() {
        minimum_population(1, 0.0);
    }
}
