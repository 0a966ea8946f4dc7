//! The paper's cost model (§3.1 "Cost" and "Scale").
//!
//! Headline numbers this module reproduces exactly:
//!
//! * at the recommended **$2 CPM**, each attribute costs **$0.002** to
//!   reveal (one impression);
//! * at the validation's elevated **$10 CPM** bid, **$0.01**;
//! * a user with **50** attributes costs **$0.10** to fully reveal;
//! * attributes a user does *not* have cost **$0** (their Treads are never
//!   shown to that user);
//! * an m-valued attribute costs ~one impression with the per-value plan
//!   (the user matches exactly one of the m Treads), or up to
//!   ⌈log₂(m+1)⌉ impressions with the bit-slice plan that needs far fewer
//!   ads.
//!
//! Plus the funding models the paper sketches: provider-funded (donations)
//! vs. user-fee ("users opting-in could pay the transparency provider a
//! nominal fee (the cost of their own impressions)").

use crate::planner::bits_needed;
use adsim_types::Money;

/// Cost to reveal one attribute to one user at the given CPM bid.
pub fn per_attribute_cost(cpm: Money) -> Money {
    cpm.cpm_per_impression()
}

/// Cost to fully reveal a user holding `attributes_held` of the plan's
/// attributes (unheld attributes cost nothing).
pub fn per_user_cost(attributes_held: usize, cpm: Money) -> Money {
    cpm.cpm_cost_of(attributes_held as u64)
}

/// Cost comparison of the two plans for one m-valued attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiValuePlanCost {
    /// Number of values the attribute can take.
    pub m: usize,
    /// Treads the provider must create and run.
    pub treads_run: usize,
    /// Impressions one value-holding user generates (= what they cost).
    pub impressions_per_user: usize,
    /// That user's cost at the given CPM.
    pub user_cost: Money,
}

/// The per-value plan: m Treads, each targeting one value; a user holding
/// any value sees exactly one → one impression (§3.1: "would only have to
/// pay for one impression per user, costing around $0.002").
pub fn per_value_plan(m: usize, cpm: Money) -> MultiValuePlanCost {
    MultiValuePlanCost {
        m,
        treads_run: m,
        impressions_per_user: 1,
        user_cost: cpm.cpm_per_impression(),
    }
}

/// The bit-slice plan: ⌈log₂(m+1)⌉ Treads; a user holding value `v` sees
/// popcount(code(v)) of them. `impressions_per_user` reports the
/// worst case (all bits set); see [`bit_slice_expected_impressions`] for
/// the average.
pub fn bit_slice_plan(m: usize, cpm: Money) -> MultiValuePlanCost {
    let bits = bits_needed(m) as usize;
    MultiValuePlanCost {
        m,
        treads_run: bits,
        impressions_per_user: bits,
        user_cost: cpm.cpm_cost_of(bits as u64),
    }
}

/// Expected impressions per value-holding user under the bit-slice plan:
/// the mean popcount of the codes 1..=m.
pub fn bit_slice_expected_impressions(m: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let total: u32 = (1..=m).map(|c| (c as u64).count_ones()).sum();
    total as f64 / m as f64
}

/// How a provider covers its impression bill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FundingModel {
    /// The provider pays from a donation pool.
    ProviderFunded {
        /// Available pool.
        pool: Money,
    },
    /// Each opted-in user pays a flat fee covering their own impressions.
    UserFee {
        /// Per-user fee.
        fee: Money,
    },
}

/// A campaign-budget projection for a cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    /// Opted-in users.
    pub users: usize,
    /// Average attributes held per user.
    pub avg_attributes: usize,
    /// CPM bid.
    pub cpm: Money,
    /// Total expected impression cost.
    pub total_cost: Money,
    /// Whether the funding model covers it.
    pub funded: bool,
}

/// Projects the cost of fully revealing a cohort and checks the funding
/// model against it.
pub fn project(
    users: usize,
    avg_attributes: usize,
    cpm: Money,
    funding: FundingModel,
) -> Projection {
    let total_cost = cpm.cpm_cost_of((users * avg_attributes) as u64);
    let funded = match funding {
        FundingModel::ProviderFunded { pool } => pool >= total_cost,
        FundingModel::UserFee { fee } => {
            // Each user's fee must cover their own expected impressions —
            // the paper's "scalable and sustainable" condition.
            fee >= cpm.cpm_cost_of(avg_attributes as u64)
        }
    };
    Projection {
        users,
        avg_attributes,
        cpm,
        total_cost,
        funded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers() {
        assert_eq!(per_attribute_cost(Money::dollars(2)), Money::micros(2_000)); // $0.002
        assert_eq!(
            per_attribute_cost(Money::dollars(10)),
            Money::micros(10_000)
        ); // $0.01
        assert_eq!(per_user_cost(50, Money::dollars(2)), Money::cents(10)); // $0.10
        assert_eq!(per_user_cost(0, Money::dollars(2)), Money::ZERO);
    }

    #[test]
    fn per_value_plan_is_one_impression() {
        let plan = per_value_plan(9, Money::dollars(2));
        assert_eq!(plan.treads_run, 9);
        assert_eq!(plan.impressions_per_user, 1);
        assert_eq!(plan.user_cost, Money::micros(2_000)); // ~$0.002, per paper
    }

    #[test]
    fn bit_slice_plan_trades_impressions_for_ads() {
        let plan = bit_slice_plan(9, Money::dollars(2));
        assert_eq!(plan.treads_run, 4); // vs 9 per-value Treads
        assert_eq!(plan.impressions_per_user, 4); // worst case
        assert_eq!(plan.user_cost, Money::micros(8_000));
        // For large m the ad-count saving dominates.
        let big = bit_slice_plan(507, Money::dollars(2));
        assert_eq!(big.treads_run, 9);
    }

    #[test]
    fn expected_impressions_is_mean_popcount() {
        // Codes 1..=3: popcounts 1,1,2 → mean 4/3.
        assert!((bit_slice_expected_impressions(3) - 4.0 / 3.0).abs() < 1e-12);
        // m = 0 edge.
        assert_eq!(bit_slice_expected_impressions(0), 0.0);
        // Mean popcount grows ~log2(m)/2-ish and is bounded by bits_needed.
        let m = 507;
        let mean = bit_slice_expected_impressions(m);
        assert!(mean > 1.0 && mean <= bits_needed(m) as f64);
    }

    #[test]
    fn provider_funding_check() {
        // 10k users × 50 attrs × $0.002 = $1000.
        let p = project(
            10_000,
            50,
            Money::dollars(2),
            FundingModel::ProviderFunded {
                pool: Money::dollars(1_000),
            },
        );
        assert_eq!(p.total_cost, Money::dollars(1_000));
        assert!(p.funded);
        let p = project(
            10_000,
            50,
            Money::dollars(2),
            FundingModel::ProviderFunded {
                pool: Money::dollars(999),
            },
        );
        assert!(!p.funded);
    }

    #[test]
    fn user_fee_funding_check() {
        // A $0.10 fee covers a 50-attribute user at $2 CPM.
        let p = project(
            1_000,
            50,
            Money::dollars(2),
            FundingModel::UserFee {
                fee: Money::cents(10),
            },
        );
        assert!(p.funded);
        let p = project(
            1_000,
            50,
            Money::dollars(2),
            FundingModel::UserFee {
                fee: Money::cents(9),
            },
        );
        assert!(!p.funded);
    }
}
