//! The impression log and advertiser-facing reporting.
//!
//! The platform records every delivered impression exactly; advertisers see
//! only **aggregates** — impression counts, spend, and a reach estimate
//! rounded to the platform's granularity. This is the second half of the
//! contract Treads rely on (§3.1 threat model: "the transparency provider
//! has access to the performance statistics reported by the advertising
//! platform … this could include estimates about the number of users
//! reached by different ads" — but never *which* users).
//!
//! Experiment E4 runs its linkage attack against this interface, and its
//! ablation sets `reach_granularity = 1` / `reach_floor = 0` to show what
//! breaks when a platform reports exactly.

use adsim_types::{AccountId, AdId, CampaignId, Money, SimTime, UserId};
use std::collections::BTreeSet;

/// One delivered impression (platform-internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Impression {
    /// The delivered ad.
    pub ad: AdId,
    /// Its campaign.
    pub campaign: CampaignId,
    /// Its account.
    pub account: AccountId,
    /// The user who saw it.
    pub user: UserId,
    /// When it was delivered.
    pub at: SimTime,
    /// The per-impression price charged.
    pub price: Money,
    /// Canonical digest of the targeting spec the ad was decided under
    /// ([`crate::targeting::TargetingSpec::digest`]); delivery receipts
    /// bind each delivery to it.
    pub spec_digest: u64,
}

/// The platform's exact impression log.
#[derive(Debug, Clone, Default)]
pub struct ImpressionLog {
    records: Vec<Impression>,
}

/// The advertiser-visible performance report for one ad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdReport {
    /// The reported ad.
    pub ad: AdId,
    /// Total impressions delivered.
    pub impressions: u64,
    /// Estimated unique users reached, rounded down to the reporting
    /// granularity; `0` when below the reporting floor.
    pub estimated_reach: u64,
    /// True when the exact reach was below the reporting floor (the
    /// platform says only "fewer than `floor` people reached").
    pub below_reach_floor: bool,
    /// Total spend accrued by the ad.
    pub spend: Money,
}

impl ImpressionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an impression.
    pub fn record(&mut self, imp: Impression) {
        self.records.push(imp);
    }

    /// All impressions, in delivery order (platform-internal).
    pub fn all(&self) -> &[Impression] {
        &self.records
    }

    /// Replaces the log's contents with a checkpointed record list.
    /// Delivery order is preserved verbatim — it is part of the
    /// byte-identical resume contract.
    pub fn restore(&mut self, records: Vec<Impression>) {
        self.records = records;
    }

    /// Number of impressions recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The impressions a given user saw, in order — this is the user's own
    /// ad feed (what `websim`'s browser extension observes client-side).
    pub fn seen_by(&self, user: UserId) -> Vec<&Impression> {
        self.records.iter().filter(|i| i.user == user).collect()
    }

    /// Exact unique reach of an ad (platform-internal).
    pub fn exact_reach(&self, ad: AdId) -> usize {
        let users: BTreeSet<UserId> = self
            .records
            .iter()
            .filter(|i| i.ad == ad)
            .map(|i| i.user)
            .collect();
        users.len()
    }

    /// Builds the advertiser-visible report for an ad, applying the reach
    /// floor and rounding granularity.
    pub fn report_ad(&self, ad: AdId, reach_floor: usize, reach_granularity: usize) -> AdReport {
        let mut impressions = 0u64;
        let mut spend = Money::ZERO;
        let mut users = BTreeSet::new();
        for i in self.records.iter().filter(|i| i.ad == ad) {
            impressions += 1;
            spend += i.price;
            users.insert(i.user);
        }
        let exact = users.len();
        let below = exact < reach_floor;
        let g = reach_granularity.max(1);
        AdReport {
            ad,
            impressions,
            estimated_reach: if below { 0 } else { ((exact / g) * g) as u64 },
            below_reach_floor: below,
            spend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imp(ad: u64, user: u64, at: u64) -> Impression {
        Impression {
            ad: AdId(ad),
            campaign: CampaignId(1),
            account: AccountId(1),
            user: UserId(user),
            at: SimTime(at),
            price: Money::micros(2_000),
            spec_digest: 0,
        }
    }

    #[test]
    fn log_records_in_order() {
        let mut log = ImpressionLog::new();
        log.record(imp(1, 1, 0));
        log.record(imp(1, 2, 5));
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.all()[1].user, UserId(2));
    }

    #[test]
    fn seen_by_is_the_user_feed() {
        let mut log = ImpressionLog::new();
        log.record(imp(1, 1, 0));
        log.record(imp(2, 2, 1));
        log.record(imp(3, 1, 2));
        let feed: Vec<u64> = log.seen_by(UserId(1)).iter().map(|i| i.ad.raw()).collect();
        assert_eq!(feed, vec![1, 3]);
        assert!(log.seen_by(UserId(9)).is_empty());
    }

    #[test]
    fn exact_reach_counts_unique_users() {
        let mut log = ImpressionLog::new();
        log.record(imp(1, 1, 0));
        log.record(imp(1, 1, 1)); // repeat impression
        log.record(imp(1, 2, 2));
        assert_eq!(log.exact_reach(AdId(1)), 2);
        assert_eq!(log.exact_reach(AdId(9)), 0);
    }

    #[test]
    fn report_applies_floor() {
        let mut log = ImpressionLog::new();
        log.record(imp(1, 1, 0));
        log.record(imp(1, 2, 1));
        // Floor of 100: two users reached reports as below-floor, reach 0.
        let r = log.report_ad(AdId(1), 100, 10);
        assert_eq!(r.impressions, 2);
        assert!(r.below_reach_floor);
        assert_eq!(r.estimated_reach, 0);
        assert_eq!(r.spend, Money::micros(4_000));
    }

    #[test]
    fn report_rounds_reach() {
        let mut log = ImpressionLog::new();
        for u in 0..237 {
            log.record(imp(1, u + 1, u));
        }
        let r = log.report_ad(AdId(1), 100, 10);
        assert!(!r.below_reach_floor);
        assert_eq!(r.estimated_reach, 230);
        assert_eq!(r.impressions, 237);
    }

    #[test]
    fn exact_reporting_ablation() {
        // E4's ablation: granularity 1, floor 0 → exact counts leak.
        let mut log = ImpressionLog::new();
        log.record(imp(1, 1, 0));
        log.record(imp(1, 2, 1));
        let r = log.report_ad(AdId(1), 0, 1);
        assert!(!r.below_reach_floor);
        assert_eq!(r.estimated_reach, 2);
    }

    #[test]
    fn report_for_unserved_ad_is_zeroed() {
        let log = ImpressionLog::new();
        let r = log.report_ad(AdId(1), 100, 10);
        assert_eq!(r.impressions, 0);
        assert_eq!(r.spend, Money::ZERO);
        assert!(r.below_reach_floor);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Report invariants for arbitrary impression logs: the rounded
        /// reach never exceeds the exact reach, the exact reach never
        /// exceeds impressions, below-floor reports always show zero
        /// reach, and rounding is to the requested granularity.
        #[test]
        fn report_invariants(
            pairs in prop::collection::vec((1u64..6, 1u64..40), 0..120),
            floor in 0usize..30,
            gran in 1usize..10,
        ) {
            let mut log = ImpressionLog::new();
            for (i, (ad, user)) in pairs.iter().enumerate() {
                log.record(Impression {
                    ad: AdId(*ad),
                    campaign: CampaignId(1),
                    account: AccountId(1),
                    user: UserId(*user),
                    at: SimTime(i as u64),
                    price: Money::micros(2_000),
                    spec_digest: 0,
                });
            }
            for ad in 1u64..6 {
                let exact = log.exact_reach(AdId(ad));
                let report = log.report_ad(AdId(ad), floor, gran);
                prop_assert!(report.estimated_reach as usize <= exact);
                prop_assert!(exact as u64 <= report.impressions);
                if report.below_reach_floor {
                    prop_assert!(exact < floor);
                    prop_assert_eq!(report.estimated_reach, 0);
                } else {
                    prop_assert!(exact >= floor);
                    prop_assert_eq!(report.estimated_reach as usize % gran, 0);
                    prop_assert!((exact - report.estimated_reach as usize) < gran);
                }
                // Spend is exactly price * impressions.
                prop_assert_eq!(
                    report.spend,
                    Money::micros(2_000 * report.impressions as i64)
                );
            }
        }
    }
}
