//! The exposure matrix: which control account saw which ad.
//!
//! The observation half of a correlation system: every control account
//! browses (here: repeated impression opportunities on the simulated
//! platform), and we record ad exposure per account. Row = account,
//! column = ad, cell = saw-it-or-not.

use adplatform::Platform;
use adsim_types::{AdId, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// The binary exposure matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExposureMatrix {
    /// Accounts observed (rows).
    pub accounts: Vec<UserId>,
    /// account → set of ads it saw.
    seen: BTreeMap<UserId, BTreeSet<AdId>>,
    /// Total impression opportunities driven.
    pub opportunities: u64,
}

impl ExposureMatrix {
    /// True if `account` saw `ad`.
    pub fn saw(&self, account: UserId, ad: AdId) -> bool {
        self.seen
            .get(&account)
            .map(|s| s.contains(&ad))
            .unwrap_or(false)
    }

    /// Number of accounts that saw `ad`.
    pub fn viewers(&self, ad: AdId) -> usize {
        self.accounts.iter().filter(|&&a| self.saw(a, ad)).count()
    }

    /// Every ad that appears in the matrix.
    pub fn ads(&self) -> BTreeSet<AdId> {
        self.seen.values().flatten().copied().collect()
    }
}

/// Drives `rounds` impression opportunities for every control account and
/// records exposures.
///
/// Each round gives every account one opportunity; auctions, frequency
/// caps, and targeting run exactly as for real users — the baseline gets
/// no shortcuts.
pub fn collect_exposures(
    platform: &mut Platform,
    accounts: &[UserId],
    rounds: usize,
) -> ExposureMatrix {
    let mut matrix = ExposureMatrix {
        accounts: accounts.to_vec(),
        ..ExposureMatrix::default()
    };
    for _ in 0..rounds {
        for &account in accounts {
            matrix.opportunities += 1;
            if let Ok(adplatform::auction::AuctionOutcome::Won { ad, .. }) =
                platform.browse(account)
            {
                matrix.seen.entry(account).or_default().insert(ad);
            }
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::campaign::AdCreative;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::PlatformConfig;
    use adsim_types::{AttributeId, Money};

    fn rig() -> (Platform, AttributeId) {
        let mut catalog = AttributeCatalog::new();
        let attr = catalog.register("Candidate", AttributeSource::Platform, None, 0.1);
        let p = Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                frequency_cap: 10,
                ..PlatformConfig::default()
            },
            catalog,
        );
        (p, attr)
    }

    #[test]
    fn exposure_reflects_targeting() {
        let (mut p, attr) = rig();
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(10), None)
            .expect("campaign");
        let ad = p
            .submit_ad(
                camp,
                AdCreative::text("h", "b"),
                TargetingSpec::including(TargetingExpr::Attr(attr)),
            )
            .expect("ad");
        let with = p.register_user(30, Gender::Female, "Ohio", "43004");
        let without = p.register_user(30, Gender::Male, "Ohio", "43004");
        p.profiles.grant_attribute(with, attr).expect("grant");

        let matrix = collect_exposures(&mut p, &[with, without], 3);
        assert!(matrix.saw(with, ad));
        assert!(!matrix.saw(without, ad));
        assert_eq!(matrix.viewers(ad), 1);
        assert_eq!(matrix.opportunities, 6);
        assert!(matrix.ads().contains(&ad));
    }

    #[test]
    fn empty_platform_yields_empty_matrix() {
        let (mut p, _) = rig();
        let u = p.register_user(30, Gender::Female, "Ohio", "43004");
        let matrix = collect_exposures(&mut p, &[u], 2);
        assert!(matrix.ads().is_empty());
        assert_eq!(matrix.viewers(AdId(1)), 0);
        assert_eq!(matrix.opportunities, 2);
    }
}
