//! Account-level enforcement: detecting transparency-provider-shaped
//! campaigns.
//!
//! The paper's "evading shutdown" discussion (§4) assumes platforms might
//! one day hunt for Treads and suspend the accounts running them, and
//! argues that distributing the Treads across many small advertiser
//! accounts ("crowdsourcing the transparency provider") makes detection
//! hard. To measure that claim (experiment E6) we need a concrete
//! detector, so this module implements the natural one:
//!
//! * **Pattern score** — a transparency provider's footprint is
//!   distinctive: many ads, each targeting a *single attribute*
//!   intersected with the same saved audience, with near-identical
//!   creative templates. An account whose count of such
//!   "attribute-singleton" ads reaches the threshold is flagged
//!   deterministically.
//! * **Random review** — independently, each ad has a small probability of
//!   human review; a reviewed ad that violates policy flags the account.
//!
//! Crowdsourcing defeats the pattern score (each account stays under
//! threshold) but not the random-review channel — which is why E6's curve
//! falls steeply with the number of accounts but never to zero while the
//! creatives remain policy-violating.

use crate::campaign::CampaignStore;
use crate::policy::PolicyEngine;
use adsim_types::AccountId;
use rand::Rng;
use std::collections::HashMap;

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnforcementConfig {
    /// An account with at least this many attribute-singleton ads sharing a
    /// creative template is flagged.
    pub pattern_threshold: usize,
    /// Per-ad probability of random human review.
    pub review_sample_rate: f64,
}

impl Default for EnforcementConfig {
    fn default() -> Self {
        Self {
            pattern_threshold: 50,
            review_sample_rate: 0.01,
        }
    }
}

/// What the detector concluded about one account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspicionReport {
    /// The scanned account.
    pub account: AccountId,
    /// Number of ads targeting exactly one attribute (optionally
    /// intersected with audiences) — the Tread signature.
    pub singleton_attribute_ads: usize,
    /// Size of the largest cluster of those ads sharing one headline
    /// template.
    pub largest_template_cluster: usize,
    /// True if the pattern score crossed the threshold.
    pub pattern_flagged: bool,
    /// True if a random review caught a policy-violating ad.
    pub review_flagged: bool,
}

impl SuspicionReport {
    /// Account should be suspended.
    pub fn flagged(&self) -> bool {
        self.pattern_flagged || self.review_flagged
    }
}

/// Scans one account's ads and produces a [`SuspicionReport`].
///
/// `rng` drives the random-review channel; pass a named substream so runs
/// are reproducible.
pub fn scan_account<R: Rng>(
    account: AccountId,
    campaigns: &CampaignStore,
    policy: &PolicyEngine,
    config: &EnforcementConfig,
    rng: &mut R,
) -> SuspicionReport {
    let ads = campaigns.ads_of_account(account);

    // Pattern channel: attribute-singleton ads clustered by headline.
    let mut clusters: HashMap<&str, usize> = HashMap::new();
    let mut singletons = 0usize;
    for ad in &ads {
        let attrs = ad.targeting.referenced_attributes();
        if attrs.len() == 1 {
            singletons += 1;
            *clusters.entry(ad.creative.headline.as_str()).or_insert(0) += 1;
        }
    }
    let largest_template_cluster = clusters.values().copied().max().unwrap_or(0);
    let pattern_flagged = largest_template_cluster >= config.pattern_threshold;

    // Random-review channel.
    let mut review_flagged = false;
    for ad in &ads {
        if rng.gen::<f64>() < config.review_sample_rate && policy.review(&ad.creative).is_err() {
            review_flagged = true;
            break;
        }
    }

    SuspicionReport {
        account,
        singleton_attribute_ads: singletons,
        largest_template_cluster,
        pattern_flagged,
        review_flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::AdCreative;
    use crate::policy::Strictness;
    use crate::targeting::{TargetingExpr, TargetingSpec};
    use adsim_types::rng::substream;
    use adsim_types::{AttributeId, AudienceId, Money};

    fn tread_like_account(n_ads: usize, headline: &str) -> (CampaignStore, AccountId) {
        let account = AccountId(1);
        let mut store = CampaignStore::new();
        let camp = store.create_campaign(account, "treads", Money::dollars(10), None);
        let mut syms = adsim_types::SymbolTable::new();
        for i in 0..n_ads {
            store
                .create_ad(
                    camp,
                    AdCreative::text(headline, format!("Ref: {i}")),
                    TargetingSpec::including(TargetingExpr::And(vec![
                        TargetingExpr::InAudience(AudienceId(1)),
                        TargetingExpr::Attr(AttributeId(i as u64 + 1)),
                    ])),
                    &mut syms,
                )
                .expect("ad");
        }
        (store, account)
    }

    fn no_review_config(threshold: usize) -> EnforcementConfig {
        EnforcementConfig {
            pattern_threshold: threshold,
            review_sample_rate: 0.0,
        }
    }

    #[test]
    fn large_tread_account_is_pattern_flagged() {
        let (store, account) = tread_like_account(507, "A message from Know Your Data");
        let policy = PolicyEngine::without_catalog(Strictness::Standard);
        let mut rng = substream(1, "enforcement");
        let report = scan_account(account, &store, &policy, &no_review_config(50), &mut rng);
        assert_eq!(report.singleton_attribute_ads, 507);
        assert_eq!(report.largest_template_cluster, 507);
        assert!(report.pattern_flagged);
        assert!(report.flagged());
    }

    #[test]
    fn small_slice_stays_under_threshold() {
        // Crowdsourced: an account running only 40 of the 507 Treads.
        let (store, account) = tread_like_account(40, "A message from Know Your Data");
        let policy = PolicyEngine::without_catalog(Strictness::Standard);
        let mut rng = substream(2, "enforcement");
        let report = scan_account(account, &store, &policy, &no_review_config(50), &mut rng);
        assert!(!report.pattern_flagged);
        assert!(!report.flagged());
    }

    #[test]
    fn varied_headlines_defeat_template_clustering() {
        let account = AccountId(1);
        let mut store = CampaignStore::new();
        let camp = store.create_campaign(account, "treads", Money::dollars(10), None);
        let mut syms = adsim_types::SymbolTable::new();
        for i in 0..200usize {
            store
                .create_ad(
                    camp,
                    // Distinct headline per ad.
                    AdCreative::text(format!("Message {i}"), "Ref"),
                    TargetingSpec::including(TargetingExpr::Attr(AttributeId(i as u64 + 1))),
                    &mut syms,
                )
                .expect("ad");
        }
        let policy = PolicyEngine::without_catalog(Strictness::Standard);
        let mut rng = substream(3, "enforcement");
        let report = scan_account(account, &store, &policy, &no_review_config(50), &mut rng);
        assert_eq!(report.singleton_attribute_ads, 200);
        assert_eq!(report.largest_template_cluster, 1);
        assert!(!report.pattern_flagged);
    }

    #[test]
    fn random_review_catches_violating_creatives() {
        let account = AccountId(1);
        let mut store = CampaignStore::new();
        let camp = store.create_campaign(account, "explicit", Money::dollars(10), None);
        let mut syms = adsim_types::SymbolTable::new();
        for i in 0..10usize {
            store
                .create_ad(
                    camp,
                    // Explicit assertion phrase — violates policy.
                    AdCreative::text("About you", "data collected about you is shown here"),
                    TargetingSpec::including(TargetingExpr::Attr(AttributeId(i as u64 + 1))),
                    &mut syms,
                )
                .expect("ad");
        }
        let policy = PolicyEngine::without_catalog(Strictness::Standard);
        let config = EnforcementConfig {
            pattern_threshold: 1000,
            review_sample_rate: 1.0, // review everything
        };
        let mut rng = substream(4, "enforcement");
        let report = scan_account(account, &store, &policy, &config, &mut rng);
        assert!(report.review_flagged);
        assert!(!report.pattern_flagged);
        assert!(report.flagged());
    }

    #[test]
    fn compliant_creatives_survive_full_review() {
        let (store, account) = tread_like_account(10, "A message");
        let policy = PolicyEngine::without_catalog(Strictness::Standard);
        let config = EnforcementConfig {
            pattern_threshold: 1000,
            review_sample_rate: 1.0,
        };
        let mut rng = substream(5, "enforcement");
        let report = scan_account(account, &store, &policy, &config, &mut rng);
        assert!(!report.flagged());
    }

    #[test]
    fn empty_account_is_clean() {
        let store = CampaignStore::new();
        let policy = PolicyEngine::without_catalog(Strictness::Standard);
        let mut rng = substream(6, "enforcement");
        let report = scan_account(
            AccountId(42),
            &store,
            &policy,
            &EnforcementConfig::default(),
            &mut rng,
        );
        assert_eq!(report.singleton_attribute_ads, 0);
        assert!(!report.flagged());
    }
}
