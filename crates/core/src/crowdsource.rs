//! The crowdsourced transparency provider (§4 "Evading shutdown").
//!
//! "Detection or shutdown of Treads could still be made difficult by
//! distributing them across a number of advertising accounts, effectively
//! crowdsourcing the transparency provider … with each account being
//! responsible for a small subset of the overall set of targeting
//! attributes."
//!
//! [`run_crowdsourced`] splits a plan across `n` fresh accounts of the
//! same provider, optionally varying the creative headline per account to
//! defeat template clustering, runs every slice, and
//! [`survival_after_sweep`] measures what an enforcement sweep kills —
//! the numbers behind E6's detection-vs-accounts curve.

use crate::planner::CampaignPlan;
use crate::provider::{RunReceipt, TransparencyProvider};
use adplatform::Platform;
use adsim_types::{AudienceId, PixelId, Result, UserId};

/// Outcome of a crowdsourced run after an enforcement sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalReport {
    /// Accounts the plan was spread across.
    pub accounts: usize,
    /// Accounts suspended by the sweep.
    pub suspended: usize,
    /// Treads placed in total (approved, before the sweep).
    pub treads_placed: usize,
    /// Treads still servable after the sweep (on non-suspended accounts).
    pub treads_surviving: usize,
}

impl SurvivalReport {
    /// Fraction of accounts detected.
    pub fn detection_rate(&self) -> f64 {
        if self.accounts == 0 {
            return 0.0;
        }
        self.suspended as f64 / self.accounts as f64
    }

    /// Fraction of placed Treads surviving.
    pub fn survival_rate(&self) -> f64 {
        if self.treads_placed == 0 {
            return 0.0;
        }
        self.treads_surviving as f64 / self.treads_placed as f64
    }
}

/// A crowd member's opt-in channel: their account's own pixel on the
/// shared opt-in website, and the visitor audience it feeds.
///
/// Saved audiences are account-scoped on real platforms, so each crowd
/// account needs its *own* audience of the opted-in users. The provider's
/// single opt-in page carries every member's pixel — one visit enrolls the
/// visitor with every crowd account at once (the same trick §3.1 uses for
/// multiple platforms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrowdChannel {
    /// The crowd account.
    pub account: adsim_types::AccountId,
    /// Its pixel on the shared opt-in site.
    pub pixel: PixelId,
    /// Its visitor audience.
    pub audience: AudienceId,
}

/// Opens accounts up to `n_accounts` and creates each account's opt-in
/// channel (pixel + audience).
pub fn setup_crowd_channels(
    provider: &mut TransparencyProvider,
    platform: &mut Platform,
    n_accounts: usize,
) -> Result<Vec<CrowdChannel>> {
    assert!(n_accounts > 0, "need at least one account");
    while provider.accounts.len() < n_accounts {
        provider.open_extra_account(platform)?;
    }
    let mut channels = Vec::with_capacity(n_accounts);
    for i in 0..n_accounts {
        let account = provider.accounts[i];
        let pixel = platform.create_pixel(account, format!("crowd-optin-{i}"))?;
        let audience = platform.create_pixel_audience(account, pixel)?;
        channels.push(CrowdChannel {
            account,
            pixel,
            audience,
        });
    }
    Ok(channels)
}

/// One visit to the shared opt-in site: fires every crowd pixel for each
/// user, enrolling them with every crowd account.
pub fn optin_crowd(
    platform: &mut Platform,
    channels: &[CrowdChannel],
    users: &[UserId],
) -> Result<()> {
    for &user in users {
        for channel in channels {
            platform.user_fires_pixel(user, channel.pixel)?;
        }
    }
    Ok(())
}

/// Splits `plan` across the crowd channels and runs every slice under its
/// own account, targeting that account's own opt-in audience.
///
/// With `vary_headlines`, each account uses a distinct headline (breaking
/// the enforcement detector's template clustering — the countermeasure
/// arms race the paper anticipates).
pub fn run_crowdsourced(
    provider: &mut TransparencyProvider,
    platform: &mut Platform,
    plan: &CampaignPlan,
    channels: &[CrowdChannel],
    vary_headlines: bool,
) -> Result<Vec<RunReceipt>> {
    assert!(!channels.is_empty(), "need at least one channel");
    let slices = plan.split(channels.len());
    let mut receipts = Vec::with_capacity(slices.len());
    for (i, slice) in slices.iter().enumerate() {
        let channel = channels[i];
        let slice = if vary_headlines {
            let mut varied = slice.clone();
            for planned in &mut varied.treads {
                planned.tread = planned
                    .tread
                    .clone()
                    .with_headline(format!("Community transparency update #{i}"));
            }
            varied
        } else {
            slice.clone()
        };
        receipts.push(provider.run_plan_as(platform, channel.account, &slice, channel.audience)?);
    }
    Ok(receipts)
}

/// Runs an enforcement sweep and reports what survives.
pub fn survival_after_sweep(platform: &mut Platform, receipts: &[RunReceipt]) -> SurvivalReport {
    let placed: usize = receipts.iter().map(RunReceipt::approved_count).sum();
    platform.run_enforcement_sweep();
    let mut suspended = 0usize;
    let mut surviving = 0usize;
    for receipt in receipts {
        if platform.suspended.contains(&receipt.account) {
            suspended += 1;
        } else {
            surviving += receipt.approved_count();
        }
    }
    SurvivalReport {
        accounts: receipts.len(),
        suspended,
        treads_placed: placed,
        treads_surviving: surviving,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::enforcement::EnforcementConfig;
    use adplatform::PlatformConfig;
    use adsim_types::Money;

    fn platform_with_attrs(n: usize) -> Platform {
        let mut catalog = AttributeCatalog::new();
        for i in 0..n {
            catalog.register(
                format!("Partner attribute {i}"),
                AttributeSource::Partner {
                    broker: "NorthStar Data".into(),
                },
                None,
                0.1,
            );
        }
        Platform::new(
            PlatformConfig {
                enforcement: EnforcementConfig {
                    pattern_threshold: 50,
                    review_sample_rate: 0.0, // deterministic channel only
                },
                ..PlatformConfig::default()
            },
            catalog,
        )
    }

    fn full_plan(n: usize) -> CampaignPlan {
        let names: Vec<String> = (0..n).map(|i| format!("Partner attribute {i}")).collect();
        CampaignPlan::binary_in_ad("us-partner", &names, Encoding::CodebookToken)
    }

    /// Runs a crowd of `n` accounts over `plan` (channels set up and one
    /// user opted into all of them) and returns the sweep report.
    fn crowd_run(
        p: &mut Platform,
        prov: &mut TransparencyProvider,
        plan: &CampaignPlan,
        n: usize,
        vary_headlines: bool,
    ) -> SurvivalReport {
        let channels = setup_crowd_channels(prov, p, n).expect("channels");
        let user = p.register_user(
            30,
            adplatform::profile::Gender::Unspecified,
            "Ohio",
            "43004",
        );
        optin_crowd(p, &channels, &[user]).expect("optin");
        let receipts = run_crowdsourced(prov, p, plan, &channels, vary_headlines).expect("run");
        survival_after_sweep(p, &receipts)
    }

    #[test]
    fn single_account_gets_detected() {
        let mut p = platform_with_attrs(507);
        let mut prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let report = crowd_run(&mut p, &mut prov, &full_plan(507), 1, false);
        assert_eq!(report.accounts, 1);
        assert_eq!(report.suspended, 1);
        assert_eq!(report.treads_surviving, 0);
        assert!((report.detection_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enough_accounts_evade_pattern_detection() {
        let mut p = platform_with_attrs(507);
        let mut prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        // 11 accounts -> <= 47 Treads each, under the 50 threshold.
        let report = crowd_run(&mut p, &mut prov, &full_plan(507), 11, false);
        assert_eq!(report.suspended, 0);
        assert_eq!(report.treads_surviving, 507);
        assert!((report.survival_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_accounts_lose_everything() {
        let mut p = platform_with_attrs(507);
        let mut prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        // 5 accounts -> ~102 Treads each, all over threshold.
        let report = crowd_run(&mut p, &mut prov, &full_plan(507), 5, false);
        assert_eq!(report.suspended, 5);
        assert_eq!(report.survival_rate(), 0.0);
    }

    #[test]
    fn varied_headlines_defeat_clustering_even_on_one_account() {
        let mut p = platform_with_attrs(507);
        let mut prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let report = crowd_run(&mut p, &mut prov, &full_plan(507), 11, true);
        assert_eq!(report.suspended, 0);
    }

    #[test]
    fn receipts_span_distinct_accounts() {
        let mut p = platform_with_attrs(100);
        let mut prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let channels = setup_crowd_channels(&mut prov, &mut p, 4).expect("channels");
        let receipts =
            run_crowdsourced(&mut prov, &mut p, &full_plan(100), &channels, false).expect("run");
        let accounts: std::collections::BTreeSet<_> = receipts.iter().map(|r| r.account).collect();
        assert_eq!(accounts.len(), 4);
        let total: usize = receipts.iter().map(|r| r.placed.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn one_optin_visit_enrolls_with_every_crowd_account() {
        let mut p = platform_with_attrs(10);
        let mut prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let channels = setup_crowd_channels(&mut prov, &mut p, 3).expect("channels");
        let user = p.register_user(30, adplatform::profile::Gender::Female, "Ohio", "43004");
        optin_crowd(&mut p, &channels, &[user]).expect("optin");
        for channel in &channels {
            assert!(
                p.audiences
                    .get(channel.audience)
                    .expect("aud")
                    .contains(user),
                "user must be in every crowd account's audience"
            );
        }
        // Audiences are account-scoped and distinct.
        let audiences: std::collections::BTreeSet<_> =
            channels.iter().map(|c| c.audience).collect();
        assert_eq!(audiences.len(), 3);
    }
}
