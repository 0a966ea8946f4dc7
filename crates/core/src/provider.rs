//! The transparency provider.
//!
//! "We envision that an entity such as a non-profit could act as a
//! *transparency provider* that aims to help users understand what
//! information has been collected about them by advertising platforms,
//! without seeking to learn this information itself" (§3.1).
//!
//! [`TransparencyProvider`] is that entity: an ordinary advertiser on the
//! platform. It owns a codebook (shared with users at opt-in), sets up an
//! opt-in audience, and runs [`CampaignPlan`]s — one campaign per Tread,
//! exactly like the paper's validation (one ad per partner attribute at a
//! $10 CPM bid cap, plus a control ad targeting the opted-in audience with
//! no further parameters).
//!
//! Everything the provider can observe afterwards is collected in
//! [`ProviderView`]; the privacy analyzer ([`crate::privacy`]) works only
//! from that view, keeping the threat model honest.

use crate::encoding::Codebook;
use crate::planner::{group_bit_members, CampaignPlan};
use crate::tread::Tread;
use adplatform::billing::Invoice;
use adplatform::campaign::{AdCreative, AdStatus};
use adplatform::reporting::AdReport;
use adplatform::targeting::TargetingSpec;
use adplatform::{Platform, PlatformError};
use adsim_types::hash::Digest;
use adsim_types::{
    AccountId, AdId, AdvertiserId, AudienceId, CampaignId, Duration, Error, Money, PixelId, Result,
};
use std::collections::BTreeMap;
use treads_resilience::{BackoffPolicy, FaultPlan, FlakyPlatform, SubmissionApi};

/// A Tread that has been placed on the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedTread {
    /// Index within the plan.
    pub index: usize,
    /// The Tread as planned.
    pub tread: Tread,
    /// The campaign created for it.
    pub campaign: CampaignId,
    /// The submitted ad.
    pub ad: AdId,
    /// Whether platform policy approved the creative.
    pub approved: bool,
}

/// The outcome of running one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReceipt {
    /// The plan's name.
    pub plan_name: String,
    /// Account the plan ran under.
    pub account: AccountId,
    /// Placed Treads (including rejected ones, flagged `approved=false`).
    pub placed: Vec<PlacedTread>,
    /// Treads the provider could not even place (unresolvable targeting).
    pub unplaceable: Vec<usize>,
    /// The control ad, if one was run.
    pub control: Option<(CampaignId, AdId)>,
}

impl RunReceipt {
    /// Number of approved (servable) Treads.
    pub fn approved_count(&self) -> usize {
        self.placed.iter().filter(|p| p.approved).count()
    }

    /// Number of policy-rejected Treads.
    pub fn rejected_count(&self) -> usize {
        self.placed.iter().filter(|p| !p.approved).count()
    }
}

/// A [`RunReceipt`] plus the retry accounting of a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientReceipt {
    /// The run's receipt (identical to a fault-free run's whenever every
    /// transient failure was retried through).
    pub receipt: RunReceipt,
    /// Total transient failures that were retried.
    pub retries: u64,
    /// Plan indices abandoned after the retry budget ran out. Disjoint
    /// from both `receipt.placed` and `receipt.unplaceable`.
    pub gave_up: Vec<usize>,
    /// Simulated time a production client would have slept in backoff.
    pub simulated_delay: Duration,
}

/// A Tread whose targeting resolved and whose creative is built, awaiting
/// submission. Phase 1 of the two-phase retry run.
struct PreparedSubmission {
    index: usize,
    tread: Tread,
    creative: AdCreative,
    targeting: TargetingSpec,
}

/// Drives `op` through `policy`'s retry schedule. `Ok(Some(v))` on
/// success, `Ok(None)` when the budget ran out on transient errors (the
/// caller degrades gracefully), `Err` on the first non-transient error.
///
/// The jitter schedule derives from `(seed, label)` — one label per
/// logical operation — so a replay retries with the identical simulated
/// delays.
fn retry_call<T>(
    policy: &BackoffPolicy,
    seed: u64,
    label: &str,
    retries: &mut u64,
    simulated_delay: &mut Duration,
    mut op: impl FnMut() -> std::result::Result<T, PlatformError>,
) -> Result<Option<T>> {
    let delays = policy.delays(seed, label);
    let mut attempt = 0usize;
    loop {
        match op() {
            Ok(v) => return Ok(Some(v)),
            Err(e) if e.is_transient() => {
                let Some(delay) = delays.get(attempt) else {
                    return Ok(None);
                };
                *retries += 1;
                *simulated_delay = *simulated_delay + *delay;
                attempt += 1;
            }
            Err(e) => return Err(flatten_platform_error(e)),
        }
    }
}

/// Lowers a non-transient [`PlatformError`] back into the workspace
/// [`Error`] the provider's fallible API speaks.
fn flatten_platform_error(e: PlatformError) -> Error {
    match e {
        PlatformError::Api(e) => e,
        PlatformError::Internal { what } => Error::Internal { what },
        PlatformError::Unavailable { .. } => Error::Internal {
            what: "transient platform error escaped the retry loop".into(),
        },
    }
}

/// Aggregate statistics for one placed Tread, as the platform reports them
/// to the advertiser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreadStats {
    /// Index within the plan.
    pub index: usize,
    /// The Tread (the provider of course knows what it ran).
    pub tread: Tread,
    /// The platform's aggregate report.
    pub report: AdReport,
}

/// Everything the provider can see after a run: per-Tread aggregate
/// reports and its invoice. **No user identities anywhere** — this struct
/// is the formal statement of the §3.1 threat model's "performance
/// statistics reported by the advertising platform".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderView {
    /// Per-Tread aggregate statistics.
    pub stats: Vec<TreadStats>,
    /// The control ad's report, if a control was run.
    pub control_report: Option<AdReport>,
    /// The account's invoice.
    pub invoice: Invoice,
}

/// A transparency provider: an advertiser with a codebook and opt-in
/// machinery.
#[derive(Debug)]
pub struct TransparencyProvider {
    /// Display name (e.g. `"Know Your Data"`).
    pub name: String,
    /// The platform advertiser identity.
    pub advertiser: AdvertiserId,
    /// Accounts held (more than one when crowdsourcing).
    pub accounts: Vec<AccountId>,
    /// The CPM bid cap used for Treads (the paper's validation uses $10,
    /// 5× the $2 recommendation).
    pub bid_cpm: Money,
    /// The codebook shared with opted-in users.
    pub codebook: Codebook,
    /// PII-batch audiences: batch label → audience.
    pii_audiences: BTreeMap<String, AudienceId>,
}

impl TransparencyProvider {
    /// Registers the provider as an advertiser with one account.
    pub fn register(
        platform: &mut Platform,
        name: impl Into<String>,
        codebook_seed: u64,
        bid_cpm: Money,
    ) -> Result<Self> {
        let name = name.into();
        let advertiser = platform.register_advertiser(name.clone());
        let account = platform.open_account(advertiser)?;
        Ok(Self {
            name,
            advertiser,
            accounts: vec![account],
            bid_cpm,
            codebook: Codebook::new(codebook_seed),
            pii_audiences: BTreeMap::new(),
        })
    }

    /// The provider's primary account.
    pub fn account(&self) -> AccountId {
        self.accounts[0]
    }

    /// Opens an additional account (for crowdsourced operation).
    pub fn open_extra_account(&mut self, platform: &mut Platform) -> Result<AccountId> {
        let account = platform.open_account(self.advertiser)?;
        self.accounts.push(account);
        Ok(account)
    }

    /// Page-based opt-in: creates the provider's page and its engagement
    /// audience. Users opt in by liking the page (the validation's
    /// sign-up mechanism).
    pub fn setup_page_optin(&self, platform: &mut Platform) -> Result<(u64, AudienceId)> {
        let page = platform.create_page(self.account(), self.name.clone())?;
        let audience = platform.create_page_audience(self.account(), page)?;
        Ok((page, audience))
    }

    /// Pixel-based anonymous opt-in: creates a tracking pixel (to embed on
    /// the provider's website) and its visitor audience. Users opting in
    /// this way "remain anonymous to the transparency provider".
    pub fn setup_pixel_optin(
        &self,
        platform: &mut Platform,
        label: impl Into<String>,
    ) -> Result<(PixelId, AudienceId)> {
        let pixel = platform.create_pixel(self.account(), label)?;
        let audience = platform.create_pixel_audience(self.account(), pixel)?;
        Ok((pixel, audience))
    }

    /// PII-based opt-in: uploads the hashed identifiers users provided
    /// (already hashed — "the user only needs to provide PII to the
    /// transparency provider in hashed form") as a custom audience under
    /// the given batch label. Fails if fewer users match than the
    /// platform's minimum.
    pub fn upload_pii_batch(
        &mut self,
        platform: &mut Platform,
        batch: impl Into<String>,
        hashes: &[Digest],
    ) -> Result<AudienceId> {
        let audience = platform.create_custom_audience(self.account(), hashes)?;
        self.pii_audiences.insert(batch.into(), audience);
        Ok(audience)
    }

    /// The audience for a PII batch, if uploaded.
    pub fn pii_audience(&self, batch: &str) -> Option<AudienceId> {
        self.pii_audiences.get(batch).copied()
    }

    /// Resolves a Tread's targeting through the *public* catalog — the
    /// provider has no privileged access. `None` when the catalog or the
    /// provider's PII batches lack something the Tread names.
    fn targeting(
        &self,
        platform: &Platform,
        tread: &Tread,
        optin_audience: AudienceId,
    ) -> Option<TargetingSpec> {
        let catalog = &platform.attributes;
        tread.targeting(
            optin_audience,
            |name| catalog.id_of(name),
            |group, bit| {
                let members: Vec<_> = catalog.group(group).iter().map(|d| d.id).collect();
                group_bit_members(&members, bit)
            },
            |batch| self.pii_audiences.get(batch).copied(),
        )
    }

    /// Runs a plan against the opted-in audience under the given account:
    /// one campaign per Tread (so the platform's per-campaign small-spend
    /// waiver applies exactly as in the paper's validation), one ad each.
    pub fn run_plan_as(
        &mut self,
        platform: &mut Platform,
        account: AccountId,
        plan: &CampaignPlan,
        optin_audience: AudienceId,
    ) -> Result<RunReceipt> {
        let mut placed = Vec::with_capacity(plan.len());
        let mut unplaceable = Vec::new();
        for planned in &plan.treads {
            let Some(targeting) = self.targeting(platform, &planned.tread, optin_audience) else {
                unplaceable.push(planned.index);
                continue;
            };
            let creative = planned.tread.build_creative(&mut self.codebook);
            let campaign = platform.create_campaign(
                account,
                format!("{}-{}", plan.name, planned.index),
                self.bid_cpm,
                None,
            )?;
            let ad = platform.submit_ad(campaign, creative, targeting)?;
            let approved = matches!(platform.ad_status(ad)?, AdStatus::Approved);
            placed.push(PlacedTread {
                index: planned.index,
                tread: planned.tread.clone(),
                campaign,
                ad,
                approved,
            });
        }
        Ok(RunReceipt {
            plan_name: plan.name.clone(),
            account,
            placed,
            unplaceable,
            control: None,
        })
    }

    /// Runs a plan under the primary account.
    pub fn run_plan(
        &mut self,
        platform: &mut Platform,
        plan: &CampaignPlan,
        optin_audience: AudienceId,
    ) -> Result<RunReceipt> {
        self.run_plan_as(platform, self.account(), plan, optin_audience)
    }

    /// [`TransparencyProvider::run_plan`] against a flaky platform:
    /// submission calls that brown out (per `faults`' schedule) are
    /// retried with deterministic exponential backoff under `policy`.
    ///
    /// The run is **two-phase**. Phase 1 resolves every Tread's targeting
    /// and builds its creative read-only, so the codebook is identical to
    /// a fault-free run's regardless of where brownouts strike. Phase 2
    /// submits through [`FlakyPlatform`], which fails *before* any
    /// platform effect — so a retry can never double-create. A Tread whose
    /// retry budget runs out lands in [`ResilientReceipt::gave_up`] with
    /// no partial billing; a non-transient error still fails the run.
    ///
    /// With every transient failure retried through, the receipt is
    /// identical to [`TransparencyProvider::run_plan`]'s.
    pub fn run_plan_with_retry(
        &mut self,
        platform: &mut Platform,
        plan: &CampaignPlan,
        optin_audience: AudienceId,
        faults: &FaultPlan,
        policy: &BackoffPolicy,
    ) -> Result<ResilientReceipt> {
        // Phase 1: read-only resolution, exactly as `run_plan_as` does it.
        let mut prepared = Vec::with_capacity(plan.len());
        let mut unplaceable = Vec::new();
        for planned in &plan.treads {
            let Some(targeting) = self.targeting(platform, &planned.tread, optin_audience) else {
                unplaceable.push(planned.index);
                continue;
            };
            prepared.push(PreparedSubmission {
                index: planned.index,
                tread: planned.tread.clone(),
                creative: planned.tread.build_creative(&mut self.codebook),
                targeting,
            });
        }

        // Phase 2: submission through the flaky platform, with per-call
        // retry. One backoff label per (plan, Tread, operation) keeps the
        // jitter schedules independent and the whole run replayable.
        let account = self.account();
        let bid_cpm = self.bid_cpm;
        let mut flaky = FlakyPlatform::new(platform, faults);
        let mut retries = 0u64;
        let mut simulated_delay = Duration::ZERO;
        let mut gave_up = Vec::new();
        let mut placed = Vec::with_capacity(prepared.len());
        for prep in prepared {
            let name = format!("{}-{}", plan.name, prep.index);
            let campaign = retry_call(
                policy,
                faults.seed,
                &format!("{name}-campaign"),
                &mut retries,
                &mut simulated_delay,
                || flaky.create_campaign(account, &name, bid_cpm, None),
            )?;
            let Some(campaign) = campaign else {
                gave_up.push(prep.index);
                continue;
            };
            let ad = retry_call(
                policy,
                faults.seed,
                &format!("{name}-ad"),
                &mut retries,
                &mut simulated_delay,
                || flaky.submit_ad(campaign, prep.creative.clone(), prep.targeting.clone()),
            )?;
            let Some(ad) = ad else {
                // The campaign exists but carries no ad — harmless (it can
                // never bill), and exactly what a real outage leaves behind.
                gave_up.push(prep.index);
                continue;
            };
            let approved = matches!(
                flaky.ad_status(ad).map_err(flatten_platform_error)?,
                AdStatus::Approved
            );
            placed.push(PlacedTread {
                index: prep.index,
                tread: prep.tread,
                campaign,
                ad,
                approved,
            });
        }
        Ok(ResilientReceipt {
            receipt: RunReceipt {
                plan_name: plan.name.clone(),
                account,
                placed,
                unplaceable,
                control: None,
            },
            retries,
            gave_up,
            simulated_delay,
        })
    }

    /// Runs the control ad: targets the opted-in audience with no further
    /// parameters ("to test whether the signed-up users were reachable
    /// with ads"). Attaches it to the receipt.
    pub fn run_control(
        &mut self,
        platform: &mut Platform,
        receipt: &mut RunReceipt,
        optin_audience: AudienceId,
    ) -> Result<AdId> {
        use adplatform::campaign::AdCreative;
        use adplatform::targeting::{TargetingExpr, TargetingSpec};
        let campaign = platform.create_campaign(
            receipt.account,
            format!("{}-control", receipt.plan_name),
            self.bid_cpm,
            None,
        )?;
        let ad = platform.submit_ad(
            campaign,
            AdCreative::text(
                format!("{} (control)", self.name),
                "Thanks for signing up. This is a reachability check.",
            ),
            TargetingSpec::including(TargetingExpr::InAudience(optin_audience)),
        )?;
        receipt.control = Some((campaign, ad));
        Ok(ad)
    }

    /// Collects everything the provider can see for a receipt.
    pub fn view(&self, platform: &Platform, receipt: &RunReceipt) -> Result<ProviderView> {
        let mut stats = Vec::with_capacity(receipt.placed.len());
        for placed in &receipt.placed {
            let report = platform.ad_report(receipt.account, placed.ad)?;
            stats.push(TreadStats {
                index: placed.index,
                tread: placed.tread.clone(),
                report,
            });
        }
        let control_report = match receipt.control {
            Some((_, ad)) => Some(platform.ad_report(receipt.account, ad)?),
            None => None,
        };
        Ok(ProviderView {
            stats,
            control_report,
            invoice: platform.invoice(receipt.account),
        })
    }

    /// Looks up a placed Tread by plan index.
    pub fn placed_by_index(receipt: &RunReceipt, index: usize) -> Result<&PlacedTread> {
        receipt
            .placed
            .iter()
            .find(|p| p.index == index)
            .ok_or_else(|| Error::not_found("placed tread", index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::profile::{Gender, PiiKind, PiiProvenance};
    use adplatform::{Platform, PlatformConfig};

    fn platform() -> Platform {
        let mut catalog = AttributeCatalog::new();
        catalog.register(
            "Net worth: $2M+",
            AttributeSource::Partner {
                broker: "NorthStar Data".into(),
            },
            Some("net_worth".into()),
            0.02,
        );
        catalog.register(
            "Net worth: under $100k",
            AttributeSource::Partner {
                broker: "NorthStar Data".into(),
            },
            Some("net_worth".into()),
            0.2,
        );
        catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                min_custom_audience_size: 2,
                ..PlatformConfig::default()
            },
            catalog,
        )
    }

    fn provider(p: &mut Platform) -> TransparencyProvider {
        TransparencyProvider::register(p, "Know Your Data", 7, Money::dollars(10))
            .expect("registers")
    }

    #[test]
    fn register_and_page_optin() {
        let mut p = platform();
        let prov = provider(&mut p);
        let (page, audience) = prov.setup_page_optin(&mut p).expect("optin");
        let user = p.register_user(30, Gender::Female, "Ohio", "43004");
        p.user_likes_page(user, page).expect("like");
        assert!(p.audiences.get(audience).expect("aud").contains(user));
    }

    #[test]
    fn run_plan_places_one_campaign_per_tread() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let (_, audience) = prov.setup_page_optin(&mut p).expect("optin");
        let plan = CampaignPlan::binary_in_ad(
            "nw",
            &["Net worth: $2M+", "Interest: coffee"],
            Encoding::CodebookToken,
        );
        let receipt = prov.run_plan(&mut p, &plan, audience).expect("run");
        assert_eq!(receipt.placed.len(), 2);
        assert_eq!(receipt.approved_count(), 2);
        assert!(receipt.unplaceable.is_empty());
        // Distinct campaigns per Tread.
        let camps: std::collections::BTreeSet<_> =
            receipt.placed.iter().map(|pl| pl.campaign).collect();
        assert_eq!(camps.len(), 2);
        // The codebook now covers both disclosures.
        assert_eq!(prov.codebook.len(), 2);
    }

    #[test]
    fn unknown_attributes_are_unplaceable() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let (_, audience) = prov.setup_page_optin(&mut p).expect("optin");
        let plan =
            CampaignPlan::binary_in_ad("bad", &["No such attribute"], Encoding::CodebookToken);
        let receipt = prov.run_plan(&mut p, &plan, audience).expect("run");
        assert!(receipt.placed.is_empty());
        assert_eq!(receipt.unplaceable, vec![0]);
    }

    #[test]
    fn explicit_treads_get_rejected_by_policy() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let (_, audience) = prov.setup_page_optin(&mut p).expect("optin");
        let plan = CampaignPlan::binary_in_ad("explicit", &["Net worth: $2M+"], Encoding::Explicit);
        let receipt = prov.run_plan(&mut p, &plan, audience).expect("run");
        assert_eq!(receipt.rejected_count(), 1);
        assert_eq!(receipt.approved_count(), 0);
    }

    #[test]
    fn end_to_end_delivery_and_view() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let (page, audience) = prov.setup_page_optin(&mut p).expect("optin");
        // One opted-in user with the attribute, one without.
        let rich = p.register_user(50, Gender::Male, "Vermont", "05401");
        let broke = p.register_user(25, Gender::Male, "Vermont", "05401");
        let nw = p.attributes.id_of("Net worth: $2M+").expect("attr");
        p.profiles.grant_attribute(rich, nw).expect("grant");
        p.user_likes_page(rich, page).expect("like");
        p.user_likes_page(broke, page).expect("like");

        let plan = CampaignPlan::binary_in_ad("nw", &["Net worth: $2M+"], Encoding::CodebookToken);
        let mut receipt = prov.run_plan(&mut p, &plan, audience).expect("run");
        prov.run_control(&mut p, &mut receipt, audience)
            .expect("control");

        // Drive browsing for both users.
        for _ in 0..4 {
            p.browse(rich).expect("browse");
            p.browse(broke).expect("browse");
        }
        let view = prov.view(&p, &receipt).expect("view");
        // The Tread reached only the rich user; control reached both.
        assert_eq!(view.stats.len(), 1);
        assert!(view.stats[0].report.impressions >= 1);
        let control = view.control_report.expect("control ran");
        assert!(control.impressions >= 2);
        // The platform log confirms the delivery contract.
        let tread_ad = receipt.placed[0].ad;
        assert!(p.log.seen_by(broke).iter().all(|i| i.ad != tread_ad));
        assert!(p.log.seen_by(rich).iter().any(|i| i.ad == tread_ad));
        // Reach is reported below-floor (2 users << 1000): aggregate only.
        assert!(view.stats[0].report.below_reach_floor);
    }

    #[test]
    fn pii_batch_upload_and_targeting() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let (_, audience) = prov.setup_page_optin(&mut p).expect("optin");
        // Two users whose phones the platform knows (one via 2FA).
        let mut hashes = Vec::new();
        for (i, prov_kind) in [PiiProvenance::TwoFactor, PiiProvenance::UserProvided]
            .iter()
            .enumerate()
        {
            let u = p.register_user(30, Gender::Female, "Ohio", "43004");
            let digest = p
                .attach_user_pii(u, PiiKind::Phone, &format!("+1-555-010{i}"), *prov_kind)
                .expect("attach");
            hashes.push(digest);
        }
        let aud = prov
            .upload_pii_batch(&mut p, "phone-batch-1", &hashes)
            .expect("upload");
        assert_eq!(prov.pii_audience("phone-batch-1"), Some(aud));
        // A PII Tread for the batch is placeable.
        let plan = CampaignPlan {
            name: "pii".into(),
            treads: vec![crate::planner::PlannedTread {
                index: 0,
                tread: Tread::in_ad(
                    crate::disclosure::Disclosure::HasPii {
                        batch: "phone-batch-1".into(),
                    },
                    Encoding::CodebookToken,
                ),
            }],
        };
        let receipt = prov.run_plan(&mut p, &plan, audience).expect("run");
        assert_eq!(receipt.approved_count(), 1);
    }

    #[test]
    fn retried_run_matches_fault_free_run() {
        // The same plan, once fault-free and once through a brownout that
        // the retry budget covers: identical receipts (the byte-identical
        // replay claim, at the provider layer).
        let plan = CampaignPlan::binary_in_ad(
            "nw",
            &["Net worth: $2M+", "Interest: coffee"],
            Encoding::CodebookToken,
        );
        let run = |faults: &FaultPlan| {
            let mut p = platform();
            let mut prov = provider(&mut p);
            let (_, audience) = prov.setup_page_optin(&mut p).expect("optin");
            let r = prov
                .run_plan_with_retry(&mut p, &plan, audience, faults, &BackoffPolicy::default())
                .expect("run");
            (r, prov.codebook.len())
        };
        let (clean, clean_codebook) = run(&FaultPlan::new());
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.simulated_delay, Duration::ZERO);
        // Calls: (campaign + ad) per Tread = 4; brown out calls 1..=3.
        let (flaky, flaky_codebook) = run(&FaultPlan::new().brownout(1, 3));
        assert_eq!(flaky.retries, 3);
        assert!(flaky.simulated_delay >= Duration::ZERO);
        assert!(flaky.gave_up.is_empty());
        assert_eq!(flaky.receipt, clean.receipt);
        assert_eq!(flaky_codebook, clean_codebook);
        // And the whole thing replays exactly.
        let (again, _) = run(&FaultPlan::new().brownout(1, 3));
        assert_eq!(again.retries, flaky.retries);
        assert_eq!(again.simulated_delay, flaky.simulated_delay);
    }

    #[test]
    fn exhausted_retry_budget_degrades_gracefully() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let (_, audience) = prov.setup_page_optin(&mut p).expect("optin");
        let plan = CampaignPlan::binary_in_ad(
            "nw",
            &["Net worth: $2M+", "Interest: coffee"],
            Encoding::CodebookToken,
        );
        // A brownout longer than the whole retry budget, starting at the
        // first Tread's ad submission: Tread 0 is abandoned mid-way.
        let policy = BackoffPolicy {
            max_retries: 2,
            ..BackoffPolicy::default()
        };
        let long_outage = FaultPlan::new().brownout(1, 3);
        let r = prov
            .run_plan_with_retry(&mut p, &plan, audience, &long_outage, &policy)
            .expect("run");
        assert_eq!(r.gave_up, vec![0]);
        assert_eq!(r.retries, 2);
        // Tread 1 placed normally once the outage ended.
        assert_eq!(r.receipt.placed.len(), 1);
        assert_eq!(r.receipt.placed[0].index, 1);
        // The abandoned Tread's orphan campaign never bills.
        assert_eq!(
            p.billing.account_spend(r.receipt.account),
            adsim_types::Money::ZERO
        );
    }

    #[test]
    fn extra_accounts_share_the_advertiser() {
        let mut p = platform();
        let mut prov = provider(&mut p);
        let a2 = prov.open_extra_account(&mut p).expect("account");
        assert_eq!(prov.accounts.len(), 2);
        assert_ne!(prov.account(), a2);
    }
}
