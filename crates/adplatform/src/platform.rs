//! The platform façade.
//!
//! [`Platform`] wires every store together behind the two API surfaces the
//! rest of the workspace uses:
//!
//! * the **advertiser API** (what a transparency provider or any other
//!   advertiser can call): open accounts, create pixels/pages/audiences,
//!   create campaigns, submit ads (which pass through policy review),
//!   read aggregate reports and invoices;
//! * the **simulation API** (what `websim` drives): users like pages,
//!   visit pixel-instrumented sites, and generate impression opportunities.
//!
//! The façade owns the platform's privacy posture: nothing it exposes to
//! advertisers ever names an individual user.

use crate::attributes::AttributeCatalog;
use crate::auction::AuctionConfig;
use crate::audience::{AudienceStore, ReachEstimate};
use crate::billing::{BillingLedger, BudgetView, Invoice};
use crate::campaign::{AdCreative, AdStatus, CampaignStore};
use crate::delivery::{
    self, apply_impression, candidate_verdicts, decide_opportunity_traced_with_scratch,
    CandidateVerdict, DeliveryScratch, DeliveryStats, FrequencyCaps, MatchSet, PendingImpression,
    TracedDecision,
};
use crate::enforcement::{scan_account, EnforcementConfig, SuspicionReport};
use crate::pages::PageRegistry;
use crate::pixel::PixelRegistry;
use crate::policy::{PolicyEngine, Strictness};
use crate::profile::{Gender, PiiKind, PiiProvenance, ProfileStore, UserProfile};
use crate::reporting::{AdReport, ImpressionLog};
use crate::targeting::TargetingSpec;
use crate::transparency::{ad_preferences, explain_ad, Explanation};
use adsim_types::hash::Digest;
use adsim_types::rng::SeedSource;
use adsim_types::{
    AccountId, AdId, AdvertiserId, AudienceId, CampaignId, Error, Money, PixelId, Result, SimClock,
    SimTime, UserId,
};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// Platform-wide configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Experiment seed; all platform randomness derives from it.
    pub seed: u64,
    /// Minimum matched size for custom (PII) audiences.
    pub min_custom_audience_size: usize,
    /// Reach estimates below this report as "below floor".
    pub reach_floor: usize,
    /// Reach estimates round down to a multiple of this.
    pub reach_granularity: usize,
    /// Campaigns with accrued spend under this are not invoiced.
    pub small_spend_waiver: Money,
    /// Max impressions of one ad per user.
    pub frequency_cap: u32,
    /// Auction environment.
    pub auction: AuctionConfig,
    /// Policy review strictness.
    pub strictness: Strictness,
    /// Enforcement detector parameters.
    pub enforcement: EnforcementConfig,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::facebook_like(0)
    }
}

impl PlatformConfig {
    /// A Facebook-shaped platform: 20-user custom-audience minimum, $2 CPM
    /// recommended-bid environment — the paper's validation substrate.
    pub fn facebook_like(seed: u64) -> Self {
        Self {
            seed,
            min_custom_audience_size: 20,
            reach_floor: 1000,
            reach_granularity: 100,
            small_spend_waiver: Money::cents(5),
            frequency_cap: 2,
            auction: AuctionConfig::default(),
            strictness: Strictness::Standard,
            enforcement: EnforcementConfig::default(),
        }
    }

    /// A Google-shaped platform: Customer Match requires far larger
    /// uploads (modeled as a 1000-user minimum) and the display
    /// ecosystem's competition skews cheaper.
    pub fn google_like(seed: u64) -> Self {
        Self {
            min_custom_audience_size: 1000,
            reach_floor: 1000,
            reach_granularity: 1000,
            auction: AuctionConfig {
                competitor_cpm_median: Money::dollars(1),
                ..AuctionConfig::default()
            },
            ..Self::facebook_like(seed)
        }
    }

    /// A Twitter-shaped platform: tailored audiences with a mid-size
    /// minimum (modeled as 100) and a pricier auction.
    pub fn twitter_like(seed: u64) -> Self {
        Self {
            min_custom_audience_size: 100,
            reach_floor: 500,
            reach_granularity: 100,
            auction: AuctionConfig {
                competitor_cpm_median: Money::dollars(3),
                ..AuctionConfig::default()
            },
            ..Self::facebook_like(seed)
        }
    }
}

/// The assembled ad platform.
#[derive(Debug)]
pub struct Platform {
    /// Configuration the platform was booted with.
    pub config: PlatformConfig,
    /// The simulated clock (advanced by the simulation driver).
    pub clock: SimClock,
    /// Targeting-attribute catalog.
    pub attributes: AttributeCatalog,
    /// User store.
    pub profiles: ProfileStore,
    /// Saved audiences.
    pub audiences: AudienceStore,
    /// Tracking pixels.
    pub pixels: PixelRegistry,
    /// Advertiser pages.
    pub pages: PageRegistry,
    /// Campaigns and ads.
    pub campaigns: CampaignStore,
    /// Billing ledger.
    pub billing: BillingLedger,
    /// Frequency caps.
    pub freq: FrequencyCaps,
    /// Exact impression log (platform-internal).
    pub log: ImpressionLog,
    /// Delivery statistics.
    pub stats: DeliveryStats,
    /// Policy reviewer.
    pub policy: PolicyEngine,
    /// Suspended accounts.
    pub suspended: BTreeSet<AccountId>,
    advertisers: BTreeMap<AdvertiserId, String>,
    accounts: BTreeMap<AccountId, AdvertiserId>,
    next_advertiser: u64,
    next_account: u64,
    rng_auction: StdRng,
    rng_enforcement: StdRng,
    /// Working memory for [`Platform::browse`]'s decides, so the live
    /// path allocates nothing in steady state. Pure scratch: cleared
    /// before each use and never part of the platform's state.
    scratch: DeliveryScratch,
}

impl Platform {
    /// Boots a platform with the given config and attribute catalog.
    pub fn new(config: PlatformConfig, attributes: AttributeCatalog) -> Self {
        let seeds = SeedSource::new(config.seed);
        let policy = PolicyEngine::new(config.strictness, &attributes);
        Self {
            clock: SimClock::new(),
            profiles: {
                let mut p = ProfileStore::new();
                // Catalog ids are dense (1..=len), so sizing the facet
                // bitsets to the catalog means profile registration never
                // regrows them for in-catalog attributes.
                p.size_attribute_bitsets(attributes.len() as u64);
                p
            },
            attributes,
            audiences: AudienceStore::new(
                config.min_custom_audience_size,
                config.reach_floor,
                config.reach_granularity,
            ),
            pixels: PixelRegistry::new(),
            pages: PageRegistry::new(),
            campaigns: CampaignStore::new(),
            billing: BillingLedger::new(config.small_spend_waiver),
            freq: FrequencyCaps::new(config.frequency_cap),
            log: ImpressionLog::new(),
            stats: DeliveryStats::default(),
            policy,
            suspended: BTreeSet::new(),
            advertisers: BTreeMap::new(),
            accounts: BTreeMap::new(),
            next_advertiser: 0,
            next_account: 0,
            rng_auction: seeds.rng("platform-auction"),
            rng_enforcement: seeds.rng("platform-enforcement"),
            scratch: DeliveryScratch::new(),
            config,
        }
    }

    /// Boots the paper's U.S.-2018 platform: 614 platform attributes + the
    /// 507-partner-category catalog.
    pub fn us_2018(config: PlatformConfig) -> Self {
        let partner = treads_broker::PartnerCatalog::us();
        Self::new(config, AttributeCatalog::us_2018(&partner))
    }

    // ------------------------------------------------------------------
    // Advertiser API
    // ------------------------------------------------------------------

    /// Registers an advertiser ("anyone can be an advertiser on most major
    /// advertising platforms").
    pub fn register_advertiser(&mut self, name: impl Into<String>) -> AdvertiserId {
        self.next_advertiser += 1;
        let id = AdvertiserId(self.next_advertiser);
        self.advertisers.insert(id, name.into());
        id
    }

    /// Opens an advertiser account. One advertiser may hold many accounts —
    /// the crowdsourcing experiment relies on this.
    pub fn open_account(&mut self, advertiser: AdvertiserId) -> Result<AccountId> {
        if !self.advertisers.contains_key(&advertiser) {
            return Err(Error::not_found("advertiser", advertiser));
        }
        self.next_account += 1;
        let id = AccountId(self.next_account);
        self.accounts.insert(id, advertiser);
        Ok(id)
    }

    /// Creates a custom audience from uploaded hashed PII. Enforces the
    /// platform's minimum matched size.
    pub fn create_custom_audience(
        &mut self,
        account: AccountId,
        digests: &[Digest],
    ) -> Result<AudienceId> {
        self.require_active(account)?;
        let profiles = &self.profiles;
        self.audiences
            .create_custom(account, digests, |d| profiles.match_pii(d).to_vec())
    }

    /// Creates a Google-style custom-intent audience from descriptive
    /// phrases: the platform matches users whose attribute names contain
    /// any phrase (case-insensitive).
    pub fn create_intent_audience(
        &mut self,
        account: AccountId,
        phrases: Vec<String>,
    ) -> Result<AudienceId> {
        self.require_active(account)?;
        let profiles = &self.profiles;
        let attributes = &self.attributes;
        self.audiences
            .create_intent_audience(account, phrases, |phrases| {
                let needles: Vec<String> = phrases.iter().map(|p| p.to_lowercase()).collect();
                profiles
                    .iter()
                    .filter(|user| {
                        user.attributes.iter().any(|&id| {
                            attributes
                                .get(id)
                                .map(|d| {
                                    let name = d.name.to_lowercase();
                                    needles.iter().any(|n| name.contains(n.as_str()))
                                })
                                .unwrap_or(false)
                        })
                    })
                    .map(|user| user.id)
                    .collect()
            })
    }

    /// Creates a tracking pixel the account can embed on external sites.
    pub fn create_pixel(
        &mut self,
        account: AccountId,
        label: impl Into<String>,
    ) -> Result<PixelId> {
        self.require_active(account)?;
        Ok(self.pixels.create(account, label))
    }

    /// Creates a visitor audience fed by a pixel.
    pub fn create_pixel_audience(
        &mut self,
        account: AccountId,
        pixel: PixelId,
    ) -> Result<AudienceId> {
        self.require_active(account)?;
        self.pixels.get(pixel)?;
        Ok(self.audiences.create_pixel_audience(account, pixel))
    }

    /// Creates a page owned by the account.
    pub fn create_page(&mut self, account: AccountId, name: impl Into<String>) -> Result<u64> {
        self.require_active(account)?;
        Ok(self.pages.create(account, name))
    }

    /// Creates an engagement audience fed by a page's likes.
    pub fn create_page_audience(&mut self, account: AccountId, page: u64) -> Result<AudienceId> {
        self.require_active(account)?;
        self.pages.get(page)?;
        Ok(self.audiences.create_page_audience(account, page))
    }

    /// Creates a campaign.
    pub fn create_campaign(
        &mut self,
        account: AccountId,
        name: impl Into<String>,
        bid_cpm: Money,
        budget: Option<Money>,
    ) -> Result<CampaignId> {
        self.require_active(account)?;
        Ok(self
            .campaigns
            .create_campaign(account, name, bid_cpm, budget))
    }

    /// Submits an ad: the creative passes through policy review and the ad
    /// is created as Approved or Rejected accordingly. Returns the ad id
    /// either way (rejected ads are visible to the advertiser with the
    /// reviewer's reason, as on real platforms).
    pub fn submit_ad(
        &mut self,
        campaign: CampaignId,
        creative: AdCreative,
        targeting: TargetingSpec,
    ) -> Result<AdId> {
        let account = self.campaigns.campaign(campaign)?.account;
        self.require_active(account)?;
        // Saved audiences are account-scoped on real platforms: an ad may
        // only target audiences its own account created.
        for aud in targeting.referenced_audiences() {
            let owner = self.audiences.get(aud)?.owner;
            if owner != account {
                return Err(Error::invalid(format!(
                    "targeting references audience {aud} owned by {owner}, not {account}"
                )));
            }
        }
        let review = self.policy.review(&creative);
        // Compiling against the profile store's table is what keeps spec
        // symbols and profile-facet symbols comparable.
        let ad =
            self.campaigns
                .create_ad(campaign, creative, targeting, self.profiles.symbols_mut())?;
        self.campaigns.ad_mut(ad)?.status = match review {
            Ok(()) => AdStatus::Approved,
            Err(Error::PolicyViolation { reason }) => AdStatus::Rejected { reason },
            Err(other) => return Err(other),
        };
        Ok(ad)
    }

    /// The review status of an ad.
    pub fn ad_status(&self, ad: AdId) -> Result<&AdStatus> {
        Ok(&self.campaigns.ad(ad)?.status)
    }

    /// Advertiser-visible report for an ad. Ownership-checked: accounts can
    /// only read their own ads' reports.
    pub fn ad_report(&self, account: AccountId, ad: AdId) -> Result<AdReport> {
        let owner = self
            .campaigns
            .ad(ad)
            .and_then(|a| self.campaigns.campaign(a.campaign))?
            .account;
        if owner != account {
            return Err(Error::invalid("report requested by non-owner account"));
        }
        Ok(self
            .log
            .report_ad(ad, self.config.reach_floor, self.config.reach_granularity))
    }

    /// Advertiser-visible reach estimate for an audience (owner only).
    pub fn estimate_reach(
        &self,
        account: AccountId,
        audience: AudienceId,
    ) -> Result<ReachEstimate> {
        if self.audiences.get(audience)?.owner != account {
            return Err(Error::invalid("reach requested by non-owner account"));
        }
        self.audiences.estimate_reach(audience)
    }

    /// The account's invoice (small-spend waiver applied).
    pub fn invoice(&self, account: AccountId) -> Invoice {
        self.billing.invoice(account)
    }

    // ------------------------------------------------------------------
    // Simulation API (driven by websim / workload)
    // ------------------------------------------------------------------

    /// Registers a platform user.
    pub fn register_user(&mut self, age: u8, gender: Gender, state: &str, zip: &str) -> UserId {
        self.profiles.register(age, gender, state, zip)
    }

    /// Attaches raw PII to a user (normalized + hashed internally).
    pub fn attach_user_pii(
        &mut self,
        user: UserId,
        kind: PiiKind,
        raw: &str,
        provenance: PiiProvenance,
    ) -> Result<Digest> {
        self.profiles.attach_pii(user, kind, raw, provenance)
    }

    /// The platform locates a user in a ZIP code (check-in, location
    /// services) — the observation behind recent-location targeting.
    pub fn record_user_location(&mut self, user: UserId, zip: &str) -> Result<()> {
        self.profiles.record_zip_visit(user, zip)
    }

    /// A user likes a page; engagement audiences update.
    pub fn user_likes_page(&mut self, user: UserId, page: u64) -> Result<()> {
        self.pages.get(page)?;
        self.profiles.like_page(user, page)?;
        self.audiences.record_page_like(page, user);
        Ok(())
    }

    /// A user loads a page carrying a tracking pixel; visitor audiences
    /// update.
    pub fn user_fires_pixel(&mut self, user: UserId, pixel: PixelId) -> Result<()> {
        let at = self.clock.now();
        self.apply_pixel_fire(user, pixel, at)
    }

    /// Records a pixel fire at an explicit instant (the engine replays
    /// batched shard events through this, each carrying its own timestamp).
    pub fn apply_pixel_fire(&mut self, user: UserId, pixel: PixelId, at: SimTime) -> Result<()> {
        record_pixel_fire(
            &self.profiles,
            &mut self.pixels,
            &mut self.audiences,
            user,
            pixel,
            at,
        )
    }

    /// A user generates one impression opportunity (they are browsing and
    /// an ad slot renders). Runs the full auction/delivery path: decide
    /// against live state, apply immediately. A win charges the live
    /// ledger at once, so every opportunity runs both stages of the
    /// eligibility chain afresh.
    pub fn browse(&mut self, user: UserId) -> Result<crate::auction::AuctionOutcome> {
        // Config is the source of truth for the cap; keep the live counter
        // in sync so experiments can adjust it mid-run.
        self.freq.cap = self.config.frequency_cap;
        let at = self.clock.now();
        let profile = self.profiles.get(user)?;
        self.stats.opportunities += 1;
        let decision = decide_opportunity_traced_with_scratch(
            profile,
            at,
            &self.campaigns,
            &self.audiences,
            &self.suspended,
            &self.billing,
            &self.freq,
            &self.config.auction,
            &mut self.rng_auction,
            &mut self.scratch,
        )
        .decision;
        match decision.outcome {
            crate::auction::AuctionOutcome::Won { .. } => {
                self.stats.won += 1;
                // A win must carry its impression; a decide-path bug here
                // is reported, not a panic, so one bad opportunity cannot
                // abort a multi-day run.
                let pending = decision.pending.ok_or_else(|| Error::Internal {
                    what: "auction win carried no pending impression".into(),
                })?;
                apply_impression(&pending, &mut self.billing, &mut self.freq, &mut self.log);
            }
            crate::auction::AuctionOutcome::LostToBackground => {
                self.stats.lost_to_background += 1;
            }
            crate::auction::AuctionOutcome::Unfilled => self.stats.unfilled += 1,
        }
        Ok(decision.outcome)
    }

    /// The **read-only** half of [`Platform::browse`], for callers that own
    /// their mutable delivery state: eligibility and the auction run
    /// against `&self` (catalog, campaigns, audiences, suspensions) plus
    /// the caller's budget view, frequency caps, RNG and working memory.
    /// Nothing on the platform is mutated; a win is folded in later via
    /// [`Platform::apply_impression`]. Each call runs both stages of the
    /// eligibility chain; the engine and serving split them with
    /// [`Platform::match_set_into`] and [`Platform::decide_slot`]. A
    /// caller that keeps one `scratch` per thread decides opportunities
    /// without allocating.
    pub fn decide_browse_traced_with_scratch<B: BudgetView, R: rand::Rng>(
        &self,
        user: UserId,
        at: SimTime,
        budget: &B,
        freq: &FrequencyCaps,
        rng: &mut R,
        scratch: &mut DeliveryScratch,
    ) -> Result<TracedDecision> {
        let profile = self.profiles.get(user)?;
        Ok(decide_opportunity_traced_with_scratch(
            profile,
            at,
            &self.campaigns,
            &self.audiences,
            &self.suspended,
            budget,
            freq,
            &self.config.auction,
            rng,
            scratch,
        ))
    }

    /// Stage 1 of deciding `user`'s opportunities (see [`MatchSet`]):
    /// candidate selection and every eligibility filter but the
    /// frequency cap, against `&self` and `budget`, rebuilt into `set`.
    /// While neither the platform nor `budget` changes — an engine tick
    /// against its frozen budget snapshot — one build serves every one of
    /// the user's slots through [`Platform::decide_slot`].
    pub fn match_set_into<B: BudgetView>(
        &self,
        user: UserId,
        budget: &B,
        set: &mut MatchSet,
    ) -> Result<()> {
        let profile = self.profiles.get(user)?;
        delivery::match_set_into(
            profile,
            &self.campaigns,
            &self.audiences,
            &self.suspended,
            budget,
            set,
        );
        Ok(())
    }

    /// Stage 2: decides one slot shown at `at` to `set`'s user, applying
    /// the caller's frequency caps to the set's pre-cap bids and running
    /// the auction. Against the platform and budget `set` was built from,
    /// this equals [`Platform::decide_browse_traced_with_scratch`]: the
    /// same decision, eligibility census, auction trace and RNG draws.
    pub fn decide_slot<R: rand::Rng>(
        &self,
        set: &MatchSet,
        at: SimTime,
        freq: &FrequencyCaps,
        rng: &mut R,
        scratch: &mut DeliveryScratch,
    ) -> TracedDecision {
        delivery::decide_slot(
            set,
            at,
            &self.campaigns,
            freq,
            &self.config.auction,
            rng,
            &mut scratch.bids,
        )
    }

    /// Re-derives per-candidate filter verdicts for one opportunity —
    /// the same examined set and filter order as
    /// [`Platform::decide_browse_traced_with_scratch`], reported per ad.
    /// RNG-free and read-only: trace builders call it for sampled
    /// requests only, so it must never affect the decision path.
    pub fn candidate_verdicts<B: BudgetView>(
        &self,
        user: UserId,
        budget: &B,
        freq: &FrequencyCaps,
    ) -> Result<Vec<CandidateVerdict>> {
        let profile = self.profiles.get(user)?;
        Ok(candidate_verdicts(
            profile,
            &self.campaigns,
            &self.audiences,
            &self.suspended,
            budget,
            freq,
        ))
    }

    /// The **write** half of [`Platform::browse`]: charges billing, bumps
    /// the (global) frequency counter, and records the impression in the
    /// platform log. Counterpart of [`Platform::decide_slot`]; delivery
    /// statistics are *not* touched — batch callers account for those
    /// themselves, per shard.
    pub fn apply_impression(&mut self, pending: &PendingImpression) -> Money {
        apply_impression(pending, &mut self.billing, &mut self.freq, &mut self.log)
    }

    /// Onboards a data-broker feed: every user's hashed PII is matched
    /// against the feed and matching dossier attributes become partner
    /// attributes on the user. Attributes missing from the catalog are
    /// skipped (the broker may assert things the platform does not sell).
    pub fn onboard_broker_feed(&mut self, feed: &treads_broker::BrokerFeed) -> usize {
        let mut grants = 0usize;
        let users: Vec<UserId> = self.profiles.ids();
        for user in users {
            let (emails, phones) = {
                // `ids()` just listed this user; if the profile store
                // disagrees with itself, skip the user rather than abort
                // the whole onboarding pass.
                let Ok(profile) = self.profiles.get(user) else {
                    continue;
                };
                (
                    profile
                        .hashed_emails()
                        .into_iter()
                        .copied()
                        .collect::<Vec<_>>(),
                    profile
                        .hashed_phones()
                        .into_iter()
                        .copied()
                        .collect::<Vec<_>>(),
                )
            };
            let outcome = feed.match_user(emails.first(), phones.first());
            if let treads_broker::MatchOutcome::Matched { attributes, .. } = outcome {
                for name in attributes {
                    if let Some(id) = self.attributes.id_of(&name) {
                        if self.profiles.grant_attribute(user, id).is_ok() {
                            grants += 1;
                        }
                    }
                }
            }
        }
        grants
    }

    // ------------------------------------------------------------------
    // User-facing transparency (the platform's own, incomplete, view)
    // ------------------------------------------------------------------

    /// The user's ad-preferences page (hides partner attributes).
    pub fn user_ad_preferences(&self, user: UserId) -> Result<Vec<String>> {
        let profile = self.profiles.get(user)?;
        Ok(ad_preferences(profile, &self.attributes)
            .into_iter()
            .map(|d| d.name.clone())
            .collect())
    }

    /// The platform's "why am I seeing this?" explanation.
    pub fn explain(&self, ad: AdId, user: UserId) -> Result<Explanation> {
        let ad = self.campaigns.ad(ad)?;
        let profile = self.profiles.get(user)?;
        Ok(explain_ad(ad, profile, &self.attributes, &self.audiences))
    }

    // ------------------------------------------------------------------
    // Enforcement
    // ------------------------------------------------------------------

    /// Scans every account and suspends the flagged ones. Returns the
    /// per-account reports.
    pub fn run_enforcement_sweep(&mut self) -> Vec<SuspicionReport> {
        let accounts: Vec<AccountId> = self.accounts.keys().copied().collect();
        let mut reports = Vec::with_capacity(accounts.len());
        for account in accounts {
            let report = scan_account(
                account,
                &self.campaigns,
                &self.policy,
                &self.config.enforcement,
                &mut self.rng_enforcement,
            );
            if report.flagged() {
                self.suspended.insert(account);
            }
            reports.push(report);
        }
        reports
    }

    /// True if an account exists and is not suspended.
    pub fn require_active(&self, account: AccountId) -> Result<()> {
        if !self.accounts.contains_key(&account) {
            return Err(Error::not_found("account", account));
        }
        if self.suspended.contains(&account) {
            return Err(Error::AccountSuspended {
                account: account.to_string(),
            });
        }
        Ok(())
    }

    /// Direct profile access for test assertions and the user-side
    /// simulation (not part of the advertiser API).
    pub fn profile(&self, user: UserId) -> Result<&UserProfile> {
        self.profiles.get(user)
    }
}

/// [`Platform::apply_pixel_fire`] on the three stores it touches, so a
/// caller holding the platform's fields apart (the engine's tick fold)
/// runs the same operation. A fire from an unknown user or of an
/// unregistered pixel changes nothing.
pub fn record_pixel_fire(
    profiles: &ProfileStore,
    pixels: &mut PixelRegistry,
    audiences: &mut AudienceStore,
    user: UserId,
    pixel: PixelId,
    at: SimTime,
) -> Result<()> {
    profiles.get(user)?;
    pixels.record(pixel, user, at)?;
    audiences.record_pixel_visit(pixel, user);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targeting::TargetingExpr;

    fn small_platform() -> Platform {
        // A small catalog keeps these tests fast; the full us_2018 boot is
        // covered in the integration tests.
        let mut catalog = AttributeCatalog::new();
        catalog.register(
            "Interest: coffee",
            crate::attributes::AttributeSource::Platform,
            None,
            0.3,
        );
        catalog.register(
            "Net worth: $2M+",
            crate::attributes::AttributeSource::Partner {
                broker: "NorthStar Data".into(),
            },
            None,
            0.02,
        );
        let config = PlatformConfig {
            auction: AuctionConfig {
                competitor_rate: 0.0,
                ..AuctionConfig::default()
            },
            ..PlatformConfig::default()
        };
        Platform::new(config, catalog)
    }

    #[test]
    fn advertiser_account_lifecycle() {
        let mut p = small_platform();
        let adv = p.register_advertiser("Know Your Data");
        let acct = p.open_account(adv).expect("account");
        assert!(p.require_active(acct).is_ok());
        assert!(p.open_account(AdvertiserId(99)).is_err());
        p.suspended.insert(acct);
        assert!(matches!(
            p.require_active(acct),
            Err(Error::AccountSuspended { .. })
        ));
    }

    #[test]
    fn end_to_end_targeted_delivery() {
        let mut p = small_platform();
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let user = p.register_user(33, Gender::Female, "Vermont", "05401");
        let coffee = p.attributes.id_of("Interest: coffee").expect("attr");
        p.profiles.grant_attribute(user, coffee).expect("grant");

        let camp = p
            .create_campaign(acct, "c", Money::dollars(10), None)
            .expect("campaign");
        let ad = p
            .submit_ad(
                camp,
                AdCreative::text("Coffee deals", "Great beans."),
                TargetingSpec::including(TargetingExpr::Attr(coffee)),
            )
            .expect("ad");
        assert_eq!(p.ad_status(ad).expect("status"), &AdStatus::Approved);

        assert!(matches!(
            p.browse(user).expect("browse"),
            crate::auction::AuctionOutcome::Won { .. }
        ));
        let report = p.ad_report(acct, ad).expect("report");
        assert_eq!(report.impressions, 1);
        assert!(report.below_reach_floor);
    }

    #[test]
    fn policy_rejection_at_submission() {
        let mut p = small_platform();
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(2), None)
            .expect("campaign");
        let ad = p
            .submit_ad(
                camp,
                AdCreative::text("About you", "You are interested in coffee"),
                TargetingSpec::including(TargetingExpr::Everyone),
            )
            .expect("submission succeeds; ad is rejected");
        assert!(matches!(
            p.ad_status(ad).expect("status"),
            AdStatus::Rejected { .. }
        ));
        // Rejected ads never deliver.
        let user = p.register_user(30, Gender::Male, "Texas", "73301");
        assert!(matches!(
            p.browse(user).expect("browse"),
            crate::auction::AuctionOutcome::Unfilled
        ));
    }

    #[test]
    fn page_like_feeds_engagement_audience() {
        let mut p = small_platform();
        let adv = p.register_advertiser("provider");
        let acct = p.open_account(adv).expect("account");
        let page = p.create_page(acct, "Know Your Data").expect("page");
        let audience = p.create_page_audience(acct, page).expect("audience");
        let user = p.register_user(28, Gender::Female, "Ohio", "43004");
        p.user_likes_page(user, page).expect("like");
        assert!(p.audiences.get(audience).expect("aud").contains(user));
        // Liking a nonexistent page errors.
        assert!(p.user_likes_page(user, 999).is_err());
    }

    #[test]
    fn pixel_fire_feeds_visitor_audience() {
        let mut p = small_platform();
        let adv = p.register_advertiser("provider");
        let acct = p.open_account(adv).expect("account");
        let pixel = p.create_pixel(acct, "optin").expect("pixel");
        let audience = p.create_pixel_audience(acct, pixel).expect("audience");
        let user = p.register_user(28, Gender::Female, "Ohio", "43004");
        p.user_fires_pixel(user, pixel).expect("fire");
        assert!(p.audiences.get(audience).expect("aud").contains(user));
    }

    #[test]
    fn custom_audience_via_platform_requires_min_match() {
        let mut p = small_platform();
        let adv = p.register_advertiser("provider");
        let acct = p.open_account(adv).expect("account");
        let user = p.register_user(28, Gender::Female, "Ohio", "43004");
        let digest = p
            .attach_user_pii(
                user,
                PiiKind::Email,
                "a@example.com",
                PiiProvenance::UserProvided,
            )
            .expect("attach");
        // Only 1 match < 20 minimum.
        assert!(matches!(
            p.create_custom_audience(acct, &[digest]),
            Err(Error::AudienceTooSmall { .. })
        ));
    }

    #[test]
    fn broker_feed_onboarding_grants_partner_attributes() {
        let mut p = small_platform();
        let user = p.register_user(45, Gender::Male, "Vermont", "05401");
        p.attach_user_pii(
            user,
            PiiKind::Email,
            "rich@example.com",
            PiiProvenance::UserProvided,
        )
        .expect("attach");
        let mut feed = treads_broker::BrokerFeed::new();
        let mut record = treads_broker::BrokerRecord::from_pii("rich@example.com", None);
        record.assert_attribute("Net worth: $2M+");
        record.assert_attribute("Unknown attribute the platform has no id for");
        feed.ingest(record);
        let grants = p.onboard_broker_feed(&feed);
        assert_eq!(grants, 1);
        let nw = p.attributes.id_of("Net worth: $2M+").expect("attr");
        assert!(p.profile(user).expect("user").has_attribute(nw));
    }

    #[test]
    fn ad_preferences_hide_partner_data() {
        let mut p = small_platform();
        let user = p.register_user(45, Gender::Male, "Vermont", "05401");
        let coffee = p.attributes.id_of("Interest: coffee").expect("attr");
        let nw = p.attributes.id_of("Net worth: $2M+").expect("attr");
        p.profiles.grant_attribute(user, coffee).expect("grant");
        p.profiles.grant_attribute(user, nw).expect("grant");
        let prefs = p.user_ad_preferences(user).expect("prefs");
        assert_eq!(prefs, vec!["Interest: coffee".to_string()]);
    }

    #[test]
    fn intent_audiences_match_by_phrase() {
        let mut p = small_platform();
        let adv = p.register_advertiser("a");
        let acct = p.open_account(adv).expect("acct");
        let coffee = p.attributes.id_of("Interest: coffee").expect("attr");
        let drinker = p.register_user(30, Gender::Female, "Ohio", "43004");
        p.profiles.grant_attribute(drinker, coffee).expect("grant");
        let other = p.register_user(30, Gender::Male, "Ohio", "43004");
        let aud = p
            .create_intent_audience(acct, vec!["COFFEE".into()])
            .expect("audience");
        let audience = p.audiences.get(aud).expect("aud");
        assert!(audience.contains(drinker));
        assert!(!audience.contains(other));
    }

    #[test]
    fn platform_presets_differ_where_documented() {
        let fb = PlatformConfig::facebook_like(1);
        let g = PlatformConfig::google_like(1);
        let tw = PlatformConfig::twitter_like(1);
        assert_eq!(fb.min_custom_audience_size, 20);
        assert_eq!(g.min_custom_audience_size, 1000);
        assert_eq!(tw.min_custom_audience_size, 100);
        assert!(g.auction.competitor_cpm_median < fb.auction.competitor_cpm_median);
        assert!(tw.auction.competitor_cpm_median > fb.auction.competitor_cpm_median);
    }

    #[test]
    fn cross_account_audience_targeting_is_rejected() {
        let mut p = small_platform();
        let adv = p.register_advertiser("a");
        let acct1 = p.open_account(adv).expect("acct1");
        let acct2 = p.open_account(adv).expect("acct2");
        let page = p.create_page(acct1, "page").expect("page");
        let audience = p.create_page_audience(acct1, page).expect("audience");
        let camp = p
            .create_campaign(acct2, "c", Money::dollars(2), None)
            .expect("campaign");
        let err = p
            .submit_ad(
                camp,
                AdCreative::text("h", "b"),
                TargetingSpec::including(TargetingExpr::InAudience(audience)),
            )
            .expect_err("cross-account audience must be rejected");
        assert!(matches!(err, Error::InvalidInput { .. }));
    }

    #[test]
    fn report_ownership_is_enforced() {
        let mut p = small_platform();
        let adv = p.register_advertiser("a");
        let acct1 = p.open_account(adv).expect("acct1");
        let acct2 = p.open_account(adv).expect("acct2");
        let camp = p
            .create_campaign(acct1, "c", Money::dollars(2), None)
            .expect("campaign");
        let ad = p
            .submit_ad(
                camp,
                AdCreative::text("h", "b"),
                TargetingSpec::including(TargetingExpr::Everyone),
            )
            .expect("ad");
        assert!(p.ad_report(acct1, ad).is_ok());
        assert!(p.ad_report(acct2, ad).is_err());
    }

    #[test]
    fn suspended_account_cannot_operate() {
        let mut p = small_platform();
        let adv = p.register_advertiser("a");
        let acct = p.open_account(adv).expect("acct");
        p.suspended.insert(acct);
        assert!(p
            .create_campaign(acct, "c", Money::dollars(2), None)
            .is_err());
        assert!(p.create_pixel(acct, "px").is_err());
        assert!(p.create_page(acct, "pg").is_err());
    }
}
