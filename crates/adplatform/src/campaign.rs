//! Campaigns, ads, and creatives.
//!
//! A campaign groups ads under one budget and bid; each ad pairs a
//! creative with a targeting spec. The paper's validation is, in these
//! terms: one campaign with a $10 CPM bid cap (5× the recommended $2),
//! containing 507 ads — one per partner attribute — plus one control ad
//! targeting the opted-in audience with no further parameters.

use crate::audience::AudienceResolver;
use crate::compiled::{EvalMode, ProgramArena};
use crate::index::{SelectionMode, TargetingIndex};
use crate::profile::UserProfile;
use crate::targeting::TargetingSpec;
use adsim_types::{AccountId, AdId, CampaignId, Error, Money, Result, SymbolTable};
use std::collections::BTreeMap;

/// The visual/textual content of an ad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdCreative {
    /// Headline shown to the user.
    pub headline: String,
    /// Body text shown to the user.
    pub body: String,
    /// Optional image payload (synthetic pixel buffer; Treads can hide
    /// steganographic disclosures in it).
    pub image: Option<Vec<u8>>,
    /// Optional landing-page URL the ad links to.
    pub landing_url: Option<String>,
}

impl AdCreative {
    /// A text-only creative.
    pub fn text(headline: impl Into<String>, body: impl Into<String>) -> Self {
        Self {
            headline: headline.into(),
            body: body.into(),
            image: None,
            landing_url: None,
        }
    }

    /// Adds a landing URL.
    pub fn with_landing(mut self, url: impl Into<String>) -> Self {
        self.landing_url = Some(url.into());
        self
    }

    /// Adds an image payload.
    pub fn with_image(mut self, image: Vec<u8>) -> Self {
        self.image = Some(image);
        self
    }

    /// All human-readable text of the creative, for policy review.
    pub fn visible_text(&self) -> String {
        format!("{} {}", self.headline, self.body)
    }
}

/// Review/serving status of an ad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdStatus {
    /// Created, not yet reviewed by policy.
    PendingReview,
    /// Approved and eligible to serve.
    Approved,
    /// Rejected by policy review, with the reviewer's reason.
    Rejected {
        /// Why the reviewer rejected the creative.
        reason: String,
    },
    /// Paused by the advertiser.
    Paused,
}

/// One ad: creative + targeting under a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Ad {
    /// Platform-assigned id.
    pub id: AdId,
    /// Owning campaign.
    pub campaign: CampaignId,
    /// The creative.
    pub creative: AdCreative,
    /// The targeting spec.
    pub targeting: TargetingSpec,
    /// Review/serving status.
    pub status: AdStatus,
}

impl Ad {
    /// True if the ad may enter auctions.
    pub fn is_servable(&self) -> bool {
        self.status == AdStatus::Approved
    }
}

/// A budgeted group of ads with one bid cap.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Platform-assigned id.
    pub id: CampaignId,
    /// Owning advertiser account.
    pub account: AccountId,
    /// Display name.
    pub name: String,
    /// Bid cap as CPM: the maximum the campaign bids per thousand
    /// impressions (the paper sets $10, 5× the $2 default, to win
    /// auctions).
    pub bid_cpm: Money,
    /// Optional lifetime budget; `None` = unlimited.
    pub budget: Option<Money>,
    /// Ads belonging to this campaign.
    pub ads: Vec<AdId>,
}

/// Store of campaigns and ads.
///
/// Alongside the primary maps the store maintains a
/// [`TargetingIndex`] filing every ad under its conjunct groups at
/// creation; stage 1 of the delivery filter chain
/// ([`crate::delivery::MatchSet`]) consults it (or not, per
/// [`SelectionMode`]) to avoid scanning the whole inventory per
/// opportunity. Each ad's targeting spec is also lowered into the
/// store's [`ProgramArena`] at creation; delivery evaluates the
/// compiled program (or the tree oracle, per [`EvalMode`]) per
/// candidate.
#[derive(Debug, Clone, Default)]
pub struct CampaignStore {
    campaigns: BTreeMap<CampaignId, Campaign>,
    /// Dense ad storage: ad ids count up from 1 and are never reused,
    /// so `AdId(n)` lives at slot `n - 1`. Lookups on the delivery hot
    /// path (one per index candidate per opportunity) are an O(1) slot
    /// load instead of a B-tree descent over the whole inventory.
    ads: Vec<Ad>,
    next_campaign: u64,
    next_ad: u64,
    index: TargetingIndex,
    selection: SelectionMode,
    /// Compiled form of each ad's targeting spec, built once at
    /// `create_ad`. Kept beside `ads` (not inside [`Ad`]) so the ad
    /// record stays the advertiser-facing submission, serializable
    /// without the compiled artifact. Ad ids are dense (`next_ad`
    /// counts up from 1, never reused), so the program of `AdId(n)` is
    /// arena program `n - 1` — an O(1) span load plus a contiguous op
    /// slice on the hot path, with no per-ad heap allocation.
    compiled: ProgramArena,
    eval: EvalMode,
    /// Canonical digest of each ad's targeting spec, computed once at
    /// `create_ad` and indexed like `compiled` (the digest of `AdId(n)`
    /// is slot `n - 1`). Delivery stamps it onto every impression so
    /// receipts can bind a delivery to its exact targeting parameters
    /// without re-walking the spec on the hot path.
    spec_digests: Vec<u64>,
}

impl CampaignStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a campaign.
    pub fn create_campaign(
        &mut self,
        account: AccountId,
        name: impl Into<String>,
        bid_cpm: Money,
        budget: Option<Money>,
    ) -> CampaignId {
        self.next_campaign += 1;
        let id = CampaignId(self.next_campaign);
        self.campaigns.insert(
            id,
            Campaign {
                id,
                account,
                name: name.into(),
                bid_cpm,
                budget,
                ads: Vec::new(),
            },
        );
        id
    }

    /// Creates an ad under a campaign, initially pending review.
    ///
    /// The targeting spec is lowered into the [`ProgramArena`] here, interning
    /// its state/ZIP strings into `symbols` — pass the platform's shared
    /// table (the one its profile store interns through) so compiled geo
    /// compares and the index's postings line up with profile facets. The
    /// same pass yields the conjunct groups the ad is indexed under.
    pub fn create_ad(
        &mut self,
        campaign: CampaignId,
        creative: AdCreative,
        targeting: TargetingSpec,
        symbols: &mut SymbolTable,
    ) -> Result<AdId> {
        let camp = self
            .campaigns
            .get_mut(&campaign)
            .ok_or_else(|| Error::not_found("campaign", campaign))?;
        self.next_ad += 1;
        let id = AdId(self.next_ad);
        camp.ads.push(id);
        debug_assert_eq!(self.compiled.len() as u64 + 1, self.next_ad);
        debug_assert_eq!(self.ads.len() as u64 + 1, self.next_ad);
        debug_assert_eq!(self.spec_digests.len() as u64 + 1, self.next_ad);
        self.spec_digests.push(targeting.digest());
        let groups = self.compiled.push(&targeting, symbols);
        self.index.insert(id, &groups);
        self.ads.push(Ad {
            id,
            campaign,
            creative,
            targeting,
            status: AdStatus::PendingReview,
        });
        Ok(id)
    }

    /// Looks up a campaign.
    pub fn campaign(&self, id: CampaignId) -> Result<&Campaign> {
        self.campaigns
            .get(&id)
            .ok_or_else(|| Error::not_found("campaign", id))
    }

    /// Mutable campaign lookup.
    pub fn campaign_mut(&mut self, id: CampaignId) -> Result<&mut Campaign> {
        self.campaigns
            .get_mut(&id)
            .ok_or_else(|| Error::not_found("campaign", id))
    }

    /// Looks up an ad.
    pub fn ad(&self, id: AdId) -> Result<&Ad> {
        id.raw()
            .checked_sub(1)
            .and_then(|slot| self.ads.get(slot as usize))
            .ok_or_else(|| Error::not_found("ad", id))
    }

    /// Mutable ad lookup.
    pub fn ad_mut(&mut self, id: AdId) -> Result<&mut Ad> {
        id.raw()
            .checked_sub(1)
            .and_then(|slot| self.ads.get_mut(slot as usize))
            .ok_or_else(|| Error::not_found("ad", id))
    }

    /// All ads, in id order.
    pub fn ads(&self) -> impl Iterator<Item = &Ad> {
        self.ads.iter()
    }

    /// All campaigns, in id order.
    pub fn campaigns(&self) -> impl Iterator<Item = &Campaign> {
        self.campaigns.values()
    }

    /// Ads owned by an account (via their campaigns), in id order.
    pub fn ads_of_account(&self, account: AccountId) -> Vec<&Ad> {
        self.ads
            .iter()
            .filter(|ad| {
                self.campaigns
                    .get(&ad.campaign)
                    .map(|c| c.account == account)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Total number of ads.
    pub fn ad_count(&self) -> usize {
        self.ads.len()
    }

    /// The inverted targeting index over this store's ads.
    pub fn index(&self) -> &TargetingIndex {
        &self.index
    }

    /// How delivery gathers candidate ads from this store.
    pub fn selection_mode(&self) -> SelectionMode {
        self.selection
    }

    /// Switches candidate selection between the indexed path and the
    /// linear-scan oracle. Both produce identical outputs; this exists
    /// for verification and benchmarking.
    pub fn set_selection_mode(&mut self, mode: SelectionMode) {
        self.selection = mode;
    }

    /// The arena holding every ad's compiled targeting program.
    pub fn programs(&self) -> &ProgramArena {
        &self.compiled
    }

    /// The canonical targeting-spec digest of `ad`, or `None` for an ad
    /// this store never created. O(1): computed at [`CampaignStore::create_ad`].
    pub fn spec_digest(&self, ad: AdId) -> Option<u64> {
        self.spec_digests
            .get(ad.raw().checked_sub(1)? as usize)
            .copied()
    }

    /// Evaluates `ad`'s compiled program against `user`, or `None` for
    /// an ad this store never created (every ad created through
    /// [`CampaignStore::create_ad`] has a program).
    pub fn compiled_matches<A: AudienceResolver>(
        &self,
        ad: AdId,
        user: &UserProfile,
        audiences: &A,
    ) -> Option<bool> {
        self.compiled
            .matches(ad.raw().checked_sub(1)? as usize, user, audiences)
    }

    /// How delivery evaluates a candidate ad's targeting spec.
    pub fn eval_mode(&self) -> EvalMode {
        self.eval
    }

    /// Switches targeting evaluation between the compiled programs and
    /// the tree-walking oracle. Both produce identical outputs; this
    /// exists for verification and benchmarking, mirroring
    /// [`CampaignStore::set_selection_mode`].
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.eval = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targeting::TargetingExpr;

    fn spec() -> TargetingSpec {
        TargetingSpec::including(TargetingExpr::Everyone)
    }

    #[test]
    fn campaign_and_ad_lifecycle() {
        let mut s = CampaignStore::new();
        let mut syms = SymbolTable::new();
        let camp = s.create_campaign(AccountId(1), "validation", Money::dollars(10), None);
        let ad = s
            .create_ad(camp, AdCreative::text("h", "b"), spec(), &mut syms)
            .expect("ad");
        assert_eq!(s.campaign(camp).expect("camp").ads, vec![ad]);
        assert_eq!(s.ad(ad).expect("ad").status, AdStatus::PendingReview);
        assert!(!s.ad(ad).expect("ad").is_servable());
        assert_eq!(s.programs().len(), 1);
        assert_eq!(s.spec_digest(ad), Some(spec().digest()));
        assert_eq!(s.spec_digest(AdId(99)), None);
        s.ad_mut(ad).expect("ad").status = AdStatus::Approved;
        assert!(s.ad(ad).expect("ad").is_servable());
        assert_eq!(s.ad_count(), 1);
    }

    #[test]
    fn ad_requires_existing_campaign() {
        let mut s = CampaignStore::new();
        let mut syms = SymbolTable::new();
        let err = s
            .create_ad(CampaignId(9), AdCreative::text("h", "b"), spec(), &mut syms)
            .expect_err("no campaign");
        assert_eq!(err, Error::not_found("campaign", CampaignId(9)));
    }

    #[test]
    fn ads_of_account_filters_by_ownership() {
        let mut s = CampaignStore::new();
        let mut syms = SymbolTable::new();
        let c1 = s.create_campaign(AccountId(1), "one", Money::dollars(2), None);
        let c2 = s.create_campaign(AccountId(2), "two", Money::dollars(2), None);
        let a1 = s
            .create_ad(c1, AdCreative::text("1", ""), spec(), &mut syms)
            .expect("a1");
        let _a2 = s
            .create_ad(c2, AdCreative::text("2", ""), spec(), &mut syms)
            .expect("a2");
        let owned = s.ads_of_account(AccountId(1));
        assert_eq!(owned.len(), 1);
        assert_eq!(owned[0].id, a1);
    }

    #[test]
    fn creative_builder() {
        let c = AdCreative::text("Hello", "World")
            .with_landing("https://provider.example/reveal")
            .with_image(vec![1, 2, 3]);
        assert_eq!(c.visible_text(), "Hello World");
        assert_eq!(
            c.landing_url.as_deref(),
            Some("https://provider.example/reveal")
        );
        assert_eq!(c.image.as_deref(), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn rejected_and_paused_ads_do_not_serve() {
        let mut s = CampaignStore::new();
        let mut syms = SymbolTable::new();
        let camp = s.create_campaign(AccountId(1), "c", Money::dollars(2), None);
        let ad = s
            .create_ad(camp, AdCreative::text("h", "b"), spec(), &mut syms)
            .expect("ad");
        s.ad_mut(ad).expect("ad").status = AdStatus::Rejected {
            reason: "asserts personal attributes".into(),
        };
        assert!(!s.ad(ad).expect("ad").is_servable());
        s.ad_mut(ad).expect("ad").status = AdStatus::Paused;
        assert!(!s.ad(ad).expect("ad").is_servable());
    }
}
