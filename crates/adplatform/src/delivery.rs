//! The delivery engine: impression opportunities → auctions → impressions.
//!
//! When a user generates an impression opportunity (by browsing — `websim`
//! produces these), the engine:
//!
//! 1. collects the **eligible** ads — approved, account active, campaign
//!    within budget, under the per-user frequency cap, and whose targeting
//!    spec matches the user (the delivery contract). Candidates come
//!    either from the [`crate::index`] counting targeting index (the
//!    default — per-opportunity cost proportional to plausibly-matching
//!    ads) or from a linear scan of the whole store (the verification
//!    oracle); both produce identical bids;
//! 2. runs the second-price [`crate::auction`] against background
//!    competition;
//! 3. on a win, records the impression, charges billing, and bumps the
//!    frequency counter.
//!
//! The "delivery iff targeting match" property is enforced at step 1 and is
//! what makes a received Tread a proof about the recipient's own profile —
//! the integration tests assert it end-to-end.
//!
//! Step 1 runs in two stages, and each per-ad filter is written once:
//!
//! * **Stage 1, tick-frozen** ([`MatchSet`]): candidate selection, the
//!   servable check, targeting, the campaign lookup, the suspension check
//!   and the budget check. It reads nothing that changes while the
//!   platform is shared as `&Platform` against a frozen budget, and
//!   yields the user's pre-cap bids plus their census.
//! * **Stage 2, per slot**: the frequency cap over those bids, then the
//!   auction.
//!
//! The composed entry points ([`eligible_bids_traced_into`],
//! [`decide_opportunity_traced_with_scratch`] and everything built on
//! them) run both stages per call. The engine's shard tick instead builds
//! one match set per user per tick through
//! [`crate::Platform::match_set_into`] and decides each of that user's
//! slots from it with [`crate::Platform::decide_slot`]; a serving worker
//! does the same across the slots of one request. [`candidate_verdicts`]
//! reports the same per-ad filters per candidate.

use crate::auction::{run_auction_traced, AuctionConfig, AuctionOutcome, AuctionTrace, Bid};
use crate::audience::AudienceStore;
use crate::billing::{BillingLedger, BudgetView};
use crate::campaign::{Ad, CampaignStore};
use crate::compiled::EvalMode;
use crate::index::{CountingBuffer, SelectionMode};
use crate::profile::UserProfile;
use crate::reporting::{Impression, ImpressionLog};
use adsim_types::hash::mix64;
use adsim_types::{AccountId, AdId, CampaignId, Money, SimTime, UserId};
use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes the frequency-cap map's `(AdId, UserId)` keys, and the fold's
/// per-ad charge totals, by folding each id word through [`mix64`].
///
/// SipHash's collision protection buys nothing here: both ids are
/// platform-assigned counters, never caller-chosen bytes, and serving
/// resolves a request's user through the profile store before any cap
/// lookup, so an unknown id never reaches the map.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-user frequency capping state.
#[derive(Debug, Clone, Default)]
pub struct FrequencyCaps {
    counts: HashMap<(AdId, UserId), u32, BuildHasherDefault<IdHasher>>,
    /// Maximum impressions of one ad a single user is shown.
    pub cap: u32,
}

impl FrequencyCaps {
    /// Frequency caps with the given per-(ad, user) limit.
    pub fn new(cap: u32) -> Self {
        Self {
            counts: HashMap::default(),
            cap,
        }
    }

    /// True if `ad` may still be shown to `user`.
    pub fn allows(&self, ad: AdId, user: UserId) -> bool {
        self.counts.get(&(ad, user)).copied().unwrap_or(0) < self.cap
    }

    /// Makes room for `additional` more `(ad, user)` counters, so that
    /// many first impressions do not rehash the map.
    pub fn reserve(&mut self, additional: usize) {
        self.counts.reserve(additional);
    }

    /// Records one more impression of `ad` to `user`.
    pub fn bump(&mut self, ad: AdId, user: UserId) {
        *self.counts.entry((ad, user)).or_insert(0) += 1;
    }

    /// Impressions of `ad` that `user` has seen.
    pub fn count(&self, ad: AdId, user: UserId) -> u32 {
        self.counts.get(&(ad, user)).copied().unwrap_or(0)
    }

    /// Exports every non-zero count, sorted by `(ad, user)` key.
    ///
    /// The backing map is a `HashMap`, so the sort is what makes the
    /// exported form canonical for checkpoint encoding.
    pub fn entries(&self) -> Vec<((AdId, UserId), u32)> {
        let mut entries: Vec<_> = self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        entries
    }

    /// Replaces all counts with entries exported by
    /// [`FrequencyCaps::entries`]. The configured `cap` is untouched.
    pub fn restore_entries(&mut self, entries: &[((AdId, UserId), u32)]) {
        self.counts = entries.iter().copied().collect();
    }
}

/// Delivery-loop statistics (per simulation run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Opportunities processed.
    pub opportunities: u64,
    /// Auctions won by one of our advertisers' ads.
    pub won: u64,
    /// Auctions lost to background competition.
    pub lost_to_background: u64,
    /// Opportunities with no bids above reserve.
    pub unfilled: u64,
}

/// An impression the decide phase committed to but has not yet recorded.
///
/// Produced by the decide half ([`crate::Platform::decide_slot`], or
/// [`decide_opportunity_traced_with_scratch`] for both stages at once);
/// applied against the mutable stores by [`apply_impression`]. The split
/// is what lets the parallel engine run auctions against read-only state
/// in shard threads and fold the results into billing/logs/caps in a
/// deterministic merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingImpression {
    /// The winning ad.
    pub ad: AdId,
    /// Its campaign.
    pub campaign: CampaignId,
    /// Its (charged) account.
    pub account: AccountId,
    /// The user who saw it.
    pub user: UserId,
    /// When it was delivered.
    pub at: SimTime,
    /// The second-price clearing CPM.
    pub clearing_cpm: Money,
    /// Canonical digest of the winning ad's targeting spec (see
    /// [`crate::targeting::TargetingSpec::digest`]) — carried through to
    /// the impression log so delivery receipts bind each delivery to its
    /// exact targeting parameters.
    pub spec_digest: u64,
}

impl PendingImpression {
    /// Charges the impression to `billing`, returning the per-impression
    /// price.
    pub fn charge(&self, billing: &mut BillingLedger) -> Money {
        billing.charge_impression(self.account, self.campaign, self.ad, self.clearing_cpm)
    }

    /// The per-impression price [`PendingImpression::charge`] bills: a
    /// function of the clearing CPM alone, so a journal can price the
    /// impression without the ledger.
    pub fn price(&self) -> Money {
        self.clearing_cpm.cpm_per_impression()
    }

    /// The impression-log record of this impression charged at `price`.
    pub fn logged(&self, price: Money) -> Impression {
        Impression {
            ad: self.ad,
            campaign: self.campaign,
            account: self.account,
            user: self.user,
            at: self.at,
            price,
            spec_digest: self.spec_digest,
        }
    }
}

/// What the decide half concluded for one opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The auction outcome (returned to the caller / the browsing user).
    pub outcome: AuctionOutcome,
    /// The impression to record, when the outcome is a win.
    pub pending: Option<PendingImpression>,
}

/// Why ads did or did not enter one opportunity's auction — a census of
/// the eligibility filter, in filter order.
///
/// Every ad *examined* lands in exactly one bucket (the first filter
/// that rejects it, or `eligible`), so
/// `considered == not_servable + suspended + over_budget +
/// frequency_capped + targeting_mismatch + eligible`.
///
/// Under [`SelectionMode::LinearScan`] every ad in the store is
/// examined and `index_pruned` is zero. Under
/// [`SelectionMode::Indexed`] only the index's candidate set is
/// examined; the rest — ads whose targeting provably cannot match this
/// user — land in `index_pruned`, so
/// `considered + index_pruned == ad_count`. Pruning never changes the
/// bids: a pruned ad misses every key of one of its conjunct groups (a
/// conjunct its include expression requires), so it would have been
/// filtered (at `targeting_mismatch` or earlier) anyway. Because the
/// index prunes on every such group, an ad that fails one of them lands
/// in `index_pruned`, not `targeting_mismatch`: what reaches the
/// targeting filter fails only the unindexed part of its expression
/// (ages, genders, radii, negations, mixed `Or`s, exclusions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EligibilityBreakdown {
    /// Ads examined by the filter chain (the whole store under
    /// [`SelectionMode::LinearScan`]; the index's candidate set under
    /// [`SelectionMode::Indexed`]).
    pub considered: u32,
    /// Rejected: not approved, or campaign missing.
    pub not_servable: u32,
    /// Rejected: owning account suspended.
    pub suspended: u32,
    /// Rejected: campaign budget exhausted.
    pub over_budget: u32,
    /// Rejected: per-user frequency cap reached.
    pub frequency_capped: u32,
    /// Rejected: targeting spec does not match this user.
    pub targeting_mismatch: u32,
    /// Survived every filter and entered a bid.
    pub eligible: u32,
    /// Skipped without examination: the counting index proved the ad's
    /// targeting cannot match this user. Always zero under
    /// [`SelectionMode::LinearScan`].
    pub index_pruned: u32,
    /// Targeting checks answered by a compiled program
    /// ([`crate::compiled::ProgramArena`]) rather than the expression tree. Not a filter bucket (it
    /// overlaps `targeting_mismatch`/`eligible`); zero under
    /// [`EvalMode::Tree`]. Like every field here it is a census of this
    /// one opportunity: slots decided from one [`MatchSet`] each report
    /// the set's count, though the programs ran once for all of them
    /// (the engine's `targeting.match_sets` counter counts those runs).
    pub compiled_evals: u32,
}

/// Why the filter chain rejected one examined ad: the
/// [`EligibilityBreakdown`] bucket it lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rejection {
    NotServable,
    TargetingMismatch,
    Suspended,
    OverBudget,
    FrequencyCapped,
}

impl Rejection {
    /// The bucket's [`EligibilityBreakdown`] field name, as reported in
    /// [`CandidateVerdict::verdict`].
    fn label(self) -> &'static str {
        match self {
            Rejection::NotServable => "not_servable",
            Rejection::TargetingMismatch => "targeting_mismatch",
            Rejection::Suspended => "suspended",
            Rejection::OverBudget => "over_budget",
            Rejection::FrequencyCapped => "frequency_capped",
        }
    }

    /// Counts one rejected ad in its bucket.
    fn tally(self, breakdown: &mut EligibilityBreakdown) {
        let bucket = match self {
            Rejection::NotServable => &mut breakdown.not_servable,
            Rejection::TargetingMismatch => &mut breakdown.targeting_mismatch,
            Rejection::Suspended => &mut breakdown.suspended,
            Rejection::OverBudget => &mut breakdown.over_budget,
            Rejection::FrequencyCapped => &mut breakdown.frequency_capped,
        };
        *bucket += 1;
    }
}

/// Stage 1 of the filter chain for one ad: every filter whose inputs a
/// tick freezes, in filter order. `Ok` is the ad's pre-cap bid. A
/// targeting check answered by the ad's compiled program counts in
/// `compiled_evals`; the check dispatches on [`EvalMode`] — compiled
/// program or tree oracle — which agree on every (user, spec) pair by
/// construction.
#[allow(clippy::too_many_arguments)]
fn frozen_filters<B: BudgetView>(
    ad: &Ad,
    user: &UserProfile,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    suspended: &BTreeSet<AccountId>,
    billing: &B,
    eval: EvalMode,
    compiled_evals: &mut u32,
) -> Result<Bid, Rejection> {
    if !ad.is_servable() {
        return Err(Rejection::NotServable);
    }
    // Targeting runs before the campaign/suspension/budget probes: it
    // rejects the overwhelming majority of ads, needs nothing but the ad
    // and the user, and under compiled evaluation costs a handful of
    // integer compares — so every non-targeted ad skips those lookups.
    // The surviving filters are order-independent (the bid set is those
    // passing all of them), only the breakdown's first-failing-filter
    // attribution shifts.
    let targeted = match eval {
        EvalMode::Tree => ad.targeting.matches(user, audiences),
        EvalMode::Compiled => match campaigns.compiled_matches(ad.id, user, audiences) {
            Some(hit) => {
                *compiled_evals += 1;
                hit
            }
            // Every ad created through the store has a program; this arm
            // only covers hand-assembled test stores.
            None => ad.targeting.matches(user, audiences),
        },
    };
    if !targeted {
        return Err(Rejection::TargetingMismatch);
    }
    let campaign = campaigns
        .campaign(ad.campaign)
        .map_err(|_| Rejection::NotServable)?;
    if suspended.contains(&campaign.account) {
        return Err(Rejection::Suspended);
    }
    if !billing.within_budget(campaign.id, campaign.budget) {
        return Err(Rejection::OverBudget);
    }
    Ok(Bid {
        ad: ad.id,
        cpm: campaign.bid_cpm,
    })
}

/// Stage 2 of the filter chain for one ad: the frequency cap, the one
/// filter whose input moves between a user's slots inside a tick.
fn cap_filter(bid: Bid, user: UserId, freq: &FrequencyCaps) -> Result<Bid, Rejection> {
    if freq.allows(bid.ad, user) {
        Ok(bid)
    } else {
        Err(Rejection::FrequencyCapped)
    }
}

/// Runs `examine` on every ad the filter chain looks at for `user`, in
/// ascending ad-id order — the whole store under
/// [`SelectionMode::LinearScan`], the index's candidates (collected into
/// `candidates`, counted in `counts`) under [`SelectionMode::Indexed`] —
/// and returns how many ads the index pruned.
fn for_each_examined(
    user: &UserProfile,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    counts: &mut CountingBuffer,
    candidates: &mut Vec<AdId>,
    mut examine: impl FnMut(&Ad),
) -> u32 {
    match campaigns.selection_mode() {
        SelectionMode::LinearScan => {
            campaigns.ads().for_each(examine);
            0
        }
        SelectionMode::Indexed => {
            // Candidates come back in ascending ad-id order — the same
            // order `campaigns.ads()` iterates — and are a superset of
            // the targeting-matching ads, so the surviving bid vector is
            // identical to the linear scan's.
            campaigns
                .index()
                .candidates_with(user, audiences, counts, candidates);
            for id in candidates.iter() {
                examine(campaigns.ad(*id).expect("indexed ads exist in the store"));
            }
            (campaigns.ad_count() - candidates.len()) as u32
        }
    }
}

/// One user's pass through stage 1 of the eligibility chain: the ads
/// that survive every filter except the frequency cap, as pre-cap bids,
/// plus the census of where the rest were filtered out.
///
/// Candidate selection, the servable check, targeting evaluation, the
/// campaign lookup, the suspension check and the budget check read only
/// the profile, the audience and campaign stores, the suspension set
/// and a [`BudgetView`]. None of them can change while a caller holds
/// the platform as `&Platform` against a frozen
/// [`crate::billing::BudgetSnapshot`] — an engine tick, or one serving
/// request — so one match set built at the user's first opportunity
/// serves all of their later slots: [`crate::Platform::decide_slot`]
/// applies only the frequency cap, the one input that moves, and runs
/// the auction.
///
/// Reusable working memory, like [`DeliveryScratch`]: every build
/// clears it first, so its buffers stop growing after the first few
/// builds.
#[derive(Debug, Clone)]
pub struct MatchSet {
    /// The user the set was built for.
    user: UserId,
    /// The index's counting buffer (unused under linear scan).
    counts: CountingBuffer,
    /// Candidate ad ids from the index (unused under linear scan).
    candidates: Vec<AdId>,
    /// Bids of the ads that passed every stage-1 filter, ascending ad id.
    bids: Vec<Bid>,
    /// Census of the stage-1 filters. Its `frequency_capped` and
    /// `eligible` stay zero: stage 2 fills them per slot.
    census: EligibilityBreakdown,
}

impl Default for MatchSet {
    fn default() -> Self {
        Self {
            user: UserId(0),
            counts: CountingBuffer::default(),
            candidates: Vec::new(),
            bids: Vec::new(),
            census: EligibilityBreakdown::default(),
        }
    }
}

/// Stage 1: rebuilds `set` for `user` (see [`MatchSet`]).
pub(crate) fn match_set_into<B: BudgetView>(
    user: &UserProfile,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    suspended: &BTreeSet<AccountId>,
    billing: &B,
    set: &mut MatchSet,
) {
    let MatchSet {
        user: owner,
        counts,
        candidates,
        bids,
        census,
    } = set;
    *owner = user.id;
    bids.clear();
    *census = EligibilityBreakdown::default();
    let eval = campaigns.eval_mode();
    let index_pruned = for_each_examined(user, campaigns, audiences, counts, candidates, |ad| {
        census.considered += 1;
        let filtered = frozen_filters(
            ad,
            user,
            campaigns,
            audiences,
            suspended,
            billing,
            eval,
            &mut census.compiled_evals,
        );
        match filtered {
            Ok(bid) => bids.push(bid),
            Err(rejection) => rejection.tally(census),
        }
    });
    census.index_pruned = index_pruned;
}

/// Stage 2's filter: copies the pre-cap bids the frequency cap still
/// allows into `bids` (cleared first) and returns the slot's census —
/// the set's stage-1 buckets plus this slot's `frequency_capped` and
/// `eligible`.
fn cap_into(set: &MatchSet, freq: &FrequencyCaps, bids: &mut Vec<Bid>) -> EligibilityBreakdown {
    bids.clear();
    let mut breakdown = set.census;
    for &bid in &set.bids {
        match cap_filter(bid, set.user, freq) {
            Ok(bid) => {
                breakdown.eligible += 1;
                bids.push(bid);
            }
            Err(rejection) => rejection.tally(&mut breakdown),
        }
    }
    breakdown
}

/// Stage 2: decides one slot shown at `at` to `set`'s user — the
/// frequency cap over the pre-cap bids, then the auction. On a win the
/// decision carries the fully-resolved [`PendingImpression`]. The
/// surviving bids go to `bids` (cleared first).
pub(crate) fn decide_slot<R: Rng>(
    set: &MatchSet,
    at: SimTime,
    campaigns: &CampaignStore,
    freq: &FrequencyCaps,
    auction_cfg: &AuctionConfig,
    rng: &mut R,
    bids: &mut Vec<Bid>,
) -> TracedDecision {
    let breakdown = cap_into(set, freq, bids);
    let (outcome, auction) = run_auction_traced(bids, auction_cfg, rng);
    let pending = match outcome {
        AuctionOutcome::Won { ad, clearing_cpm } => {
            // The ad and campaign must exist: they produced a bid above.
            let campaign = campaigns
                .ad(ad)
                .and_then(|a| campaigns.campaign(a.campaign))
                .expect("winning ad resolves");
            Some(PendingImpression {
                ad,
                campaign: campaign.id,
                account: campaign.account,
                user: set.user,
                at,
                clearing_cpm,
                spec_digest: campaigns.spec_digest(ad).unwrap_or(0),
            })
        }
        AuctionOutcome::LostToBackground | AuctionOutcome::Unfilled => None,
    };
    TracedDecision {
        decision: Decision { outcome, pending },
        breakdown,
        auction,
    }
}

/// Reusable per-opportunity working memory for the composed decide path.
///
/// One opportunity needs a stage-1 [`MatchSet`] (the index's candidate
/// list and the pre-cap bids) and the bid list the frequency cap lets
/// through. Allocating them per auction made the allocator a measurable
/// slice of the auction phase; instead each caller owns one
/// `DeliveryScratch` and threads it through
/// [`decide_opportunity_traced_with_scratch`] or
/// [`crate::Platform::decide_slot`], so after the first few
/// opportunities the buffers reach their high-water capacity and the
/// steady state allocates nothing. (Compiled targeting evaluation needs
/// no buffer at all — a compiled program
/// ([`crate::compiled::ProgramArena`]) runs on a single boolean
/// accumulator.)
///
/// The buffers carry no data between calls — every use clears before
/// filling — so a fresh scratch always produces identical results.
#[derive(Debug, Clone, Default)]
pub struct DeliveryScratch {
    /// The composed paths' stage-1 result.
    matched: MatchSet,
    /// Bids that survived the whole filter chain: one slot's auction
    /// input.
    pub(crate) bids: Vec<Bid>,
}

impl DeliveryScratch {
    /// Empty scratch; buffers grow to their steady-state size on use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Collects the bids eligible for an opportunity shown to `user`, plus
/// the [`EligibilityBreakdown`] saying where every non-eligible ad was
/// filtered out.
///
/// Eligibility = ad approved ∧ owning account active ∧ campaign within
/// budget ∧ frequency cap allows ∧ targeting spec matches the user.
/// Budget state is read through [`BudgetView`], so the check runs equally
/// against the live ledger or a tick-start snapshot.
///
/// Allocates a throwaway [`DeliveryScratch`]; hot callers use
/// [`eligible_bids_traced_into`] with a reused one instead.
pub fn eligible_bids_traced<B: BudgetView>(
    user: &UserProfile,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    suspended: &BTreeSet<AccountId>,
    billing: &B,
    freq: &FrequencyCaps,
) -> (Vec<Bid>, EligibilityBreakdown) {
    let mut scratch = DeliveryScratch::new();
    let breakdown = eligible_bids_traced_into(
        user,
        campaigns,
        audiences,
        suspended,
        billing,
        freq,
        &mut scratch,
    );
    (scratch.bids, breakdown)
}

/// The allocation-free form of [`eligible_bids_traced`]: both stages of
/// the filter chain in one call, filling `scratch.bids` (cleared first)
/// instead of returning a fresh vector.
#[allow(clippy::too_many_arguments)]
pub fn eligible_bids_traced_into<B: BudgetView>(
    user: &UserProfile,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    suspended: &BTreeSet<AccountId>,
    billing: &B,
    freq: &FrequencyCaps,
    scratch: &mut DeliveryScratch,
) -> EligibilityBreakdown {
    let DeliveryScratch { matched, bids } = scratch;
    match_set_into(user, campaigns, audiences, suspended, billing, matched);
    cap_into(matched, freq, bids)
}

/// The filter chain's verdict for one examined ad — the per-candidate
/// counterpart of the [`EligibilityBreakdown`] census. Produced by
/// [`candidate_verdicts`] for provenance traces and the `explain_delivery`
/// transparency report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateVerdict {
    /// The examined ad.
    pub ad: AdId,
    /// The bucket the ad landed in: the [`EligibilityBreakdown`] field
    /// name of the first filter that rejected it, or `"eligible"`.
    pub verdict: &'static str,
    /// The bid the ad entered (its campaign's bid CPM when eligible,
    /// [`Money::ZERO`] otherwise).
    pub bid_cpm: Money,
}

/// Re-derives the per-ad filter verdicts for one opportunity: the same
/// examined set (index candidates or full scan), the same per-ad
/// filters of both stages, the same budget view as
/// [`eligible_bids_traced_into`], but reported per candidate in
/// ascending ad-id order. RNG-free and read-only, so trace builders can
/// call it for sampled requests only without perturbing anything — the
/// decision path never depends on it.
pub fn candidate_verdicts<B: BudgetView>(
    user: &UserProfile,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    suspended: &BTreeSet<AccountId>,
    billing: &B,
    freq: &FrequencyCaps,
) -> Vec<CandidateVerdict> {
    let eval = campaigns.eval_mode();
    let mut verdicts = Vec::new();
    let mut counts = CountingBuffer::default();
    for_each_examined(
        user,
        campaigns,
        audiences,
        &mut counts,
        &mut Vec::new(),
        |ad| {
            let filtered = frozen_filters(
                ad, user, campaigns, audiences, suspended, billing, eval, &mut 0,
            )
            .and_then(|bid| cap_filter(bid, user.id, freq));
            verdicts.push(match filtered {
                Ok(bid) => CandidateVerdict {
                    ad: ad.id,
                    verdict: "eligible",
                    bid_cpm: bid.cpm,
                },
                Err(rejection) => CandidateVerdict {
                    ad: ad.id,
                    verdict: rejection.label(),
                    bid_cpm: Money::ZERO,
                },
            });
        },
    );
    verdicts
}

/// A [`Decision`] together with the telemetry the decide phase produced
/// along the way: the eligibility census and the auction trace. Returned
/// by [`crate::Platform::decide_slot`] and
/// [`decide_opportunity_traced_with_scratch`]; the engine and serving
/// forward the extras to their metrics, flight journal and traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedDecision {
    /// The decision itself.
    pub decision: Decision,
    /// Where every considered ad was filtered (or not).
    pub breakdown: EligibilityBreakdown,
    /// The competitive environment of the auction.
    pub auction: AuctionTrace,
}

/// The **decide** half of opportunity handling: eligibility + auction,
/// reading budget, frequency, and audience state without mutating any of
/// it. On a win the returned [`Decision`] carries the fully-resolved
/// [`PendingImpression`]; nothing is charged or logged until
/// [`apply_impression`] runs.
///
/// All working memory comes from `scratch`, which the caller keeps across
/// opportunities. Runs both stages of the filter chain — a fresh
/// [`MatchSet`], then the slot's cap and auction — so it suits callers
/// whose platform or budget may change between opportunities.
#[allow(clippy::too_many_arguments)]
pub fn decide_opportunity_traced_with_scratch<B: BudgetView, R: Rng>(
    user: &UserProfile,
    at: SimTime,
    campaigns: &CampaignStore,
    audiences: &AudienceStore,
    suspended: &BTreeSet<AccountId>,
    billing: &B,
    freq: &FrequencyCaps,
    auction_cfg: &AuctionConfig,
    rng: &mut R,
    scratch: &mut DeliveryScratch,
) -> TracedDecision {
    let DeliveryScratch { matched, bids } = scratch;
    match_set_into(user, campaigns, audiences, suspended, billing, matched);
    decide_slot(matched, at, campaigns, freq, auction_cfg, rng, bids)
}

/// Charges every impression of `impressions` to `billing` and returns the
/// campaigns charged.
///
/// Leaves the ledger as charging each in turn with
/// [`PendingImpression::charge`] leaves it, in one update per
/// `(ad, campaign, account)` instead of one per impression: every ledger
/// field is a sum, or a campaign's account, which a campaign keeps for
/// life, so the charges commute and can be totalled first.
pub fn charge_impressions<'a>(
    billing: &mut BillingLedger,
    impressions: impl IntoIterator<Item = &'a PendingImpression>,
) -> BTreeSet<CampaignId> {
    let mut totals: HashMap<_, (u64, Money), BuildHasherDefault<IdHasher>> = HashMap::default();
    for pending in impressions {
        let total = totals
            .entry((pending.ad, pending.campaign, pending.account))
            .or_default();
        total.0 += 1;
        total.1 += pending.price();
    }
    totals
        .into_iter()
        .map(|((ad, campaign, account), (n, amount))| {
            billing.charge_total(account, campaign, ad, n, amount);
            campaign
        })
        .collect()
}

/// The **apply** half: charges billing, bumps the frequency counter, and
/// records the impression. Returns the per-impression price charged.
pub fn apply_impression(
    pending: &PendingImpression,
    billing: &mut BillingLedger,
    freq: &mut FrequencyCaps,
    log: &mut ImpressionLog,
) -> Money {
    let price = pending.charge(billing);
    freq.bump(pending.ad, pending.user);
    log.record(pending.logged(price));
    price
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{AdCreative, AdStatus};
    use crate::profile::{Gender, ProfileStore};
    use crate::targeting::{TargetingExpr, TargetingSpec};
    use adsim_types::rng::substream;
    use adsim_types::{AttributeId, Money};
    use rand::rngs::StdRng;

    struct Rig {
        profiles: ProfileStore,
        campaigns: CampaignStore,
        audiences: AudienceStore,
        billing: BillingLedger,
        freq: FrequencyCaps,
        log: ImpressionLog,
        stats: DeliveryStats,
        suspended: BTreeSet<AccountId>,
        cfg: AuctionConfig,
        rng: StdRng,
    }

    fn rig() -> Rig {
        Rig {
            profiles: ProfileStore::new(),
            campaigns: CampaignStore::new(),
            audiences: AudienceStore::new(20, 1000, 100),
            billing: BillingLedger::new(Money::ZERO),
            freq: FrequencyCaps::new(2),
            log: ImpressionLog::new(),
            stats: DeliveryStats::default(),
            suspended: BTreeSet::new(),
            // No background competition → deterministic outcomes.
            cfg: AuctionConfig {
                competitor_rate: 0.0,
                ..AuctionConfig::default()
            },
            rng: substream(1, "delivery-test"),
        }
    }

    fn approved_ad(r: &mut Rig, account: u64, bid: Money, targeting: TargetingSpec) -> AdId {
        let camp = r
            .campaigns
            .create_campaign(AccountId(account), "c", bid, None);
        let ad = r
            .campaigns
            .create_ad(
                camp,
                AdCreative::text("h", "b"),
                targeting,
                r.profiles.symbols_mut(),
            )
            .expect("ad");
        r.campaigns.ad_mut(ad).expect("ad").status = AdStatus::Approved;
        ad
    }

    /// One opportunity end to end: a fresh decide against live state,
    /// then the apply half at once on a win.
    fn drive(r: &mut Rig, user: UserId, at: u64) -> AuctionOutcome {
        let decision = decide_opportunity_traced_with_scratch(
            r.profiles.get(user).expect("user"),
            SimTime(at),
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
            &r.cfg,
            &mut r.rng,
            &mut DeliveryScratch::new(),
        )
        .decision;
        r.stats.opportunities += 1;
        match decision.outcome {
            AuctionOutcome::Won { .. } => {
                r.stats.won += 1;
                let pending = decision.pending.expect("win carries an impression");
                apply_impression(&pending, &mut r.billing, &mut r.freq, &mut r.log);
            }
            AuctionOutcome::LostToBackground => r.stats.lost_to_background += 1,
            AuctionOutcome::Unfilled => r.stats.unfilled += 1,
        }
        decision.outcome
    }

    #[test]
    fn targeted_ad_delivers_only_to_matching_users() {
        let mut r = rig();
        let matching = r.profiles.register(30, Gender::Female, "Ohio", "43004");
        let other = r.profiles.register(30, Gender::Female, "Ohio", "43004");
        r.profiles
            .grant_attribute(matching, AttributeId(1))
            .expect("grant");
        approved_ad(
            &mut r,
            1,
            Money::dollars(10),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(1))),
        );
        assert!(matches!(
            drive(&mut r, matching, 0),
            AuctionOutcome::Won { .. }
        ));
        assert!(matches!(drive(&mut r, other, 1), AuctionOutcome::Unfilled));
        // The impression log shows only the matching user.
        assert_eq!(r.log.len(), 1);
        assert_eq!(r.log.all()[0].user, matching);
    }

    #[test]
    fn frequency_cap_limits_repeats() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        approved_ad(
            &mut r,
            1,
            Money::dollars(10),
            TargetingSpec::including(TargetingExpr::Everyone),
        );
        // Cap is 2: third opportunity goes unfilled.
        assert!(matches!(drive(&mut r, user, 0), AuctionOutcome::Won { .. }));
        assert!(matches!(drive(&mut r, user, 1), AuctionOutcome::Won { .. }));
        assert!(matches!(drive(&mut r, user, 2), AuctionOutcome::Unfilled));
        assert_eq!(r.freq.count(AdId(1), user), 2);
    }

    #[test]
    fn budget_exhaustion_stops_delivery() {
        let mut r = rig();
        r.freq = FrequencyCaps::new(100);
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        let camp = r.campaigns.create_campaign(
            AccountId(1),
            "c",
            Money::dollars(10),
            // Budget of one impression at the reserve price (10¢ CPM →
            // $0.0001/imp)… use $0.0001 so a single impression exhausts it.
            Some(Money::micros(100)),
        );
        let ad = r
            .campaigns
            .create_ad(
                camp,
                AdCreative::text("h", "b"),
                TargetingSpec::including(TargetingExpr::Everyone),
                r.profiles.symbols_mut(),
            )
            .expect("ad");
        r.campaigns.ad_mut(ad).expect("ad").status = AdStatus::Approved;
        assert!(matches!(drive(&mut r, user, 0), AuctionOutcome::Won { .. }));
        // Clearing at reserve (10¢ CPM) charges $0.0001, hitting the budget.
        assert!(matches!(drive(&mut r, user, 1), AuctionOutcome::Unfilled));
        assert_eq!(r.stats.won, 1);
        assert_eq!(r.stats.unfilled, 1);
    }

    #[test]
    fn suspended_accounts_do_not_serve() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        approved_ad(
            &mut r,
            1,
            Money::dollars(10),
            TargetingSpec::including(TargetingExpr::Everyone),
        );
        r.suspended.insert(AccountId(1));
        assert!(matches!(drive(&mut r, user, 0), AuctionOutcome::Unfilled));
    }

    #[test]
    fn unapproved_ads_do_not_serve() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        let camp = r
            .campaigns
            .create_campaign(AccountId(1), "c", Money::dollars(10), None);
        r.campaigns
            .create_ad(
                camp,
                AdCreative::text("h", "b"),
                TargetingSpec::including(TargetingExpr::Everyone),
                r.profiles.symbols_mut(),
            )
            .expect("ad");
        // Still PendingReview.
        assert!(matches!(drive(&mut r, user, 0), AuctionOutcome::Unfilled));
    }

    #[test]
    fn highest_bidder_wins_and_pays_second_price() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        let everyone = TargetingSpec::including(TargetingExpr::Everyone);
        approved_ad(&mut r, 1, Money::dollars(2), everyone.clone());
        let high = approved_ad(&mut r, 2, Money::dollars(10), everyone);
        match drive(&mut r, user, 0) {
            AuctionOutcome::Won { ad, clearing_cpm } => {
                assert_eq!(ad, high);
                assert_eq!(clearing_cpm, Money::dollars(2));
            }
            other => panic!("expected win, got {other:?}"),
        }
        // Billing charged $2 CPM / 1000 = $0.002 to account 2.
        assert_eq!(r.billing.account_spend(AccountId(2)), Money::micros(2_000));
        assert_eq!(r.billing.account_spend(AccountId(1)), Money::ZERO);
    }

    #[test]
    fn eligibility_breakdown_buckets_every_ad_once() {
        let mut r = rig();
        // Linear-scan semantics: every ad in the store is examined.
        r.campaigns.set_selection_mode(SelectionMode::LinearScan);
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        let everyone = TargetingSpec::including(TargetingExpr::Everyone);
        // One eligible, one suspended, one frequency-capped, one with a
        // non-matching targeting spec, one unapproved.
        approved_ad(&mut r, 1, Money::dollars(10), everyone.clone());
        approved_ad(&mut r, 2, Money::dollars(5), everyone.clone());
        r.suspended.insert(AccountId(2));
        let capped = approved_ad(&mut r, 3, Money::dollars(5), everyone.clone());
        r.freq.bump(capped, user);
        r.freq.bump(capped, user);
        approved_ad(
            &mut r,
            4,
            Money::dollars(5),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(99))),
        );
        let camp = r
            .campaigns
            .create_campaign(AccountId(5), "c", Money::dollars(5), None);
        r.campaigns
            .create_ad(
                camp,
                AdCreative::text("h", "b"),
                everyone,
                r.profiles.symbols_mut(),
            )
            .expect("ad"); // stays PendingReview

        let profile = r.profiles.get(user).expect("user").clone();
        let (bids, b) = eligible_bids_traced(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        assert_eq!(bids.len(), 1);
        assert_eq!(b.considered, 5);
        assert_eq!(b.not_servable, 1);
        assert_eq!(b.suspended, 1);
        assert_eq!(b.frequency_capped, 1);
        assert_eq!(b.targeting_mismatch, 1);
        assert_eq!(b.eligible, 1);
        assert_eq!(
            b.considered,
            b.not_servable
                + b.suspended
                + b.over_budget
                + b.frequency_capped
                + b.targeting_mismatch
                + b.eligible
        );

        // The decide's census agrees with the filter chain's.
        let mut rng = substream(77, "delivery-traced");
        let traced = decide_opportunity_traced_with_scratch(
            &profile,
            SimTime(0),
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
            &r.cfg,
            &mut rng,
            &mut DeliveryScratch::new(),
        );
        assert_eq!(traced.breakdown, b);
        assert_eq!(traced.auction.advertiser_bids, 1);
    }

    #[test]
    fn candidate_verdicts_agree_with_the_breakdown_census() {
        let mut r = rig();
        r.campaigns.set_selection_mode(SelectionMode::LinearScan);
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        let everyone = TargetingSpec::including(TargetingExpr::Everyone);
        let winner = approved_ad(&mut r, 1, Money::dollars(10), everyone.clone());
        approved_ad(&mut r, 2, Money::dollars(5), everyone.clone());
        r.suspended.insert(AccountId(2));
        let capped = approved_ad(&mut r, 3, Money::dollars(5), everyone);
        r.freq.bump(capped, user);
        r.freq.bump(capped, user);
        approved_ad(
            &mut r,
            4,
            Money::dollars(5),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(99))),
        );

        let profile = r.profiles.get(user).expect("user").clone();
        let verdicts = candidate_verdicts(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        let (_, b) = eligible_bids_traced(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        let count = |label| verdicts.iter().filter(|v| v.verdict == label).count() as u32;
        assert_eq!(verdicts.len() as u32, b.considered);
        assert_eq!(count("eligible"), b.eligible);
        assert_eq!(count("suspended"), b.suspended);
        assert_eq!(count("frequency_capped"), b.frequency_capped);
        assert_eq!(count("targeting_mismatch"), b.targeting_mismatch);
        assert_eq!(count("over_budget"), b.over_budget);
        let won = verdicts.iter().find(|v| v.ad == winner).expect("winner");
        assert_eq!(won.verdict, "eligible");
        assert_eq!(won.bid_cpm, Money::dollars(10));

        // The indexed examined set gets the same verdicts for every ad it
        // keeps (it only drops provably-mismatching ones).
        r.campaigns.set_selection_mode(SelectionMode::Indexed);
        let indexed = candidate_verdicts(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        for v in &indexed {
            let scan = verdicts.iter().find(|s| s.ad == v.ad).expect("examined");
            assert_eq!(scan, v);
        }
    }

    #[test]
    fn indexed_selection_prunes_without_changing_bids() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        let everyone = TargetingSpec::including(TargetingExpr::Everyone);
        approved_ad(&mut r, 1, Money::dollars(10), everyone.clone());
        approved_ad(&mut r, 2, Money::dollars(5), everyone);
        // Indexed under an attribute the user lacks: the index proves it
        // cannot match and never hands it to the filter chain.
        approved_ad(
            &mut r,
            3,
            Money::dollars(5),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(99))),
        );
        let profile = r.profiles.get(user).expect("user").clone();

        assert_eq!(r.campaigns.selection_mode(), SelectionMode::Indexed);
        let (indexed_bids, ib) = eligible_bids_traced(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        assert_eq!(ib.considered, 2);
        assert_eq!(ib.index_pruned, 1);
        assert_eq!(ib.targeting_mismatch, 0);
        assert_eq!(
            ib.considered + ib.index_pruned,
            r.campaigns.ad_count() as u32
        );

        r.campaigns.set_selection_mode(SelectionMode::LinearScan);
        let (scanned_bids, sb) = eligible_bids_traced(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        // The modes disagree only on what was examined, never on bids.
        assert_eq!(indexed_bids, scanned_bids);
        assert_eq!(sb.considered, 3);
        assert_eq!(sb.index_pruned, 0);
        assert_eq!(sb.targeting_mismatch, 1);
        assert_eq!(ib.eligible, sb.eligible);
    }

    #[test]
    fn eval_modes_agree_on_bids() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        r.profiles
            .grant_attribute(user, AttributeId(7))
            .expect("grant");
        approved_ad(
            &mut r,
            1,
            Money::dollars(10),
            TargetingSpec::including(TargetingExpr::And(vec![
                TargetingExpr::Attr(AttributeId(7)),
                TargetingExpr::InState("Texas".into()),
            ])),
        );
        // Indexed under a ZIP the user has never touched: index-pruned.
        approved_ad(
            &mut r,
            2,
            Money::dollars(5),
            TargetingSpec::including(TargetingExpr::InZip("99999".into())),
        );
        let profile = r.profiles.get(user).expect("user").clone();

        assert_eq!(r.campaigns.eval_mode(), EvalMode::Compiled);
        let (compiled_bids, cb) = eligible_bids_traced(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        assert_eq!(cb.compiled_evals, 1);
        assert_eq!(cb.eligible, 1);

        r.campaigns.set_eval_mode(EvalMode::Tree);
        let (tree_bids, tb) = eligible_bids_traced(
            &profile,
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
        );
        // The modes agree on every bid and differ only in how the
        // targeting check was answered.
        assert_eq!(compiled_bids, tree_bids);
        assert_eq!(tb.compiled_evals, 0);
        assert_eq!(tb.eligible, cb.eligible);
    }

    #[test]
    fn scratch_reuse_is_observationally_pure() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        approved_ad(
            &mut r,
            1,
            Money::dollars(10),
            TargetingSpec::including(TargetingExpr::Everyone),
        );
        let profile = r.profiles.get(user).expect("user").clone();
        let mut scratch = DeliveryScratch::new();
        let mut rng_a = substream(5, "scratch");
        let mut rng_b = substream(5, "scratch");
        // Same scratch across calls vs. a fresh one each call.
        let first = decide_opportunity_traced_with_scratch(
            &profile,
            SimTime(0),
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
            &r.cfg,
            &mut rng_a,
            &mut scratch,
        );
        let second = decide_opportunity_traced_with_scratch(
            &profile,
            SimTime(1),
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
            &r.cfg,
            &mut rng_a,
            &mut scratch,
        );
        let fresh_first = decide_opportunity_traced_with_scratch(
            &profile,
            SimTime(0),
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
            &r.cfg,
            &mut rng_b,
            &mut DeliveryScratch::new(),
        );
        let fresh_second = decide_opportunity_traced_with_scratch(
            &profile,
            SimTime(1),
            &r.campaigns,
            &r.audiences,
            &r.suspended,
            &r.billing,
            &r.freq,
            &r.cfg,
            &mut rng_b,
            &mut DeliveryScratch::new(),
        );
        assert_eq!(first, fresh_first);
        assert_eq!(second, fresh_second);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = rig();
        let user = r.profiles.register(25, Gender::Male, "Texas", "73301");
        approved_ad(
            &mut r,
            1,
            Money::dollars(10),
            TargetingSpec::including(TargetingExpr::Everyone),
        );
        drive(&mut r, user, 0);
        drive(&mut r, user, 1);
        drive(&mut r, user, 2); // frequency-capped → unfilled
        assert_eq!(r.stats.opportunities, 3);
        assert_eq!(r.stats.won, 2);
        assert_eq!(r.stats.unfilled, 1);
    }

    /// Property tests for the two-stage split: one stage-1 match set
    /// decides a user's slots exactly as fresh full decides would.
    mod stages {
        use super::*;
        use proptest::prelude::*;

        /// One random ad: `(account, bid dollars, approved unless 0,
        /// budget kind, (targeting kind, attribute))`. Budget kind 0 is
        /// unlimited, 1 a one-impression budget, 2 one already spent.
        type AdShape = (u64, i64, u8, u8, (u8, u64));

        /// Ads every case starts with, one per census bucket: unapproved,
        /// suspended account (4), spent budget, unspent one-impression
        /// budget, unanchored targeting miss (no user holds attribute 6),
        /// targeting hit (every user holds attribute 1), the ad bumped to
        /// the cap before the first slot, and a miss on a ZIP group the
        /// index prunes. Account 5 is never suspended.
        const BASE: [AdShape; 8] = [
            (5, 5, 0, 0, (0, 1)),
            (4, 5, 1, 0, (0, 1)),
            (5, 5, 1, 2, (0, 1)),
            (5, 7, 1, 1, (0, 1)),
            (5, 9, 1, 0, (2, 6)),
            (5, 3, 1, 0, (1, 1)),
            (5, 4, 1, 0, (0, 1)),
            (5, 6, 1, 0, (5, 1)),
        ];
        const CAPPED: usize = 6;

        /// The spec a targeting kind stands for, for a user in Texas:
        /// kinds 1–3 hit iff the user holds `attr` (kind 2 is unanchored,
        /// so its misses reach the filter chain under indexed selection
        /// too), kind 4 iff they lack it, kind 5 never (index-pruned).
        fn spec_of(kind: u8, attr: u64) -> TargetingSpec {
            let held = || TargetingExpr::Attr(AttributeId(attr));
            match kind {
                0 => TargetingSpec::including(TargetingExpr::Everyone),
                1 => TargetingSpec::including(held()),
                2 => TargetingSpec::including(TargetingExpr::Or(vec![
                    held(),
                    TargetingExpr::GenderIs(Gender::Male),
                ])),
                3 => TargetingSpec::including(TargetingExpr::And(vec![
                    held(),
                    TargetingExpr::InState("Texas".into()),
                ])),
                4 => TargetingSpec {
                    include: TargetingExpr::Everyone,
                    exclude: Some(held()),
                },
                _ => TargetingSpec::including(TargetingExpr::InZip("99999".into())),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn one_match_set_decides_every_slot_like_fresh_decides(
                extra in prop::collection::vec(
                    (1u64..4, 1i64..20, 0u8..4, 0u8..3, (0u8..6, 1u64..7)),
                    0..12,
                ),
                attrs in prop::collection::vec(2u64..6, 0..4),
                suspended in prop::collection::vec(1u64..4, 0..3),
                bumps in prop::collection::vec(0usize..64, 0..6),
                indexed in any::<bool>(),
                compiled in any::<bool>(),
                slots in 1u64..7,
                cap in 1u32..4,
                rate in 0usize..3,
                seed in 0u64..1_000_000,
            ) {
                let mut r = rig();
                r.freq = FrequencyCaps::new(cap);
                r.cfg = AuctionConfig {
                    competitor_rate: [0.0, 0.5, 2.0][rate],
                    ..AuctionConfig::default()
                };
                let user = r.profiles.register(30, Gender::Female, "Texas", "73301");
                for a in std::iter::once(1).chain(attrs) {
                    r.profiles.grant_attribute(user, AttributeId(a)).expect("grant");
                }
                r.suspended.insert(AccountId(4));
                r.suspended.extend(suspended.into_iter().map(AccountId));
                let mut ads = Vec::new();
                for (account, bid, approved, budget, (kind, attr)) in BASE.into_iter().chain(extra) {
                    let account = AccountId(account);
                    let camp = r.campaigns.create_campaign(
                        account,
                        "c",
                        Money::dollars(bid),
                        (budget > 0).then_some(Money::micros(100)),
                    );
                    let ad = r
                        .campaigns
                        .create_ad(
                            camp,
                            AdCreative::text("h", "b"),
                            spec_of(kind, attr),
                            r.profiles.symbols_mut(),
                        )
                        .expect("ad");
                    if approved > 0 {
                        r.campaigns.ad_mut(ad).expect("ad").status = AdStatus::Approved;
                    }
                    if budget == 2 {
                        // One impression at a 10¢ CPM spends the budget.
                        r.billing.charge_impression(account, camp, ad, Money::cents(10));
                    }
                    ads.push(ad);
                }
                for _ in 0..cap {
                    r.freq.bump(ads[CAPPED], user);
                }
                let extras = &ads[BASE.len()..];
                if !extras.is_empty() {
                    for i in bumps {
                        r.freq.bump(extras[i % extras.len()], user);
                    }
                }
                r.campaigns.set_selection_mode(if indexed {
                    SelectionMode::Indexed
                } else {
                    SelectionMode::LinearScan
                });
                r.campaigns.set_eval_mode(if compiled { EvalMode::Compiled } else { EvalMode::Tree });
                let profile = r.profiles.get(user).expect("user");

                let mut set = MatchSet::default();
                let mut bids = Vec::new();
                match_set_into(
                    profile,
                    &r.campaigns,
                    &r.audiences,
                    &r.suspended,
                    &r.billing,
                    &mut set,
                );
                let mut rng_reused = substream(seed, "two-stage");
                let mut rng_fresh = substream(seed, "two-stage");
                for slot in 0..slots {
                    let at = SimTime(slot);
                    let reused = decide_slot(
                        &set,
                        at,
                        &r.campaigns,
                        &r.freq,
                        &r.cfg,
                        &mut rng_reused,
                        &mut bids,
                    );
                    let fresh = decide_opportunity_traced_with_scratch(
                        profile,
                        at,
                        &r.campaigns,
                        &r.audiences,
                        &r.suspended,
                        &r.billing,
                        &r.freq,
                        &r.cfg,
                        &mut rng_fresh,
                        &mut DeliveryScratch::new(),
                    );
                    prop_assert_eq!(reused, fresh, "slot {}", slot);
                    prop_assert_eq!(rng_reused.state(), rng_fresh.state());
                    if slot == 0 {
                        // The base inventory lands in every bucket.
                        let b = reused.breakdown;
                        prop_assert!(b.not_servable > 0 && b.suspended > 0);
                        prop_assert!(b.over_budget > 0 && b.targeting_mismatch > 0);
                        prop_assert!(b.frequency_capped > 0 && b.eligible >= 2);
                        prop_assert_eq!(b.compiled_evals > 0, compiled);
                        prop_assert_eq!(b.index_pruned > 0, indexed);
                    }
                    if let Some(p) = reused.decision.pending {
                        r.freq.bump(p.ad, p.user);
                    }
                }
            }
        }
    }
}
