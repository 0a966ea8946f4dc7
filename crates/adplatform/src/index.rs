//! The inverted targeting index: signal → candidate ads.
//!
//! The delivery filter chain ([`crate::delivery::MatchSet`]) historically
//! scanned **every** ad in the store for **every** impression opportunity,
//! so per-opportunity cost grew linearly with inventory size — the dominant
//! term in the engine's auction phase once inventories reach the
//! thousands. [`TargetingIndex`] inverts that relationship: each ad is
//! filed under an **anchor key** derived from its targeting expression (an
//! attribute, audience, ZIP, or state the user *must* have for the ad to
//! match), and an opportunity only examines the ads filed under the
//! signals its user actually carries, plus a catch-all list of ads whose
//! expressions admit no anchor. Cost becomes proportional to *plausibly
//! matching* ads, not *all* ads.
//!
//! # Soundness (candidate supersets)
//!
//! An anchor is only ever extracted from a **positive conjunct** of the
//! include expression — a leaf reachable from the root through `And`
//! nodes alone. Such a leaf is a *necessary condition*: if the include
//! expression matches a user, every And-level conjunct matches, so the
//! user holds the anchor signal, so the lookup keyed on that signal
//! returns the ad. Expressions offering no such leaf (`Everyone`,
//! `Or`/`Not` roots, pure demographic ranges) are unanchored and returned
//! for every opportunity. The candidate set is therefore always a
//! superset of the truly matching ads; the unchanged eligibility filter
//! chain does the exact matching. Exclusion clauses only ever *shrink*
//! the matching set, so they never participate in anchoring.
//!
//! # Determinism (bit-identical to the linear scan)
//!
//! Candidates are returned in ascending [`AdId`] order — the same order
//! `CampaignStore::ads()` iterates — and the filter chain is shared with
//! the linear path, so the resulting bid vector is identical expression
//! by expression. Auction RNG draws do not depend on the bid set at all
//! (background competition is sampled first, unconditionally), so
//! switching selection modes never shifts a single random draw: invoices,
//! reports, and decoded Treads are byte-identical either way.
//! `tests/index_equivalence.rs` asserts this across shard counts.
//!
//! # Maintenance
//!
//! Posting lists are **append-only and status-independent**: an ad is
//! filed once, at creation, under an anchor derived from its (immutable)
//! targeting spec. Pausing, policy rejection, budget exhaustion, and
//! account suspension need **no index writes** — those are per-candidate
//! checks in the filter chain, exactly as on the linear path — and user
//! profile mutations need none either, because lookup is driven by the
//! live profile at decide time. This is what lets the engine's shard
//! threads share one `&Platform` (and one index) with no locks and no
//! per-shard reconciliation: during a tick the index is a pure function.
//!
//! # Example
//!
//! ```
//! use adplatform::campaign::{AdCreative, CampaignStore};
//! use adplatform::audience::AudienceStore;
//! use adplatform::profile::{Gender, ProfileStore};
//! use adplatform::targeting::{TargetingExpr, TargetingSpec};
//! use adsim_types::{AccountId, AttributeId, Money};
//!
//! let mut campaigns = CampaignStore::new();
//! let mut profiles = ProfileStore::new();
//! let camp = campaigns.create_campaign(AccountId(1), "c", Money::dollars(2), None);
//! // Anchored on Attr(7): only users holding attribute 7 can match.
//! let jazz = campaigns
//!     .create_ad(
//!         camp,
//!         AdCreative::text("jazz", "ad"),
//!         TargetingSpec::including(TargetingExpr::And(vec![
//!             TargetingExpr::Attr(AttributeId(7)),
//!             TargetingExpr::AgeRange { min: 21, max: 99 },
//!         ])),
//!         profiles.symbols_mut(),
//!     )
//!     .unwrap();
//! // Unanchored: admits every user, so it is a candidate for everyone.
//! let broad = campaigns
//!     .create_ad(
//!         camp,
//!         AdCreative::text("broad", "ad"),
//!         TargetingSpec::including(TargetingExpr::Everyone),
//!         profiles.symbols_mut(),
//!     )
//!     .unwrap();
//!
//! let audiences = AudienceStore::new(20, 1000, 100);
//! let fan = profiles.register(30, Gender::Female, "Ohio", "43004");
//! profiles.grant_attribute(fan, AttributeId(7)).unwrap();
//! let other = profiles.register(30, Gender::Male, "Ohio", "43004");
//!
//! let index = campaigns.index();
//! assert_eq!(
//!     index.candidates(profiles.get(fan).unwrap(), &audiences),
//!     vec![jazz, broad]
//! );
//! // The non-holder never pays for evaluating the jazz ad's expression.
//! assert_eq!(
//!     index.candidates(profiles.get(other).unwrap(), &audiences),
//!     vec![broad]
//! );
//! ```

use crate::audience::AudienceResolver;
use crate::profile::UserProfile;
use crate::targeting::{TargetingExpr, TargetingSpec};
use adsim_types::{AdId, AttributeId, AudienceId};
use std::collections::BTreeMap;

/// How stage 1 of the delivery filter chain
/// ([`crate::delivery::MatchSet`]) gathers its candidate ads.
///
/// Both modes produce byte-identical platform outputs; they differ only
/// in work performed. [`SelectionMode::LinearScan`] is retained as the
/// verification oracle (and for A/B benchmarking) — the equivalence
/// proptests run every workload under both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SelectionMode {
    /// Consult the [`TargetingIndex`]: examine only the ads whose anchor
    /// signal the user carries, plus the unanchored catch-all list.
    #[default]
    Indexed,
    /// Examine every ad in the store (the original O(inventory) path).
    LinearScan,
}

/// The one signal a user must carry for an ad to possibly match — the key
/// the ad's posting-list entry is filed under.
///
/// Ordered by assumed selectivity: when an expression offers several
/// anchorable conjuncts, [`TargetingIndex`] picks the lowest variant
/// (attributes are rarer than audiences, audiences than location facts).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnchorKey {
    /// The user must hold this targeting attribute.
    Attr(AttributeId),
    /// The user must belong to this saved audience.
    Audience(AudienceId),
    /// The platform must have recently located the user in this ZIP.
    VisitedZip(String),
    /// The user's home ZIP must equal this.
    Zip(String),
    /// The user's home state must equal this.
    State(String),
}

/// The inverted index over an ad inventory: anchor signal → posting list
/// of [`AdId`]s, plus the unanchored catch-all. See the [module
/// docs](self) for the soundness and determinism arguments.
///
/// Owned by [`crate::campaign::CampaignStore`], which files every ad at
/// creation; all query methods take `&self` and allocate only the result
/// vector, so shard threads can share one index freely.
#[derive(Debug, Clone, Default)]
pub struct TargetingIndex {
    by_attr: BTreeMap<AttributeId, Vec<AdId>>,
    by_audience: BTreeMap<AudienceId, Vec<AdId>>,
    by_visited_zip: BTreeMap<String, Vec<AdId>>,
    by_zip: BTreeMap<String, Vec<AdId>>,
    by_state: BTreeMap<String, Vec<AdId>>,
    /// Ads whose include expression offers no necessary positive signal;
    /// candidates for every opportunity.
    unanchored: Vec<AdId>,
    /// Reverse map: where each ad was filed (`None` = unanchored).
    anchors: BTreeMap<AdId, Option<AnchorKey>>,
}

impl TargetingIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `ad` under the anchor derived from `spec`. Called once per
    /// ad by `CampaignStore::create_ad`; targeting specs are immutable
    /// after creation, so an ad is never re-filed.
    pub fn insert(&mut self, ad: AdId, spec: &TargetingSpec) {
        let anchor = anchor_of(spec);
        let list = match &anchor {
            Some(AnchorKey::Attr(a)) => self.by_attr.entry(*a).or_default(),
            Some(AnchorKey::Audience(a)) => self.by_audience.entry(*a).or_default(),
            Some(AnchorKey::VisitedZip(z)) => self.by_visited_zip.entry(z.clone()).or_default(),
            Some(AnchorKey::Zip(z)) => self.by_zip.entry(z.clone()).or_default(),
            Some(AnchorKey::State(s)) => self.by_state.entry(s.clone()).or_default(),
            None => &mut self.unanchored,
        };
        // Ids are allocated monotonically, so pushing keeps lists sorted;
        // the binary-search insert is defensive against out-of-order use.
        match list.binary_search(&ad) {
            Ok(_) => {}
            Err(pos) => list.insert(pos, ad),
        }
        self.anchors.insert(ad, anchor);
    }

    /// The candidate ads for one opportunity shown to `user`, in
    /// ascending id order: every unanchored ad, plus the posting lists of
    /// each signal the user carries. A superset of the ads whose
    /// targeting matches `user` (see the module docs), and each ad
    /// appears exactly once — an ad has exactly one anchor.
    pub fn candidates<A: AudienceResolver>(&self, user: &UserProfile, audiences: &A) -> Vec<AdId> {
        let mut out = Vec::new();
        self.candidates_into(user, audiences, &mut out);
        out
    }

    /// The allocation-free form of [`TargetingIndex::candidates`]: fills
    /// `out` (cleared first) instead of returning a fresh vector, so a
    /// caller that keeps `out` across opportunities allocates nothing
    /// once it reaches its high-water capacity.
    pub fn candidates_into<A: AudienceResolver>(
        &self,
        user: &UserProfile,
        audiences: &A,
        out: &mut Vec<AdId>,
    ) {
        out.clear();
        out.extend_from_slice(&self.unanchored);
        for attr in &user.attributes {
            if let Some(list) = self.by_attr.get(attr) {
                out.extend_from_slice(list);
            }
        }
        // Audience anchors are few (anchor priority prefers attributes),
        // so probing each anchored audience for membership stays cheap.
        for (aud, list) in &self.by_audience {
            if audiences.contains(*aud, user.id) {
                out.extend_from_slice(list);
            }
        }
        for zip in &user.recent_zips {
            if let Some(list) = self.by_visited_zip.get(zip) {
                out.extend_from_slice(list);
            }
        }
        if let Some(list) = self.by_zip.get(&user.zip) {
            out.extend_from_slice(list);
        }
        if let Some(list) = self.by_state.get(&user.state) {
            out.extend_from_slice(list);
        }
        out.sort_unstable();
    }

    /// The anchor `ad` was filed under (`Some(None)` = filed as
    /// unanchored, outer `None` = never filed).
    pub fn anchor(&self, ad: AdId) -> Option<&Option<AnchorKey>> {
        self.anchors.get(&ad)
    }

    /// Number of ads filed.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True if no ads are filed.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// Number of ads on the catch-all (scanned-for-everyone) list.
    pub fn unanchored_len(&self) -> usize {
        self.unanchored.len()
    }
}

/// Derives the anchor for a targeting spec: the highest-selectivity
/// necessary positive signal of the include expression, or `None` when
/// the expression admits no anchor. Exclusions never anchor — they only
/// shrink the matching set, so ignoring them preserves the superset
/// property.
pub fn anchor_of(spec: &TargetingSpec) -> Option<AnchorKey> {
    let mut leaves = Vec::new();
    collect_anchor_leaves(&spec.include, &mut leaves);
    leaves.into_iter().min()
}

/// Collects the anchorable leaves reachable through `And` nodes only.
/// `Or` and `Not` subtrees are skipped entirely: a disjunct or a negated
/// predicate is not a *necessary* condition of the whole expression.
fn collect_anchor_leaves(expr: &TargetingExpr, out: &mut Vec<AnchorKey>) {
    match expr {
        TargetingExpr::And(subs) => {
            for sub in subs {
                collect_anchor_leaves(sub, out);
            }
        }
        TargetingExpr::Attr(a) => out.push(AnchorKey::Attr(*a)),
        TargetingExpr::InAudience(a) => out.push(AnchorKey::Audience(*a)),
        TargetingExpr::VisitedZip(z) => out.push(AnchorKey::VisitedZip(z.clone())),
        TargetingExpr::InZip(z) => out.push(AnchorKey::Zip(z.clone())),
        TargetingExpr::InState(s) => out.push(AnchorKey::State(s.clone())),
        // Everyone, demographics, radius, Or, Not: no necessary signal a
        // posting list can key on.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audience::AudienceStore;
    use crate::profile::{Gender, ProfileStore};
    use adsim_types::UserId;

    fn spec(include: TargetingExpr) -> TargetingSpec {
        TargetingSpec::including(include)
    }

    #[test]
    fn anchor_prefers_attributes_over_weaker_signals() {
        let s = spec(TargetingExpr::And(vec![
            TargetingExpr::InState("Ohio".into()),
            TargetingExpr::InZip("43004".into()),
            TargetingExpr::Attr(AttributeId(5)),
            TargetingExpr::InAudience(AudienceId(2)),
        ]));
        assert_eq!(anchor_of(&s), Some(AnchorKey::Attr(AttributeId(5))));
    }

    #[test]
    fn anchor_descends_nested_ands_only() {
        let nested = spec(TargetingExpr::And(vec![
            TargetingExpr::AgeRange { min: 18, max: 65 },
            TargetingExpr::And(vec![TargetingExpr::Attr(AttributeId(9))]),
        ]));
        assert_eq!(anchor_of(&nested), Some(AnchorKey::Attr(AttributeId(9))));

        // A disjunct is not a necessary condition.
        let ored = spec(TargetingExpr::Or(vec![
            TargetingExpr::Attr(AttributeId(1)),
            TargetingExpr::Attr(AttributeId(2)),
        ]));
        assert_eq!(anchor_of(&ored), None);

        // Neither is a negated predicate.
        let negated = spec(TargetingExpr::Not(Box::new(TargetingExpr::Attr(
            AttributeId(1),
        ))));
        assert_eq!(anchor_of(&negated), None);
    }

    #[test]
    fn exclusions_never_anchor() {
        let s = TargetingSpec::including_excluding(
            TargetingExpr::Everyone,
            TargetingExpr::Attr(AttributeId(3)),
        );
        assert_eq!(anchor_of(&s), None);
    }

    #[test]
    fn candidates_come_back_sorted_and_unique() {
        let mut index = TargetingIndex::new();
        index.insert(AdId(3), &spec(TargetingExpr::Everyone));
        index.insert(AdId(1), &spec(TargetingExpr::Attr(AttributeId(7))));
        index.insert(AdId(2), &spec(TargetingExpr::InState("Ohio".into())));

        let mut profiles = ProfileStore::new();
        let u = profiles.register(30, Gender::Female, "Ohio", "43004");
        profiles.grant_attribute(u, AttributeId(7)).expect("grant");
        let audiences = AudienceStore::new(20, 1000, 100);
        let cands = index.candidates(profiles.get(u).expect("u"), &audiences);
        assert_eq!(cands, vec![AdId(1), AdId(2), AdId(3)]);
        assert_eq!(index.len(), 3);
        assert_eq!(index.unanchored_len(), 1);
    }

    #[test]
    fn audience_anchors_probe_membership() {
        let mut index = TargetingIndex::new();
        index.insert(AdId(1), &spec(TargetingExpr::InAudience(AudienceId(1))));

        let mut audiences = AudienceStore::new(20, 1000, 100);
        let aud =
            audiences.create_pixel_audience(adsim_types::AccountId(1), adsim_types::PixelId(1));
        assert_eq!(aud, AudienceId(1));
        audiences.record_pixel_visit(adsim_types::PixelId(1), UserId(1));

        let mut profiles = ProfileStore::new();
        let member = profiles.register(30, Gender::Female, "Ohio", "43004");
        assert_eq!(member, UserId(1));
        let outsider = profiles.register(30, Gender::Male, "Ohio", "43004");

        assert_eq!(
            index.candidates(profiles.get(member).expect("u"), &audiences),
            vec![AdId(1)]
        );
        assert!(index
            .candidates(profiles.get(outsider).expect("u"), &audiences)
            .is_empty());
    }

    #[test]
    fn visited_zip_anchors_use_recent_locations() {
        let mut index = TargetingIndex::new();
        index.insert(AdId(1), &spec(TargetingExpr::VisitedZip("10001".into())));
        index.insert(AdId(2), &spec(TargetingExpr::InZip("10001".into())));

        let mut profiles = ProfileStore::new();
        let u = profiles.register(30, Gender::Male, "New York", "10002");
        profiles.record_zip_visit(u, "10001").expect("visit");
        let audiences = AudienceStore::new(20, 1000, 100);
        // Visited 10001 → the VisitedZip ad; home zip is 10002, so the
        // InZip(10001) ad is correctly pruned.
        assert_eq!(
            index.candidates(profiles.get(u).expect("u"), &audiences),
            vec![AdId(1)]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::audience::AudienceStore;
    use crate::profile::{Gender, ProfileStore};
    use proptest::prelude::*;

    fn arb_expr() -> impl Strategy<Value = TargetingExpr> {
        let leaf = prop_oneof![
            Just(TargetingExpr::Everyone),
            (1u64..12).prop_map(|a| TargetingExpr::Attr(AttributeId(a))),
            (1u64..4).prop_map(|a| TargetingExpr::InAudience(AudienceId(a))),
            (18u8..60, 0u8..30).prop_map(|(min, extra)| TargetingExpr::AgeRange {
                min,
                max: min.saturating_add(extra),
            }),
            "[0-9]{2}".prop_map(TargetingExpr::InZip),
            "[0-9]{2}".prop_map(TargetingExpr::VisitedZip),
            prop_oneof![Just("Ohio"), Just("Texas"), Just("Utah")]
                .prop_map(|s| TargetingExpr::InState(s.into())),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(TargetingExpr::And),
                prop::collection::vec(inner.clone(), 0..4).prop_map(TargetingExpr::Or),
                inner.prop_map(|e| TargetingExpr::Not(Box::new(e))),
            ]
        })
    }

    proptest! {
        /// The core soundness property: whatever the expression and
        /// whoever the user, a matching ad is always in the candidate
        /// set. (Pruning a matching ad would silently change auction
        /// outcomes; over-inclusion merely costs a filter evaluation.)
        #[test]
        fn matching_ads_are_always_candidates(
            include in arb_expr(),
            exclude in prop_oneof![Just(None), arb_expr().prop_map(Some)],
            attrs in prop::collection::vec(1u64..12, 0..6),
            zip in "[0-9]{2}",
            visited in prop::collection::vec("[0-9]{2}", 0..3),
            in_audience in prop::collection::vec(1u64..4, 0..3),
        ) {
            let spec = TargetingSpec { include, exclude };
            let mut index = TargetingIndex::new();
            index.insert(AdId(1), &spec);

            let mut profiles = ProfileStore::new();
            let u = profiles.register(33, Gender::Female, "Ohio", &zip);
            for a in attrs {
                profiles.grant_attribute(u, AttributeId(a)).expect("grant");
            }
            for z in visited {
                profiles.record_zip_visit(u, &z).expect("visit");
            }
            let mut audiences = AudienceStore::new(20, 1000, 100);
            for i in 1..4u64 {
                let aud = audiences.create_pixel_audience(
                    adsim_types::AccountId(1),
                    adsim_types::PixelId(i),
                );
                if in_audience.contains(&aud.raw()) {
                    audiences.record_pixel_visit(adsim_types::PixelId(i), u);
                }
            }

            let user = profiles.get(u).expect("user");
            if spec.matches(user, &audiences) {
                prop_assert_eq!(
                    index.candidates(user, &audiences),
                    vec![AdId(1)],
                    "index pruned an ad whose targeting matches"
                );
            }
        }
    }
}
