//! The counting targeting index: signals → candidate ads.
//!
//! Stage 1 of the delivery filter chain ([`crate::delivery::MatchSet`])
//! evaluates the targeting program of every ad it examines. Scanning the
//! whole store makes that cost linear in the inventory; [`TargetingIndex`]
//! hands the chain only the ads for which the user carries **every**
//! necessary signal of the include expression, plus a catch-all list of
//! ads that have no such signal. It is the counting algorithm for
//! conjunctive Boolean-expression indexes (Whang et al., "Indexing Boolean
//! Expressions", VLDB 2009), keyed on the platform's interned symbols.
//!
//! # Conjunct groups
//!
//! A *conjunct* of an include expression is a subexpression reached from
//! the root through `And` nodes alone. A conjunct forms a **group** when
//! it is a keyable leaf (an attribute, audience, visited ZIP, home ZIP or
//! home state) or an `Or` whose every disjunct is a keyable leaf; the
//! group's keys are those leaves. The compiler reads the groups off the
//! pass that lowers the spec ([`crate::compiled::ProgramArena::push`]),
//! so every string is interned once. An ad is filed under each key of its
//! first 64 groups, as a posting `(ad slot, group)`, and its `required`
//! mask has one bit per filed group. Ads with no group go on the
//! unanchored list.
//!
//! # Candidates by counting
//!
//! A lookup walks the posting lists of the keys the user holds: the set
//! bits of their attribute bitset, the audiences they belong to, and the
//! visited-ZIP, home-ZIP and state symbols of their
//! [`crate::profile::ProfileFacets`]. Each posting sets bit `group` in its
//! ad's hit mask. An ad is a candidate when its mask equals its
//! precomputed `required` mask, that is, when the user hit all of its
//! groups. The masks live in a [`CountingBuffer`] the caller keeps, sized
//! on demand and left all-zero after every lookup, so a lookup allocates
//! nothing once the buffer has grown.
//!
//! # Soundness (candidate supersets)
//!
//! If an include expression matches a user, every conjunct matches. A
//! keyable leaf matches only a user who holds its key, and an `Or` of
//! keyable leaves only a user who holds one of its keys, so the user hits
//! every group and the ad is a candidate. `Everyone`, demographic, radius
//! and `Not` conjuncts, and an `Or` with any such disjunct or with a
//! nested `And`, can match a user who holds no key: they form no group.
//! Exclusions only shrink the matching set, so they are never indexed.
//! The candidate set is therefore a superset of the matching ads, and the
//! unchanged filter chain does the exact matching.
//!
//! # Exactness
//!
//! Conversely, every candidate satisfies every group of its ad: the index
//! prunes on all keyable conjuncts, not on one of them. What reaches
//! evaluation is the rest of the expression — age and gender ranges,
//! radii, negations, `Or`s with an unkeyable disjunct, exclusions, and
//! any groups past the 64th.
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
//! `tests/index_equivalence.rs` asserts this across shard counts and
//! through a checkpoint resume.
//!
//! # Maintenance
//!
//! Posting lists are **append-only and status-independent**: an ad is
//! filed once, at creation, under the groups of its (immutable) targeting
//! spec. Pausing, policy rejection, budget exhaustion, and account
//! suspension need **no index writes** — those are per-candidate checks
//! in the filter chain, exactly as on the linear path — and user profile
//! mutations need none either, because lookup is driven by the live
//! profile at decide time. This is what lets the engine's shard threads
//! share one `&Platform` (and one index) with no locks and no per-shard
//! reconciliation: during a tick the index is a pure function.
//!
//! Postings key on symbols of the platform's one
//! [`adsim_types::SymbolTable`], the table the profile facets intern
//! through. A resumed run restores that table from its checkpoint; the
//! restored table extends the one the host's set-up built, so the symbols
//! the ads were filed under keep their meaning.
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
//! // Two groups: attribute 7, and a visit to ZIP 10001.
//! let jazz = campaigns
//!     .create_ad(
//!         camp,
//!         AdCreative::text("jazz", "ad"),
//!         TargetingSpec::including(TargetingExpr::And(vec![
//!             TargetingExpr::Attr(AttributeId(7)),
//!             TargetingExpr::VisitedZip("10001".into()),
//!             TargetingExpr::AgeRange { min: 21, max: 99 },
//!         ])),
//!         profiles.symbols_mut(),
//!     )
//!     .unwrap();
//! // No group: it admits every user, so it is a candidate for everyone.
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
//! profiles.record_zip_visit(fan, "10001").unwrap();
//! // Holds attribute 7 but never visited 10001: pruned on the second
//! // conjunct, so the jazz ad's program is never evaluated for them.
//! let homebody = profiles.register(30, Gender::Male, "Ohio", "43004");
//! profiles.grant_attribute(homebody, AttributeId(7)).unwrap();
//!
//! let index = campaigns.index();
//! assert_eq!(
//!     index.candidates(profiles.get(fan).unwrap(), &audiences),
//!     vec![jazz, broad]
//! );
//! assert_eq!(
//!     index.candidates(profiles.get(homebody).unwrap(), &audiences),
//!     vec![broad]
//! );
//! ```

use crate::audience::AudienceResolver;
use crate::profile::UserProfile;
use adsim_types::{AdId, AttributeId, AudienceId, Symbol};

/// How stage 1 of the delivery filter chain
/// ([`crate::delivery::MatchSet`]) gathers its candidate ads.
///
/// Both modes produce byte-identical platform outputs; they differ only
/// in work performed. [`SelectionMode::LinearScan`] is retained as the
/// verification oracle (and for A/B benchmarking) — the equivalence
/// proptests run every workload under both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SelectionMode {
    /// Consult the [`TargetingIndex`]: examine only the ads whose every
    /// group the user hits, plus the unanchored catch-all list.
    #[default]
    Indexed,
    /// Examine every ad in the store (the original O(inventory) path).
    LinearScan,
}

/// One signal a posting list is keyed on: a keyable leaf of a targeting
/// expression, its strings interned through the platform's symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConjunctKey {
    /// The user holds this targeting attribute.
    Attr(AttributeId),
    /// The user belongs to this saved audience.
    Audience(AudienceId),
    /// The platform recently located the user in this ZIP.
    VisitedZip(Symbol),
    /// The user's home ZIP is this one.
    Zip(Symbol),
    /// The user's home state is this one.
    State(Symbol),
}

/// The keys of one conjunct group: a user satisfies the conjunct only if
/// they hold at least one of them.
pub type ConjunctGroup = Vec<ConjunctKey>;

/// The most groups one ad is filed under: its `required` mask is one
/// `u64`. Groups past this many stay unindexed, which keeps the candidate
/// set a superset (fewer necessary conditions are still necessary).
const MAX_GROUPS: usize = 64;

/// One posting-list entry: the ad at `slot` (`AdId(slot + 1)`) has a
/// group `group` the list's key satisfies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting {
    slot: u32,
    group: u32,
}

/// Working memory of [`TargetingIndex::candidates_with`]: one hit mask
/// per ad slot and the slots hit by the current lookup.
///
/// Sized on demand to the index it is used with, and reset by every
/// lookup before it returns, so one buffer serves any sequence of users
/// (and indexes) and a caller that keeps it allocates nothing once it has
/// grown.
#[derive(Debug, Clone, Default)]
pub struct CountingBuffer {
    /// Groups hit so far, one mask per ad slot; all zero between lookups.
    hits: Vec<u64>,
    /// Slots whose mask went non-zero during the current lookup.
    touched: Vec<u32>,
}

/// The counting index over an ad inventory: key → postings, a `required`
/// group mask per ad, and the unanchored catch-all. See the [module
/// docs](self) for the soundness and exactness arguments.
///
/// Owned by [`crate::campaign::CampaignStore`], which files every ad at
/// creation; all query methods take `&self`, so shard threads can share
/// one index freely.
#[derive(Debug, Clone, Default)]
pub struct TargetingIndex {
    /// Postings by raw attribute id.
    by_attr: Vec<Vec<Posting>>,
    /// Postings by raw audience id.
    by_audience: Vec<Vec<Posting>>,
    /// Postings by visited-ZIP symbol.
    by_visited_zip: Vec<Vec<Posting>>,
    /// Postings by home-ZIP symbol.
    by_zip: Vec<Vec<Posting>>,
    /// Postings by home-state symbol.
    by_state: Vec<Vec<Posting>>,
    /// One bit per indexed group of the ad at each slot; `0` for an
    /// unanchored ad.
    required: Vec<u64>,
    /// Ads with no group; candidates for every opportunity.
    unanchored: Vec<AdId>,
}

/// The posting list of key `ix` (a raw id or a symbol) in a dense key
/// table, grown on demand.
fn list_at(table: &mut Vec<Vec<Posting>>, ix: u64) -> &mut Vec<Posting> {
    let ix = usize::try_from(ix).expect("ids and symbols index dense tables");
    if ix >= table.len() {
        table.resize_with(ix + 1, Vec::new);
    }
    &mut table[ix]
}

impl TargetingIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `ad` under `groups`, the conjunct groups of its include
    /// expression. Called once per ad by `CampaignStore::create_ad`;
    /// targeting specs are immutable after creation, so an ad is never
    /// re-filed.
    ///
    /// # Panics
    ///
    /// If `ad` is not the next id: ads are filed densely, `AdId(n)` at
    /// slot `n - 1`, as the store allocates them.
    pub fn insert(&mut self, ad: AdId, groups: &[ConjunctGroup]) {
        let slot = self.required.len();
        assert_eq!(ad.raw(), slot as u64 + 1, "ads are filed in id order");
        let slot = u32::try_from(slot).expect("ad slots fit u32");
        let groups = &groups[..groups.len().min(MAX_GROUPS)];
        if groups.is_empty() {
            self.required.push(0);
            self.unanchored.push(ad);
            return;
        }
        self.required.push(u64::MAX >> (MAX_GROUPS - groups.len()));
        // A key repeated within a group posts twice and sets the same bit
        // twice: harmless, so groups are filed as given.
        for (group, keys) in (0u32..).zip(groups) {
            for &key in keys {
                let list = match key {
                    ConjunctKey::Attr(a) => list_at(&mut self.by_attr, a.raw()),
                    ConjunctKey::Audience(a) => list_at(&mut self.by_audience, a.raw()),
                    ConjunctKey::VisitedZip(z) => list_at(&mut self.by_visited_zip, z.into()),
                    ConjunctKey::Zip(z) => list_at(&mut self.by_zip, z.into()),
                    ConjunctKey::State(s) => list_at(&mut self.by_state, s.into()),
                };
                list.push(Posting { slot, group });
            }
        }
    }

    /// The candidate ads for one opportunity shown to `user`, in
    /// ascending id order: every unanchored ad, plus every ad whose groups
    /// the user all hit. A superset of the ads whose targeting matches
    /// `user` (see the module docs), each ad at most once.
    pub fn candidates<A: AudienceResolver>(&self, user: &UserProfile, audiences: &A) -> Vec<AdId> {
        let mut out = Vec::new();
        self.candidates_into(user, audiences, &mut out);
        out
    }

    /// [`TargetingIndex::candidates`] into `out` (cleared first), over a
    /// fresh [`CountingBuffer`]. Callers on a hot path keep a buffer and
    /// use [`TargetingIndex::candidates_with`].
    pub fn candidates_into<A: AudienceResolver>(
        &self,
        user: &UserProfile,
        audiences: &A,
        out: &mut Vec<AdId>,
    ) {
        self.candidates_with(user, audiences, &mut CountingBuffer::default(), out);
    }

    /// The allocation-free lookup: fills `out` (cleared first) with the
    /// candidates for `user`, counting group hits in `counts`. A caller
    /// that keeps `out` and `counts` across opportunities allocates
    /// nothing once both reach their high-water size.
    pub fn candidates_with<A: AudienceResolver>(
        &self,
        user: &UserProfile,
        audiences: &A,
        counts: &mut CountingBuffer,
        out: &mut Vec<AdId>,
    ) {
        out.clear();
        // No ad has a group, so there is nothing to count: answer without
        // reading the user's profile at all. The unanchored list is in id
        // order already.
        if self.unanchored.len() == self.required.len() {
            out.extend_from_slice(&self.unanchored);
            return;
        }
        let CountingBuffer { hits, touched } = counts;
        if hits.len() < self.required.len() {
            hits.resize(self.required.len(), 0);
        }
        let mut hit = |list: &[Posting]| {
            for p in list {
                let mask = &mut hits[p.slot as usize];
                if *mask == 0 {
                    touched.push(p.slot);
                }
                *mask |= 1 << p.group;
            }
        };
        let facets = &user.facets;
        // Only the words that cover attributes with postings can hit.
        let attr_words = self.by_attr.len().div_ceil(64);
        for (word_ix, &word) in facets.attr_words().iter().take(attr_words).enumerate() {
            let mut bits = word;
            while bits != 0 {
                let raw = word_ix * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(list) = self.by_attr.get(raw) {
                    hit(list);
                }
            }
        }
        for (raw, list) in self.by_audience.iter().enumerate() {
            if !list.is_empty() && audiences.contains(AudienceId(raw as u64), user.id) {
                hit(list);
            }
        }
        for &zip in facets.visited_zip_symbols() {
            if let Some(list) = self.by_visited_zip.get(zip as usize) {
                hit(list);
            }
        }
        if let Some(list) = self.by_zip.get(facets.zip() as usize) {
            hit(list);
        }
        if let Some(list) = self.by_state.get(facets.state() as usize) {
            hit(list);
        }
        for &slot in touched.iter() {
            let slot = slot as usize;
            if hits[slot] == self.required[slot] {
                out.push(AdId(slot as u64 + 1));
            }
            hits[slot] = 0;
        }
        touched.clear();
        out.extend_from_slice(&self.unanchored);
        out.sort_unstable();
    }

    /// Number of ads filed.
    pub fn len(&self) -> usize {
        self.required.len()
    }

    /// True if no ads are filed.
    pub fn is_empty(&self) -> bool {
        self.required.is_empty()
    }

    /// Number of ads on the catch-all (scanned-for-everyone) list.
    pub fn unanchored_len(&self) -> usize {
        self.unanchored.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audience::AudienceStore;
    use crate::compiled::ProgramArena;
    use crate::profile::{Gender, ProfileStore};
    use crate::targeting::{TargetingExpr, TargetingSpec};
    use adsim_types::{SymbolTable, UserId};

    fn attr(n: u64) -> TargetingExpr {
        TargetingExpr::Attr(AttributeId(n))
    }

    fn groups(spec: &TargetingSpec, symbols: &mut SymbolTable) -> Vec<ConjunctGroup> {
        ProgramArena::new().push(spec, symbols)
    }

    /// Files `include` as the index's next ad, interning through `symbols`.
    fn file(index: &mut TargetingIndex, include: TargetingExpr, symbols: &mut SymbolTable) -> AdId {
        let ad = AdId(index.len() as u64 + 1);
        index.insert(ad, &groups(&TargetingSpec::including(include), symbols));
        ad
    }

    #[test]
    fn groups_descend_nested_ands() {
        let mut symbols = SymbolTable::new();
        let nested = TargetingSpec::including(TargetingExpr::And(vec![
            TargetingExpr::AgeRange { min: 18, max: 65 },
            TargetingExpr::And(vec![attr(9), TargetingExpr::InState("Ohio".into())]),
        ]));
        let ohio = symbols.intern("Ohio");
        assert_eq!(
            groups(&nested, &mut symbols),
            vec![
                vec![ConjunctKey::Attr(AttributeId(9))],
                vec![ConjunctKey::State(ohio)]
            ]
        );
    }

    #[test]
    fn negations_and_exclusions_form_no_group() {
        let mut symbols = SymbolTable::new();
        let negated = TargetingSpec::including(TargetingExpr::Not(Box::new(attr(1))));
        assert!(groups(&negated, &mut symbols).is_empty());
        let excluded = TargetingSpec::including_excluding(TargetingExpr::Everyone, attr(3));
        assert!(groups(&excluded, &mut symbols).is_empty());
    }

    #[test]
    fn a_bare_or_of_keyable_leaves_is_one_group() {
        let mut symbols = SymbolTable::new();
        let ored = TargetingSpec::including(TargetingExpr::Or(vec![attr(1), attr(2)]));
        assert_eq!(
            groups(&ored, &mut symbols),
            vec![vec![
                ConjunctKey::Attr(AttributeId(1)),
                ConjunctKey::Attr(AttributeId(2))
            ]]
        );
    }

    #[test]
    fn an_or_with_an_unkeyable_disjunct_forms_no_group() {
        let mut symbols = SymbolTable::new();
        for unkeyable in [
            TargetingExpr::AgeRange { min: 18, max: 30 },
            TargetingExpr::GenderIs(Gender::Male),
            TargetingExpr::And(vec![attr(2), attr(3)]),
            TargetingExpr::Not(Box::new(attr(2))),
        ] {
            let spec = TargetingSpec::including(TargetingExpr::And(vec![
                attr(1),
                TargetingExpr::Or(vec![attr(4), unkeyable.clone()]),
            ]));
            assert_eq!(
                groups(&spec, &mut symbols),
                vec![vec![ConjunctKey::Attr(AttributeId(1))]],
                "Or with {unkeyable:?}"
            );
        }
    }

    #[test]
    fn candidates_come_back_sorted_and_unique() {
        let mut index = TargetingIndex::new();
        let mut profiles = ProfileStore::new();
        let symbols = profiles.symbols_mut();
        file(&mut index, attr(7), symbols);
        file(&mut index, TargetingExpr::InState("Ohio".into()), symbols);
        file(&mut index, TargetingExpr::Everyone, symbols);

        let u = profiles.register(30, Gender::Female, "Ohio", "43004");
        profiles.grant_attribute(u, AttributeId(7)).expect("grant");
        let audiences = AudienceStore::new(20, 1000, 100);
        let cands = index.candidates(profiles.get(u).expect("u"), &audiences);
        assert_eq!(cands, vec![AdId(1), AdId(2), AdId(3)]);
        assert_eq!(index.len(), 3);
        assert_eq!(index.unanchored_len(), 1);
    }

    #[test]
    fn audience_groups_probe_membership() {
        let mut index = TargetingIndex::new();
        let mut profiles = ProfileStore::new();
        file(
            &mut index,
            TargetingExpr::InAudience(AudienceId(1)),
            profiles.symbols_mut(),
        );

        let mut audiences = AudienceStore::new(20, 1000, 100);
        let aud =
            audiences.create_pixel_audience(adsim_types::AccountId(1), adsim_types::PixelId(1));
        assert_eq!(aud, AudienceId(1));
        audiences.record_pixel_visit(adsim_types::PixelId(1), UserId(1));

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
    fn visited_zip_groups_use_recent_locations() {
        let mut index = TargetingIndex::new();
        let mut profiles = ProfileStore::new();
        let symbols = profiles.symbols_mut();
        file(
            &mut index,
            TargetingExpr::VisitedZip("10001".into()),
            symbols,
        );
        file(&mut index, TargetingExpr::InZip("10001".into()), symbols);

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

    /// The batch-inventory ad shape: three groups (geo, visited ZIPs,
    /// attribute) around an unkeyable age range.
    fn inventory_ad() -> TargetingExpr {
        TargetingExpr::And(vec![
            TargetingExpr::Or(vec![
                TargetingExpr::InState("Ohio".into()),
                TargetingExpr::InState("Texas".into()),
                TargetingExpr::InZip("20001".into()),
            ]),
            TargetingExpr::Or(
                (0..6)
                    .map(|k| TargetingExpr::VisitedZip(format!("3000{k}")))
                    .collect(),
            ),
            TargetingExpr::AgeRange { min: 18, max: 60 },
            attr(5),
        ])
    }

    #[test]
    fn an_ad_is_a_candidate_iff_every_group_is_hit() {
        let mut index = TargetingIndex::new();
        let mut profiles = ProfileStore::new();
        let ad = file(&mut index, inventory_ad(), profiles.symbols_mut());
        let audiences = AudienceStore::new(20, 1000, 100);
        let mut counts = CountingBuffer::default();
        let mut out = Vec::new();
        // (state, home zip, visited ZIPs, holds attribute 5) → candidate?
        let cases: [(&str, &str, &[&str], bool, bool); 7] = [
            ("Ohio", "43004", &["30001"], true, true),
            ("Utah", "20001", &["30005"], true, true),
            // A user who visited two of its ZIPs gets it once.
            ("Texas", "73301", &["30000", "30003"], true, true),
            // Missing any one group prunes it.
            ("Utah", "84001", &["30001"], true, false),
            ("Ohio", "43004", &["39999"], true, false),
            ("Ohio", "43004", &[], true, false),
            ("Ohio", "43004", &["30001"], false, false),
        ];
        for (state, zip, visited, holds, expected) in cases {
            let u = profiles.register(99, Gender::Female, state, zip);
            for z in visited {
                profiles.record_zip_visit(u, z).expect("visit");
            }
            if holds {
                profiles.grant_attribute(u, AttributeId(5)).expect("grant");
            }
            let user = profiles.get(u).expect("user");
            index.candidates_with(user, &audiences, &mut counts, &mut out);
            let want = if expected { vec![ad] } else { vec![] };
            assert_eq!(out, want, "{state} {zip} {visited:?} holds={holds}");
            // Age 99 fails the age range: the index never evaluates it.
            assert!(!TargetingSpec::including(inventory_ad()).matches(user, &audiences));
        }
    }

    #[test]
    fn an_ad_past_the_group_cap_stays_a_candidate_for_a_matching_user() {
        let mut index = TargetingIndex::new();
        let mut profiles = ProfileStore::new();
        let wide = TargetingExpr::And((1..=70).map(attr).collect());
        let ad = file(&mut index, wide.clone(), profiles.symbols_mut());
        let holder = profiles.register(30, Gender::Female, "Ohio", "43004");
        for a in 1..=70 {
            profiles
                .grant_attribute(holder, AttributeId(a))
                .expect("grant");
        }
        let audiences = AudienceStore::new(20, 1000, 100);
        let user = profiles.get(holder).expect("user");
        assert!(TargetingSpec::including(wide).matches(user, &audiences));
        assert_eq!(index.candidates(user, &audiences), vec![ad]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::audience::AudienceStore;
    use crate::compiled::ProgramArena;
    use crate::profile::{Gender, ProfileStore};
    use crate::targeting::{TargetingExpr, TargetingSpec};
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

    /// One generated user: `(attributes, home zip, visited zips,
    /// audiences joined)`.
    type UserShape = (Vec<u64>, String, Vec<String>, Vec<u64>);

    fn arb_user() -> impl Strategy<Value = UserShape> {
        (
            prop::collection::vec(1u64..12, 0..6),
            "[0-9]{2}",
            prop::collection::vec("[0-9]{2}", 0..3),
            prop::collection::vec(1u64..4, 0..3),
        )
    }

    /// An audience store with pixel audiences 1–3, none joined yet.
    fn audience_store() -> AudienceStore {
        let mut audiences = AudienceStore::new(20, 1000, 100);
        for i in 1..4u64 {
            audiences.create_pixel_audience(adsim_types::AccountId(1), adsim_types::PixelId(i));
        }
        audiences
    }

    /// Registers `shape` in Ohio and joins its audiences.
    fn register(
        profiles: &mut ProfileStore,
        audiences: &mut AudienceStore,
        (attrs, zip, visited, joined): &UserShape,
    ) -> adsim_types::UserId {
        let u = profiles.register(33, Gender::Female, "Ohio", zip);
        for &a in attrs {
            profiles.grant_attribute(u, AttributeId(a)).expect("grant");
        }
        for z in visited {
            profiles.record_zip_visit(u, z).expect("visit");
        }
        for &a in joined {
            audiences.record_pixel_visit(adsim_types::PixelId(a), u);
        }
        u
    }

    /// The And-level conjuncts of `expr` that form a group: keyable
    /// leaves, and `Or`s whose every disjunct is one.
    fn keyable_conjuncts(expr: &TargetingExpr, out: &mut Vec<TargetingExpr>) {
        let keyable_leaf = |e: &TargetingExpr| {
            matches!(
                e,
                TargetingExpr::Attr(_)
                    | TargetingExpr::InAudience(_)
                    | TargetingExpr::VisitedZip(_)
                    | TargetingExpr::InZip(_)
                    | TargetingExpr::InState(_)
            )
        };
        match expr {
            TargetingExpr::And(subs) => subs.iter().for_each(|s| keyable_conjuncts(s, out)),
            TargetingExpr::Or(subs) if !subs.is_empty() && subs.iter().all(keyable_leaf) => {
                out.push(expr.clone());
            }
            leaf if keyable_leaf(leaf) => out.push(leaf.clone()),
            _ => {}
        }
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
            let mut profiles = ProfileStore::new();
            let groups = ProgramArena::new().push(&spec, profiles.symbols_mut());
            index.insert(AdId(1), &groups);

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

        /// Many ads, one counting buffer reused across a sequence of
        /// users: every matching ad is a candidate, the reused buffer
        /// answers exactly as a fresh one, and every candidate satisfies
        /// each keyable And-level conjunct of its include expression —
        /// the index prunes on all of them, not on one.
        #[test]
        fn reused_buffer_candidates_are_sound_and_exact(
            specs in prop::collection::vec(
                (arb_expr(), prop_oneof![Just(None), arb_expr().prop_map(Some)]),
                1..8,
            ),
            users in prop::collection::vec(arb_user(), 1..6),
        ) {
            let specs: Vec<TargetingSpec> = specs
                .into_iter()
                .map(|(include, exclude)| TargetingSpec { include, exclude })
                .collect();
            let mut index = TargetingIndex::new();
            let mut profiles = ProfileStore::new();
            for (slot, spec) in specs.iter().enumerate() {
                let groups = ProgramArena::new().push(spec, profiles.symbols_mut());
                index.insert(AdId(slot as u64 + 1), &groups);
            }
            let mut audiences = audience_store();
            let ids: Vec<_> = users
                .iter()
                .map(|shape| register(&mut profiles, &mut audiences, shape))
                .collect();

            let mut counts = CountingBuffer::default();
            let mut out = Vec::new();
            for id in ids {
                let user = profiles.get(id).expect("user");
                index.candidates_with(user, &audiences, &mut counts, &mut out);
                prop_assert_eq!(&out, &index.candidates(user, &audiences));
                for (slot, spec) in specs.iter().enumerate() {
                    let ad = AdId(slot as u64 + 1);
                    if spec.matches(user, &audiences) {
                        prop_assert!(out.contains(&ad), "{:?} matches but was pruned", ad);
                    }
                    if out.contains(&ad) {
                        let mut conjuncts = Vec::new();
                        keyable_conjuncts(&spec.include, &mut conjuncts);
                        for conjunct in conjuncts {
                            prop_assert!(
                                conjunct.matches(user, &audiences),
                                "{:?} is a candidate but fails {:?}", ad, conjunct
                            );
                        }
                    }
                }
            }
        }
    }
}
