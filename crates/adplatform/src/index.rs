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
//! first 64 groups, as a posting `(ad slot, group)`, and sets its slot's
//! bit in the `required` bitset of each group it files. Ads with no group
//! go on the unanchored list.
//!
//! # Posting layout
//!
//! Every key keeps its posting list. A key whose list is long is also
//! stored as dense **rows**: one bitset over ad slots, in 64-slot words,
//! per group the key serves, with bit `s` set when the ad at slot `s`
//! files the key under that group. The form is a fixed rule: a key has
//! rows exactly while its list holds at least as many postings as its rows
//! would span words in total (the groups it serves times the words up to
//! its newest slot). The rule is checked each time the key gets a
//! posting; a key that falls below it drops its rows. Rows are therefore
//! never larger than the postings they repeat: they at most double the
//! index's posting memory, and OR-ing a key's rows never touches more
//! words than walking its list touches postings.
//!
//! # Candidates by counting
//!
//! A lookup visits the keys the user holds: the set bits of their
//! attribute bitset, the audiences they belong to, and the visited-ZIP,
//! home-ZIP and state symbols of their
//! [`crate::profile::ProfileFacets`]. It keeps one hit bitset per group in
//! a [`CountingBuffer`]: a key with rows ORs each row into its group's
//! bitset a word at a time, and any other key sets one bit per posting.
//! Candidates are then read word by word: the group-0 hits, ANDed for
//! each further group with that group's hits OR the ads that do not
//! require it. The result is the ads whose every group the user hit, in
//! ascending slot order. The caller keeps the buffer; it is sized on
//! demand and left all-zero after every lookup, so a lookup allocates
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
//! Posting lists are **append-only and status-independent**, and rows
//! change only when a posting is added: an ad is filed once, at creation,
//! under the groups of its (immutable) targeting spec. Pausing, policy
//! rejection, budget exhaustion, and account suspension need **no index
//! writes** — those are per-candidate checks
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

/// A dense row: bit `s` of `words` is set when the ad at slot `s` files
/// the row's key under group `group`. It ends at the word holding that
/// group's newest slot.
#[derive(Debug, Clone)]
struct Row {
    group: u32,
    words: Vec<u64>,
}

/// Everything filed under one key: its postings, and, while the list is
/// at least as long as its rows would be wide, the same postings as one
/// row per group the key serves (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
struct KeyList {
    postings: Vec<Posting>,
    /// The groups the key serves, one bit each.
    groups: u64,
    /// Empty while the key is stored as postings alone.
    rows: Vec<Row>,
}

/// Sets bit `slot` of the bitset `words`, growing it on demand.
fn set_bit(words: &mut Vec<u64>, slot: u32) {
    let word = slot as usize / 64;
    if word >= words.len() {
        words.resize(word + 1, 0);
    }
    words[word] |= 1 << (slot % 64);
}

impl KeyList {
    /// Adds the posting `(slot, group)`; `slot` is the newest slot filed.
    fn file(&mut self, slot: u32, group: u32) {
        self.postings.push(Posting { slot, group });
        self.groups |= 1 << group;
        let width = (slot as usize / 64 + 1) * self.groups.count_ones() as usize;
        if self.postings.len() < width {
            // Freed, not cleared: most keys stay short.
            self.rows = Vec::new();
            return;
        }
        // Promoted: every posting goes into a row. Already rows: only the
        // new one does.
        let fresh = if self.rows.is_empty() {
            &self.postings[..]
        } else {
            &self.postings[self.postings.len() - 1..]
        };
        for p in fresh {
            let row = match self.rows.iter().position(|r| r.group == p.group) {
                Some(i) => &mut self.rows[i],
                None => {
                    self.rows.push(Row {
                        group: p.group,
                        words: Vec::new(),
                    });
                    self.rows.last_mut().expect("just pushed")
                }
            };
            set_bit(&mut row.words, p.slot);
        }
    }

    /// Marks this key's ads in `hits`, the per-group hit bitsets laid end
    /// to end `words` words apart: a row at a time when the key has rows,
    /// a bit per posting otherwise.
    fn hit(&self, hits: &mut [u64], words: usize) {
        if self.rows.is_empty() {
            for p in &self.postings {
                hits[p.group as usize * words + p.slot as usize / 64] |= 1 << (p.slot % 64);
            }
            return;
        }
        for row in &self.rows {
            let start = row.group as usize * words;
            let dst = &mut hits[start..start + row.words.len()];
            for (h, &r) in dst.iter_mut().zip(&row.words) {
                *h |= r;
            }
        }
    }
}

/// Working memory of [`TargetingIndex::candidates_with`]: one hit bitset
/// per group, in 64-slot words over the index's ad slots.
///
/// Sized on demand to the index it is used with (at most one word per
/// ad: 64 groups of one bit per ad), and left all-zero by every lookup
/// before it returns, so one buffer serves any sequence of users (and
/// indexes) and a caller that keeps it allocates nothing once it has
/// grown.
#[derive(Debug, Clone, Default)]
pub struct CountingBuffer {
    /// Group `g`'s hits in words `g * w .. (g + 1) * w`, where `w` is the
    /// index's word count; all zero between lookups.
    hits: Vec<u64>,
}

/// The counting index over an ad inventory: key → postings (and rows for
/// long lists), a `required` bitset per group, and the unanchored
/// catch-all. See the [module docs](self) for the layout and for the
/// soundness and exactness arguments.
///
/// Owned by [`crate::campaign::CampaignStore`], which files every ad at
/// creation; all query methods take `&self`, so shard threads can share
/// one index freely.
#[derive(Debug, Clone, Default)]
pub struct TargetingIndex {
    /// Keys by raw attribute id.
    by_attr: Vec<KeyList>,
    /// Keys by raw audience id.
    by_audience: Vec<KeyList>,
    /// Keys by visited-ZIP symbol.
    by_visited_zip: Vec<KeyList>,
    /// Keys by home-ZIP symbol.
    by_zip: Vec<KeyList>,
    /// Keys by home-state symbol.
    by_state: Vec<KeyList>,
    /// `required[g]` has bit `s` set when the ad at slot `s` files a group
    /// `g`; each bitset is a subset of the one before it.
    required: Vec<Vec<u64>>,
    /// Ads filed.
    ads: usize,
    /// Ads with no group; candidates for every opportunity.
    unanchored: Vec<AdId>,
}

/// The key list of key `ix` (a raw id or a symbol) in a dense key table,
/// grown on demand.
fn list_at(table: &mut Vec<KeyList>, ix: u64) -> &mut KeyList {
    let ix = usize::try_from(ix).expect("ids and symbols index dense tables");
    if ix >= table.len() {
        table.resize_with(ix + 1, KeyList::default);
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
        assert_eq!(ad.raw(), self.ads as u64 + 1, "ads are filed in id order");
        let slot = u32::try_from(self.ads).expect("ad slots fit u32");
        self.ads += 1;
        let groups = &groups[..groups.len().min(MAX_GROUPS)];
        if groups.is_empty() {
            self.unanchored.push(ad);
            return;
        }
        if self.required.len() < groups.len() {
            self.required.resize_with(groups.len(), Vec::new);
        }
        // A key repeated within a group posts twice and sets the same bit
        // twice: harmless, so groups are filed as given.
        for (group, keys) in (0u32..).zip(groups) {
            set_bit(&mut self.required[group as usize], slot);
            for &key in keys {
                let list = match key {
                    ConjunctKey::Attr(a) => list_at(&mut self.by_attr, a.raw()),
                    ConjunctKey::Audience(a) => list_at(&mut self.by_audience, a.raw()),
                    ConjunctKey::VisitedZip(z) => list_at(&mut self.by_visited_zip, z.into()),
                    ConjunctKey::Zip(z) => list_at(&mut self.by_zip, z.into()),
                    ConjunctKey::State(s) => list_at(&mut self.by_state, s.into()),
                };
                list.file(slot, group);
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
    /// candidates for `user`, marking group hits in `counts`. A caller
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
        if self.unanchored.len() == self.ads {
            out.extend_from_slice(&self.unanchored);
            return;
        }
        let words = self.ads.div_ceil(64);
        let hits = &mut counts.hits;
        if hits.len() < self.required.len() * words {
            hits.resize(self.required.len() * words, 0);
        }
        let mut hit = |list: &KeyList| list.hit(hits, words);
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
            if !list.postings.is_empty() && audiences.contains(AudienceId(raw as u64), user.id) {
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
        // Read and clear the bitsets a word at a time. A group no ad of
        // the word requires ends the word's walk: no later group is
        // required there either, and none of their hit words is set.
        let (first, rest) = hits.split_at_mut(words);
        for (w, group0) in first.iter_mut().enumerate() {
            let mut acc = std::mem::take(group0);
            for (g, required) in self.required.iter().enumerate().skip(1) {
                let need = required.get(w).copied().unwrap_or(0);
                if need == 0 {
                    break;
                }
                acc &= std::mem::take(&mut rest[(g - 1) * words + w]) | !need;
            }
            let base = w as u64 * 64 + 1;
            while acc != 0 {
                out.push(AdId(base + u64::from(acc.trailing_zeros())));
                acc &= acc - 1;
            }
        }
        if !self.unanchored.is_empty() {
            out.extend_from_slice(&self.unanchored);
            out.sort_unstable();
        }
    }

    /// Number of ads filed.
    pub fn len(&self) -> usize {
        self.ads
    }

    /// True if no ads are filed.
    pub fn is_empty(&self) -> bool {
        self.ads == 0
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
    use adsim_types::SymbolTable;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// A generated ad's groups as `(class, value)` key choices (see
    /// [`key_of`]): none (unanchored), one to three over a small pool so
    /// that lists grow long enough for rows, or, for a wide ad, 64 groups
    /// over attributes 7–12 followed by groups on attribute 50, which no
    /// generated user holds.
    fn arb_groups() -> impl Strategy<Value = Vec<Vec<(u8, u8)>>> {
        let narrow = prop::collection::vec(prop::collection::vec((0u8..5, 0u8..6), 1..3), 1..4);
        let wide = (
            prop::collection::vec(prop::collection::vec(6u8..12, 1..3), 64..65),
            1usize..6,
        )
            .prop_map(|(groups, extra)| {
                groups
                    .into_iter()
                    .map(|g| g.into_iter().map(|v| (0, v)).collect())
                    .chain(std::iter::repeat_n(vec![(0, 49)], extra))
                    .collect()
            });
        // One arm in 14 unanchored, one wide, the rest narrow.
        let mut arms = vec![Just(Vec::new()).boxed(), wide.boxed()];
        arms.extend(std::iter::repeat_n(narrow.boxed(), 12));
        proptest::strategy::union(arms)
    }

    const STATES: [&str; 3] = ["Ohio", "Texas", "Utah"];

    /// The targeting leaf and the index key of a generated key choice:
    /// class 0 is attribute `value + 1`, 1 an audience, 2 a visited ZIP,
    /// 3 a home ZIP, 4 a state.
    fn key_of((class, v): (u8, u8), symbols: &mut SymbolTable) -> (TargetingExpr, ConjunctKey) {
        let zip = format!("9{v}");
        match class {
            0 => {
                let a = AttributeId(u64::from(v) + 1);
                (TargetingExpr::Attr(a), ConjunctKey::Attr(a))
            }
            1 => {
                let a = AudienceId(u64::from(v % 3) + 1);
                (TargetingExpr::InAudience(a), ConjunctKey::Audience(a))
            }
            2 => (
                TargetingExpr::VisitedZip(zip.clone()),
                ConjunctKey::VisitedZip(symbols.intern(&zip)),
            ),
            3 => (
                TargetingExpr::InZip(zip.clone()),
                ConjunctKey::Zip(symbols.intern(&zip)),
            ),
            _ => {
                let state = STATES[usize::from(v % 3)];
                (
                    TargetingExpr::InState(state.into()),
                    ConjunctKey::State(symbols.intern(state)),
                )
            }
        }
    }

    /// One generated user: `((attributes, holds every wide-ad attribute),
    /// home ZIP, visited ZIPs, audiences joined, state)`.
    type KeyedUser = ((BTreeSet<u64>, bool), u8, Vec<u8>, Vec<u64>, u8);

    fn arb_keyed_user() -> impl Strategy<Value = KeyedUser> {
        (
            (prop::collection::btree_set(1u64..13, 0..8), any::<bool>()),
            0u8..6,
            prop::collection::vec(0u8..6, 0..4),
            prop::collection::vec(1u64..4, 0..3),
            0u8..3,
        )
    }

    proptest! {
        /// A few hundred ads over a small key pool, filed in three
        /// batches with every user looked up on one reused buffer after
        /// each: long lists go to rows and short ones stay postings, and
        /// the candidates are exactly the ads whose first 64 groups the
        /// user all hits (by the tree evaluator's reading of each key),
        /// plus the unanchored ones, as a fresh buffer finds them too.
        #[test]
        fn word_parallel_candidates_match_a_brute_force_reference(
            ads in prop::collection::vec(arb_groups(), 1..300),
            users in prop::collection::vec(arb_keyed_user(), 1..6),
        ) {
            let mut profiles = ProfileStore::new();
            let ads: Vec<Vec<Vec<(TargetingExpr, ConjunctKey)>>> = ads
                .into_iter()
                .map(|groups| {
                    groups
                        .into_iter()
                        .map(|g| g.into_iter().map(|k| key_of(k, profiles.symbols_mut())).collect())
                        .collect()
                })
                .collect();
            let mut audiences = audience_store();
            let ids: Vec<_> = users
                .iter()
                .map(|((attrs, wide), zip, visited, joined, state)| {
                    let state = STATES[usize::from(*state)];
                    let u = profiles.register(33, Gender::Female, state, &format!("9{zip}"));
                    let wide_attrs = (7..=12).filter(|_| *wide);
                    for a in attrs.iter().copied().chain(wide_attrs) {
                        profiles.grant_attribute(u, AttributeId(a)).expect("grant");
                    }
                    for z in visited {
                        profiles.record_zip_visit(u, &format!("9{z}")).expect("visit");
                    }
                    for &a in joined {
                        audiences.record_pixel_visit(adsim_types::PixelId(a), u);
                    }
                    u
                })
                .collect();

            let mut index = TargetingIndex::new();
            let mut counts = CountingBuffer::default();
            let mut out = Vec::new();
            let batch = ads.len().div_ceil(3);
            for filed in (1..=3).map(|b| (b * batch).min(ads.len())) {
                for (slot, groups) in ads.iter().enumerate().skip(index.len()).take(filed - index.len()) {
                    let keys: Vec<ConjunctGroup> = groups
                        .iter()
                        .map(|g| g.iter().map(|(_, key)| *key).collect())
                        .collect();
                    index.insert(AdId(slot as u64 + 1), &keys);
                }
                for &id in &ids {
                    let user = profiles.get(id).expect("user");
                    let want: Vec<AdId> = (1..)
                        .map(AdId)
                        .zip(&ads[..filed])
                        .filter(|(_, groups)| {
                            groups.iter().take(MAX_GROUPS).all(|g| {
                                g.iter().any(|(leaf, _)| leaf.matches(user, &audiences))
                            })
                        })
                        .map(|(ad, _)| ad)
                        .collect();
                    index.candidates_with(user, &audiences, &mut counts, &mut out);
                    prop_assert_eq!(&out, &want, "{} ads filed", filed);
                    prop_assert_eq!(&out, &index.candidates(user, &audiences));
                }
            }
        }

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
