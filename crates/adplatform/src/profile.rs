//! The platform's user store.
//!
//! Each user carries demographics, the set of targeting attributes the
//! platform holds about them (platform-computed and partner-sourced), page
//! likes, and **hashed PII with provenance**. PII provenance models the
//! finding the paper cites (Venkatadri et al., PETS 2019) that platforms
//! use PII from surprising sources — phone numbers provided for two-factor
//! authentication, numbers synced from friends' address books — for ad
//! targeting; experiment E7 surfaces exactly that.

use adsim_types::hash::{hash_pii, Digest};
use adsim_types::{AttributeId, Error, Result, Symbol, SymbolTable, UserId};
use std::collections::{BTreeSet, HashMap};

/// Self-reported gender (used for demographic targeting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    /// Female.
    Female,
    /// Male.
    Male,
    /// Not specified.
    Unspecified,
}

/// How a piece of PII reached the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PiiProvenance {
    /// The user typed it into their own profile.
    UserProvided,
    /// Provided for two-factor authentication / account security.
    TwoFactor,
    /// Synced from a friend's contact list — the user never gave it.
    ContactSync,
}

/// Kind of personally-identifying identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PiiKind {
    /// An email address.
    Email,
    /// A phone number.
    Phone,
}

/// A hashed PII record attached to a user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiiRecord {
    /// The normalized, hashed identifier.
    pub digest: Digest,
    /// What kind of identifier this is.
    pub kind: PiiKind,
    /// How the platform obtained it.
    pub provenance: PiiProvenance,
}

/// The fixed-width evaluation sidecar of one user profile: what the
/// compiled targeting evaluator ([`crate::compiled::ProgramArena`]) probes
/// instead of the string/`BTreeSet` fields it mirrors.
///
/// * attributes → a bitset indexed by raw [`AttributeId`] (one bit per
///   catalog slot, pre-sized to the catalog and grown on demand for
///   out-of-catalog ids), so an attribute test is one word load + mask;
/// * home state and ZIP → [`Symbol`]s from the store's [`SymbolTable`],
///   so a geo test is one `u32` compare;
/// * recently-visited ZIPs → a sorted symbol list, so a visited-ZIP test
///   is a binary search over `u32`s.
///
/// Maintained **incrementally** by [`ProfileStore`] on every mutation
/// ([`ProfileStore::register`], [`ProfileStore::grant_attribute`],
/// [`ProfileStore::record_zip_visit`]) — never rebuilt at decide time —
/// so delivery evaluates with zero allocation. The mirrored tree fields
/// stay authoritative for the `EvalMode::Tree` oracle; the equivalence
/// proptests hold the two views identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileFacets {
    /// Attribute bitset: bit `id.raw()` of word `id.raw() / 64`.
    attr_words: Vec<u64>,
    /// Interned home state.
    state_sym: Symbol,
    /// Interned home ZIP.
    zip_sym: Symbol,
    /// Interned recently-visited ZIPs, sorted by symbol.
    visited_zips: Vec<Symbol>,
}

impl ProfileFacets {
    /// True if the attribute bit is set — the compiled counterpart of
    /// [`UserProfile::has_attribute`].
    #[inline]
    pub fn has_attribute(&self, attr: AttributeId) -> bool {
        let raw = attr.raw();
        match self.attr_words.get((raw / 64) as usize) {
            Some(word) => word & (1u64 << (raw % 64)) != 0,
            None => false,
        }
    }

    /// The interned home state.
    #[inline]
    pub fn state(&self) -> Symbol {
        self.state_sym
    }

    /// The interned home ZIP.
    #[inline]
    pub fn zip(&self) -> Symbol {
        self.zip_sym
    }

    /// True if the user was recently located in the ZIP behind `zip`.
    #[inline]
    pub fn visited(&self, zip: Symbol) -> bool {
        self.visited_zips.binary_search(&zip).is_ok()
    }

    /// The raw bitset words (checkpoint serialization).
    pub fn attr_words(&self) -> &[u64] {
        &self.attr_words
    }

    /// The sorted visited-ZIP symbols (checkpoint serialization).
    pub fn visited_zip_symbols(&self) -> &[Symbol] {
        &self.visited_zips
    }

    /// Rebuilds facets from their checkpoint-serialized parts.
    pub fn from_parts(
        attr_words: Vec<u64>,
        state_sym: Symbol,
        zip_sym: Symbol,
        visited_zips: Vec<Symbol>,
    ) -> Self {
        Self {
            attr_words,
            state_sym,
            zip_sym,
            visited_zips,
        }
    }

    /// Sets the attribute bit, growing the bitset for out-of-catalog
    /// ids. Returns true if the bit was newly set.
    fn grant(&mut self, attr: AttributeId) -> bool {
        let raw = attr.raw();
        let word = (raw / 64) as usize;
        if word >= self.attr_words.len() {
            self.attr_words.resize(word + 1, 0);
        }
        let mask = 1u64 << (raw % 64);
        let newly = self.attr_words[word] & mask == 0;
        self.attr_words[word] |= mask;
        newly
    }

    /// Inserts a visited-ZIP symbol, keeping the list sorted. Returns
    /// true if the symbol was new.
    fn record_visit(&mut self, zip: Symbol) -> bool {
        match self.visited_zips.binary_search(&zip) {
            Ok(_) => false,
            Err(pos) => {
                self.visited_zips.insert(pos, zip);
                true
            }
        }
    }
}

/// One platform user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Platform-assigned id.
    pub id: UserId,
    /// Age in years.
    pub age: u8,
    /// Self-reported gender.
    pub gender: Gender,
    /// U.S. state of residence.
    pub state: String,
    /// ZIP code of residence.
    pub zip: String,
    /// Targeting attributes the platform holds for this user.
    pub attributes: BTreeSet<AttributeId>,
    /// Hashed PII records with provenance.
    pub pii: Vec<PiiRecord>,
    /// Pages this user has liked (page ids are advertiser-created; see
    /// `crate::pages`).
    pub liked_pages: BTreeSet<u64>,
    /// ZIP codes the platform has recently located the user in (the paper
    /// notes platforms let advertisers target "users in a ZIP code" and
    /// reveal "whether a user is determined to have recently visited a
    /// particular ZIP code").
    pub recent_zips: BTreeSet<String>,
    /// Home coordinates, if the platform has located the user precisely
    /// (degrees). Enables the paper's "within a radius around any latitude
    /// and longitude" targeting.
    pub coordinates: Option<(f64, f64)>,
    /// The fixed-width evaluation sidecar mirroring `attributes`,
    /// `state`, `zip`, and `recent_zips`. Maintained by [`ProfileStore`];
    /// mutate those fields only through the store's methods, or the
    /// compiled evaluator will diverge from the tree oracle.
    pub facets: ProfileFacets,
}

impl UserProfile {
    /// True if the user holds targeting attribute `attr`.
    pub fn has_attribute(&self, attr: AttributeId) -> bool {
        self.attributes.contains(&attr)
    }

    /// The user's hashed emails, in insertion order.
    pub fn hashed_emails(&self) -> Vec<&Digest> {
        self.pii
            .iter()
            .filter(|p| p.kind == PiiKind::Email)
            .map(|p| &p.digest)
            .collect()
    }

    /// The user's hashed phone numbers, in insertion order.
    pub fn hashed_phones(&self) -> Vec<&Digest> {
        self.pii
            .iter()
            .filter(|p| p.kind == PiiKind::Phone)
            .map(|p| &p.digest)
            .collect()
    }

    /// True if the platform holds this exact hashed identifier for the
    /// user, regardless of kind or provenance.
    pub fn holds_pii(&self, digest: &Digest) -> bool {
        self.pii.iter().any(|p| &p.digest == digest)
    }
}

/// The slot of `id` in [`ProfileStore`]'s dense user vector. `None` for
/// `UserId(0)`, which is never assigned, and for ids too large to index.
fn slot(id: UserId) -> Option<usize> {
    usize::try_from(id.raw().checked_sub(1)?).ok()
}

/// The store of all platform users.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    /// Dense user storage: user ids count up from 1 and are never
    /// removed, so `UserId(n)` lives at slot `n - 1` (the layout
    /// [`crate::campaign::CampaignStore`] gives its ads). The decide
    /// path's per-opportunity profile fetch and the fold's per-pixel-fire
    /// existence check are each one slot load.
    users: Vec<UserProfile>,
    by_pii: HashMap<Digest, Vec<UserId>>,
    /// The platform-wide interner shared by profile facets and compiled
    /// targeting specs: both sides intern through this one table, so
    /// symbol equality means string equality between them.
    symbols: SymbolTable,
    /// Bitset words new profiles pre-allocate (set from the attribute
    /// catalog size, so catalog attributes never trigger a grow).
    attr_words_capacity: usize,
    /// Monotone count of incremental facet maintenance writes.
    facet_updates: u64,
}

impl ProfileStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes new profiles' attribute bitsets for a catalog holding
    /// ids up to `max_attribute_id` (ids beyond it still work — the
    /// bitset grows on demand — they just pay one reallocation).
    pub fn size_attribute_bitsets(&mut self, max_attribute_id: u64) {
        self.attr_words_capacity = (max_attribute_id / 64 + 1) as usize;
    }

    /// Registers a new user and returns their id.
    pub fn register(&mut self, age: u8, gender: Gender, state: &str, zip: &str) -> UserId {
        let id = UserId(self.users.len() as u64 + 1);
        let facets = ProfileFacets {
            attr_words: vec![0; self.attr_words_capacity],
            state_sym: self.symbols.intern(state),
            zip_sym: self.symbols.intern(zip),
            visited_zips: Vec::new(),
        };
        self.facet_updates += 1;
        self.users.push(UserProfile {
            id,
            age,
            gender,
            state: state.to_string(),
            zip: zip.to_string(),
            attributes: BTreeSet::new(),
            pii: Vec::new(),
            liked_pages: BTreeSet::new(),
            recent_zips: BTreeSet::new(),
            coordinates: None,
            facets,
        });
        id
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True if no users are registered.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Looks up a user.
    pub fn get(&self, id: UserId) -> Result<&UserProfile> {
        slot(id)
            .and_then(|slot| self.users.get(slot))
            .ok_or_else(|| Error::not_found("user", id))
    }

    /// Mutable lookup. An escape hatch: mutating `attributes`, `state`,
    /// `zip`, or `recent_zips` through it bypasses the facet sidecar —
    /// use the store's mutation methods for those.
    pub fn get_mut(&mut self, id: UserId) -> Result<&mut UserProfile> {
        slot(id)
            .and_then(|slot| self.users.get_mut(slot))
            .ok_or_else(|| Error::not_found("user", id))
    }

    /// Iterates over all users in id order.
    pub fn iter(&self) -> impl Iterator<Item = &UserProfile> {
        self.users.iter()
    }

    /// All user ids, in order.
    pub fn ids(&self) -> Vec<UserId> {
        self.users.iter().map(|u| u.id).collect()
    }

    /// Grants a targeting attribute to a user.
    pub fn grant_attribute(&mut self, user: UserId, attr: AttributeId) -> Result<()> {
        let profile = self.get_mut(user)?;
        profile.attributes.insert(attr);
        if profile.facets.grant(attr) {
            self.facet_updates += 1;
        }
        Ok(())
    }

    /// Attaches raw PII to a user: the store normalizes and hashes it, and
    /// indexes the digest for custom-audience matching.
    pub fn attach_pii(
        &mut self,
        user: UserId,
        kind: PiiKind,
        raw: &str,
        provenance: PiiProvenance,
    ) -> Result<Digest> {
        let digest = hash_pii(raw);
        let profile = self.get_mut(user)?;
        if !profile.holds_pii(&digest) {
            profile.pii.push(PiiRecord {
                digest,
                kind,
                provenance,
            });
            self.by_pii.entry(digest).or_default().push(user);
        }
        Ok(digest)
    }

    /// Users matching a hashed identifier — the custom-audience match
    /// primitive. Matches across *all* provenances: this is precisely the
    /// behaviour (2FA numbers being targetable) that E7 exposes.
    pub fn match_pii(&self, digest: &Digest) -> &[UserId] {
        self.by_pii.get(digest).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Records that `user` liked `page`.
    pub fn like_page(&mut self, user: UserId, page: u64) -> Result<()> {
        self.get_mut(user)?.liked_pages.insert(page);
        Ok(())
    }

    /// Records a recent location observation: the platform located `user`
    /// in `zip`.
    pub fn record_zip_visit(&mut self, user: UserId, zip: &str) -> Result<()> {
        let sym = self.symbols.intern(zip);
        let profile = self.get_mut(user)?;
        profile.recent_zips.insert(zip.to_string());
        if profile.facets.record_visit(sym) {
            self.facet_updates += 1;
        }
        Ok(())
    }

    /// Sets the user's precise home coordinates (degrees).
    pub fn set_coordinates(&mut self, user: UserId, lat: f64, lon: f64) -> Result<()> {
        self.get_mut(user)?.coordinates = Some((lat, lon));
        Ok(())
    }

    /// The platform-wide symbol table (facets and compiled specs share it).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table, for interning the strings of a
    /// targeting spec at compile time ([`crate::campaign::CampaignStore::create_ad`]).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Monotone count of incremental facet maintenance writes (the
    /// `targeting.facet_updates` telemetry counter).
    pub fn facet_updates(&self) -> u64 {
        self.facet_updates
    }

    /// Freezes the interner and every user's facets into a [`FacetsState`]
    /// for the checkpoint codec.
    pub fn export_facets(&self) -> FacetsState {
        FacetsState {
            symbols: self.symbols.names().to_vec(),
            facet_updates: self.facet_updates,
            users: self
                .users
                .iter()
                .map(|u| (u.id, u.facets.clone()))
                .collect(),
        }
    }

    /// Restores the state frozen by [`Self::export_facets`] onto an
    /// identically-configured store. Users absent from this store are
    /// skipped (a host mismatch the checkpoint's config echo already
    /// guards); a malformed symbol list (duplicates — rejected by the
    /// strict checkpoint decoder before this is reachable from bytes)
    /// leaves the interner untouched.
    pub fn restore_facets(&mut self, state: &FacetsState) {
        if let Ok(table) = SymbolTable::from_names(state.symbols.clone()) {
            self.symbols = table;
        }
        self.facet_updates = state.facet_updates;
        for (id, facets) in &state.users {
            if let Ok(u) = self.get_mut(*id) {
                u.facets = facets.clone();
            }
        }
    }
}

/// The checkpointable slice of the profile store's evaluation state: the
/// interner (in symbol order) plus every user's facet sidecar. Captured
/// into `crate::state::PlatformState` so a resumed run evaluates compiled
/// targeting against byte-identical symbols.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FacetsState {
    /// Interned strings in symbol order (`index == symbol`).
    pub symbols: Vec<String>,
    /// Monotone facet-write counter at capture time.
    pub facet_updates: u64,
    /// Each user's facets, in user-id order.
    pub users: Vec<(UserId, ProfileFacets)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_user() -> (ProfileStore, UserId) {
        let mut store = ProfileStore::new();
        let id = store.register(34, Gender::Female, "Massachusetts", "02115");
        (store, id)
    }

    #[test]
    fn register_and_lookup() {
        let (store, id) = store_with_user();
        let u = store.get(id).expect("exists");
        assert_eq!(u.age, 34);
        assert_eq!(u.state, "Massachusetts");
        assert_eq!(store.len(), 1);
        assert!(store.get(UserId(999)).is_err());
    }

    #[test]
    fn ids_outside_the_slots_are_not_found() {
        let mut store = ProfileStore::new();
        let first = store.register(30, Gender::Female, "Ohio", "43004");
        let last = store.register(40, Gender::Male, "Texas", "73301");
        assert_eq!((first, last), (UserId(1), UserId(2)));
        let not_found = |id: UserId| Error::not_found("user", id);
        for id in [UserId(0), UserId(last.raw() + 1), UserId(u64::MAX)] {
            assert_eq!(store.get(id).unwrap_err(), not_found(id));
            assert_eq!(store.get_mut(id).unwrap_err(), not_found(id));
            assert_eq!(
                store.grant_attribute(id, AttributeId(5)).unwrap_err(),
                not_found(id)
            );
        }
        // The misses touched no stored profile: no grant landed on a
        // neighbouring slot.
        for id in [first, last] {
            let u = store.get(id).expect("registered");
            assert_eq!(u.id, id);
            assert!(u.attributes.is_empty());
            assert!(!u.facets.has_attribute(AttributeId(5)));
        }
        // Only the two registrations bumped the facet-update counter.
        assert_eq!(store.facet_updates(), 2);
    }

    #[test]
    fn attribute_grants() {
        let (mut store, id) = store_with_user();
        store.grant_attribute(id, AttributeId(5)).expect("grant");
        store
            .grant_attribute(id, AttributeId(5))
            .expect("idempotent");
        let u = store.get(id).expect("exists");
        assert!(u.has_attribute(AttributeId(5)));
        assert!(!u.has_attribute(AttributeId(6)));
        assert_eq!(u.attributes.len(), 1);
    }

    #[test]
    fn pii_attach_and_match() {
        let (mut store, id) = store_with_user();
        let digest = store
            .attach_pii(
                id,
                PiiKind::Email,
                "Alice@Example.com ",
                PiiProvenance::UserProvided,
            )
            .expect("attach");
        // Matching is on normalized hashes.
        assert_eq!(store.match_pii(&hash_pii("alice@example.com")), &[id]);
        assert_eq!(digest, hash_pii("alice@example.com"));
        // Unknown digests match nothing.
        assert!(store.match_pii(&hash_pii("nobody@example.com")).is_empty());
    }

    #[test]
    fn pii_attach_is_idempotent_per_digest() {
        let (mut store, id) = store_with_user();
        store
            .attach_pii(
                id,
                PiiKind::Email,
                "a@example.com",
                PiiProvenance::UserProvided,
            )
            .expect("attach");
        store
            .attach_pii(
                id,
                PiiKind::Email,
                "A@EXAMPLE.COM",
                PiiProvenance::ContactSync,
            )
            .expect("attach dup");
        let u = store.get(id).expect("exists");
        assert_eq!(u.pii.len(), 1, "same normalized digest stored once");
        assert_eq!(store.match_pii(&hash_pii("a@example.com")).len(), 1);
    }

    #[test]
    fn two_factor_phone_is_matchable() {
        // The PETS 2019 finding the paper cites: PII provided for account
        // security is still used for ad targeting.
        let (mut store, id) = store_with_user();
        store
            .attach_pii(
                id,
                PiiKind::Phone,
                "+1-617-555-0100",
                PiiProvenance::TwoFactor,
            )
            .expect("attach");
        assert_eq!(store.match_pii(&hash_pii("+1-617-555-0100")), &[id]);
        let u = store.get(id).expect("exists");
        assert_eq!(u.pii[0].provenance, PiiProvenance::TwoFactor);
        assert_eq!(u.hashed_phones().len(), 1);
        assert!(u.hashed_emails().is_empty());
    }

    #[test]
    fn shared_pii_matches_multiple_users() {
        // A shared household landline attached to two accounts.
        let mut store = ProfileStore::new();
        let a = store.register(40, Gender::Male, "Ohio", "43004");
        let b = store.register(38, Gender::Female, "Ohio", "43004");
        store
            .attach_pii(
                a,
                PiiKind::Phone,
                "+1-614-555-0199",
                PiiProvenance::UserProvided,
            )
            .expect("attach a");
        store
            .attach_pii(
                b,
                PiiKind::Phone,
                "+1-614-555-0199",
                PiiProvenance::ContactSync,
            )
            .expect("attach b");
        assert_eq!(store.match_pii(&hash_pii("+1-614-555-0199")), &[a, b]);
    }

    #[test]
    fn page_likes() {
        let (mut store, id) = store_with_user();
        store.like_page(id, 42).expect("like");
        store.like_page(id, 42).expect("idempotent");
        assert!(store.get(id).expect("exists").liked_pages.contains(&42));
    }

    #[test]
    fn coordinates_are_settable() {
        let (mut store, id) = store_with_user();
        assert!(store.get(id).expect("exists").coordinates.is_none());
        store.set_coordinates(id, 42.36, -71.06).expect("set");
        assert_eq!(
            store.get(id).expect("exists").coordinates,
            Some((42.36, -71.06))
        );
    }

    #[test]
    fn recent_zip_visits_accumulate() {
        let (mut store, id) = store_with_user();
        store.record_zip_visit(id, "10001").expect("record");
        store.record_zip_visit(id, "10001").expect("idempotent");
        store.record_zip_visit(id, "94103").expect("record");
        let u = store.get(id).expect("exists");
        assert_eq!(u.recent_zips.len(), 2);
        assert!(u.recent_zips.contains("94103"));
    }

    #[test]
    fn facets_mirror_profile_mutations() {
        let mut store = ProfileStore::new();
        store.size_attribute_bitsets(128);
        let a = store.register(30, Gender::Female, "Ohio", "43004");
        let b = store.register(31, Gender::Male, "Texas", "43004");
        // Shared strings share symbols; distinct strings never do.
        let fa = &store.get(a).expect("a").facets;
        let fb = &store.get(b).expect("b").facets;
        assert_eq!(fa.zip(), fb.zip());
        assert_ne!(fa.state(), fb.state());
        assert_eq!(store.symbols().resolve(fa.state()), Some("Ohio"));

        // Attribute grants set exactly the granted bit; out-of-catalog
        // ids grow the bitset instead of being dropped.
        store.grant_attribute(a, AttributeId(5)).expect("grant");
        store.grant_attribute(a, AttributeId(999)).expect("grant");
        let fa = &store.get(a).expect("a").facets;
        assert!(fa.has_attribute(AttributeId(5)));
        assert!(fa.has_attribute(AttributeId(999)));
        assert!(!fa.has_attribute(AttributeId(6)));
        assert!(!store
            .get(b)
            .expect("b")
            .facets
            .has_attribute(AttributeId(5)));

        // Visited ZIPs land as sorted symbols; idempotent re-visits and
        // re-grants don't bump the update counter.
        let before = store.facet_updates();
        store.record_zip_visit(a, "10001").expect("visit");
        store.record_zip_visit(a, "10001").expect("idempotent");
        store
            .grant_attribute(a, AttributeId(5))
            .expect("idempotent");
        assert_eq!(store.facet_updates(), before + 1);
        let sym = store.symbols().lookup("10001").expect("interned");
        let fa = &store.get(a).expect("a").facets;
        assert!(fa.visited(sym));
        assert!(!fa.visited(fa.zip()), "home zip is not a recent visit");
    }

    #[test]
    fn facets_export_restore_round_trips() {
        let mut store = ProfileStore::new();
        let a = store.register(30, Gender::Female, "Ohio", "43004");
        store.grant_attribute(a, AttributeId(7)).expect("grant");
        store.record_zip_visit(a, "10001").expect("visit");
        let frozen = store.export_facets();

        // A freshly rebuilt identical host restores to the same state.
        let mut fresh = ProfileStore::new();
        fresh.register(30, Gender::Female, "Ohio", "43004");
        fresh.restore_facets(&frozen);
        assert_eq!(fresh.export_facets(), frozen);
        assert!(fresh
            .get(a)
            .expect("a")
            .facets
            .has_attribute(AttributeId(7)));
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut store = ProfileStore::new();
        let ids: Vec<UserId> = (0..5)
            .map(|_| store.register(30, Gender::Unspecified, "Texas", "73301"))
            .collect();
        let iterated: Vec<UserId> = store.iter().map(|u| u.id).collect();
        assert_eq!(iterated, ids);
        assert_eq!(store.ids(), ids);
    }
}
