//! Targeting expressions and their evaluator.
//!
//! Advertisers describe audiences with boolean expressions over attributes,
//! demographics, and saved audiences — the paper's example is *"Millennials
//! who live in Chicago, are interested in musicals, are currently
//! unemployed, and are not in a relationship"*. [`TargetingExpr`] is that
//! expression tree; [`TargetingSpec`] wraps it in the include/exclude
//! structure real platforms expose (Treads use *exclusion* to reveal that
//! an attribute is false-or-missing, §3.1).
//!
//! Evaluation is pure: given a user profile and a resolver for saved
//! audiences, an expression either matches or does not. The platform's
//! delivery contract — "a user sees a targeted ad iff they satisfy the
//! targeting parameters" — reduces to this function, which is why it gets
//! property-based tests in addition to unit tests.

use crate::audience::AudienceResolver;
use crate::profile::{Gender, UserProfile};
use adsim_types::{AttributeId, AudienceId};

/// A boolean targeting expression.
///
/// (`PartialEq` only — radius predicates carry `f64` coordinates.)
#[derive(Debug, Clone, PartialEq)]
pub enum TargetingExpr {
    /// Matches every user (the control ad in the paper's validation targets
    /// all signed-up users with no further parameters).
    Everyone,
    /// User holds the targeting attribute.
    Attr(AttributeId),
    /// User's age lies in `[min, max]` (inclusive).
    AgeRange {
        /// Minimum age, inclusive.
        min: u8,
        /// Maximum age, inclusive.
        max: u8,
    },
    /// User's gender equals the given one.
    GenderIs(Gender),
    /// User lives in the given U.S. state.
    InState(String),
    /// User's ZIP code equals the given one (the paper notes advertisers
    /// can target users in a ZIP code).
    InZip(String),
    /// The platform recently located the user in the given ZIP code —
    /// the paper's location-reveal example ("whether a user is determined
    /// to have recently visited a particular ZIP code").
    VisitedZip(String),
    /// User's home coordinates lie within `km` kilometers of the given
    /// point (the paper's "within a radius around any latitude and
    /// longitude"). Users the platform has not located precisely never
    /// match.
    WithinRadius {
        /// Center latitude, degrees.
        lat: f64,
        /// Center longitude, degrees.
        lon: f64,
        /// Radius in kilometers.
        km: f64,
    },
    /// User belongs to a saved audience (custom/PII, pixel, or page
    /// engagement).
    InAudience(AudienceId),
    /// All sub-expressions match.
    And(Vec<TargetingExpr>),
    /// At least one sub-expression matches.
    Or(Vec<TargetingExpr>),
    /// The sub-expression does not match.
    Not(Box<TargetingExpr>),
}

impl TargetingExpr {
    /// Evaluates the expression against a user profile.
    ///
    /// `audiences` resolves [`TargetingExpr::InAudience`] membership; the
    /// platform passes its audience store, tests can pass a closure.
    pub fn matches<A: AudienceResolver>(&self, user: &UserProfile, audiences: &A) -> bool {
        match self {
            TargetingExpr::Everyone => true,
            TargetingExpr::Attr(attr) => user.has_attribute(*attr),
            TargetingExpr::AgeRange { min, max } => user.age >= *min && user.age <= *max,
            TargetingExpr::GenderIs(g) => user.gender == *g,
            TargetingExpr::InState(state) => &user.state == state,
            TargetingExpr::InZip(zip) => &user.zip == zip,
            TargetingExpr::VisitedZip(zip) => user.recent_zips.contains(zip),
            TargetingExpr::WithinRadius { lat, lon, km } => match user.coordinates {
                Some((ulat, ulon)) => haversine_km(*lat, *lon, ulat, ulon) <= *km,
                None => false,
            },
            TargetingExpr::InAudience(aud) => audiences.contains(*aud, user.id),
            TargetingExpr::And(subs) => subs.iter().all(|s| s.matches(user, audiences)),
            TargetingExpr::Or(subs) => subs.iter().any(|s| s.matches(user, audiences)),
            TargetingExpr::Not(sub) => !sub.matches(user, audiences),
        }
    }

    /// All attribute ids referenced anywhere in the expression, in
    /// depth-first order (used by the platform's explanation generator and
    /// the policy engine).
    pub fn referenced_attributes(&self) -> Vec<AttributeId> {
        let mut out = Vec::new();
        self.collect_attributes(&mut out);
        out
    }

    fn collect_attributes(&self, out: &mut Vec<AttributeId>) {
        match self {
            TargetingExpr::Attr(a) => out.push(*a),
            TargetingExpr::And(subs) | TargetingExpr::Or(subs) => {
                for s in subs {
                    s.collect_attributes(out);
                }
            }
            TargetingExpr::Not(sub) => sub.collect_attributes(out),
            _ => {}
        }
    }

    /// All saved-audience ids referenced anywhere in the expression.
    pub fn referenced_audiences(&self) -> Vec<AudienceId> {
        let mut out = Vec::new();
        self.collect_audiences(&mut out);
        out
    }

    fn collect_audiences(&self, out: &mut Vec<AudienceId>) {
        match self {
            TargetingExpr::InAudience(a) => out.push(*a),
            TargetingExpr::And(subs) | TargetingExpr::Or(subs) => {
                for s in subs {
                    s.collect_audiences(out);
                }
            }
            TargetingExpr::Not(sub) => sub.collect_audiences(out),
            _ => {}
        }
    }

    /// Appends the expression's canonical byte encoding: one tag byte per
    /// variant, payloads little-endian, strings and child lists
    /// length-prefixed (u32), floats as raw IEEE-754 bits. Unambiguous by
    /// construction (every variant is self-delimiting), so equal encodings
    /// imply equal trees — the property [`TargetingSpec::digest`] relies on.
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        match self {
            TargetingExpr::Everyone => out.push(0),
            TargetingExpr::Attr(a) => {
                out.push(1);
                out.extend_from_slice(&a.raw().to_le_bytes());
            }
            TargetingExpr::AgeRange { min, max } => {
                out.push(2);
                out.push(*min);
                out.push(*max);
            }
            TargetingExpr::GenderIs(g) => {
                out.push(3);
                out.push(match g {
                    Gender::Female => 0,
                    Gender::Male => 1,
                    Gender::Unspecified => 2,
                });
            }
            TargetingExpr::InState(s) => {
                out.push(4);
                put_str(out, s);
            }
            TargetingExpr::InZip(z) => {
                out.push(5);
                put_str(out, z);
            }
            TargetingExpr::VisitedZip(z) => {
                out.push(6);
                put_str(out, z);
            }
            TargetingExpr::WithinRadius { lat, lon, km } => {
                out.push(7);
                out.extend_from_slice(&lat.to_bits().to_le_bytes());
                out.extend_from_slice(&lon.to_bits().to_le_bytes());
                out.extend_from_slice(&km.to_bits().to_le_bytes());
            }
            TargetingExpr::InAudience(a) => {
                out.push(8);
                out.extend_from_slice(&a.raw().to_le_bytes());
            }
            TargetingExpr::And(subs) => {
                out.push(9);
                out.extend_from_slice(&(subs.len() as u32).to_le_bytes());
                for s in subs {
                    s.encode_canonical(out);
                }
            }
            TargetingExpr::Or(subs) => {
                out.push(10);
                out.extend_from_slice(&(subs.len() as u32).to_le_bytes());
                for s in subs {
                    s.encode_canonical(out);
                }
            }
            TargetingExpr::Not(sub) => {
                out.push(11);
                sub.encode_canonical(out);
            }
        }
    }
}

/// Great-circle distance between two (degree) coordinates, in kilometers
/// (haversine formula, mean Earth radius 6371 km).
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (lat1, lon1, lat2, lon2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * 6371.0 * a.sqrt().asin()
}

/// The include/exclude targeting structure advertisers submit with an ad.
///
/// A user is in the target iff they match `include` and do **not** match
/// `exclude`. Treads use `exclude` for negative disclosure: an ad excluding
/// attribute A tells its recipients that A is false or missing for them.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetingSpec {
    /// Who to reach.
    pub include: TargetingExpr,
    /// Who to carve out, even if they match `include`.
    pub exclude: Option<TargetingExpr>,
}

impl TargetingSpec {
    /// Targets exactly the users matching `include`.
    pub fn including(include: TargetingExpr) -> Self {
        Self {
            include,
            exclude: None,
        }
    }

    /// Targets users matching `include` but not `exclude`.
    pub fn including_excluding(include: TargetingExpr, exclude: TargetingExpr) -> Self {
        Self {
            include,
            exclude: Some(exclude),
        }
    }

    /// True if `user` is in the targeted set.
    pub fn matches<A: AudienceResolver>(&self, user: &UserProfile, audiences: &A) -> bool {
        if !self.include.matches(user, audiences) {
            return false;
        }
        match &self.exclude {
            Some(ex) => !ex.matches(user, audiences),
            None => true,
        }
    }

    /// Attribute ids referenced by either side of the spec.
    pub fn referenced_attributes(&self) -> Vec<AttributeId> {
        let mut attrs = self.include.referenced_attributes();
        if let Some(ex) = &self.exclude {
            attrs.extend(ex.referenced_attributes());
        }
        attrs
    }

    /// Saved-audience ids referenced by either side of the spec.
    pub fn referenced_audiences(&self) -> Vec<AudienceId> {
        let mut auds = self.include.referenced_audiences();
        if let Some(ex) = &self.exclude {
            auds.extend(ex.referenced_audiences());
        }
        auds
    }

    /// Canonical 64-bit digest of the spec, stable across processes and
    /// platform restarts.
    ///
    /// Delivery receipts bind each impression to the *exact* targeting
    /// parameters it was decided under; the digest is what a receipt can
    /// carry without shipping the whole expression tree. Two specs share
    /// a digest iff their canonical encodings are byte-identical:
    /// variant-tagged, length-prefixed, integers little-endian, floats as
    /// IEEE-754 bit patterns (so `-0.0` and `0.0` digest differently —
    /// they are different submissions even if they match the same users).
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        self.include.encode_canonical(&mut bytes);
        match &self.exclude {
            None => bytes.push(0),
            Some(ex) => {
                bytes.push(1);
                ex.encode_canonical(&mut bytes);
            }
        }
        adsim_types::hash::sha256(&bytes).fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileStore;
    use std::collections::HashSet;

    /// Test resolver: a set of (audience, user) pairs.
    struct SetResolver(HashSet<(u64, u64)>);

    impl AudienceResolver for SetResolver {
        fn contains(&self, audience: AudienceId, user: adsim_types::UserId) -> bool {
            self.0.contains(&(audience.raw(), user.raw()))
        }
    }

    fn empty_resolver() -> SetResolver {
        SetResolver(HashSet::new())
    }

    fn sample_user(store: &mut ProfileStore) -> adsim_types::UserId {
        let id = store.register(29, Gender::Female, "Illinois", "60601");
        store.grant_attribute(id, AttributeId(10)).expect("grant"); // musicals
        store.grant_attribute(id, AttributeId(11)).expect("grant"); // unemployed
        id
    }

    #[test]
    fn paper_chicago_millennial_example() {
        // "Millennials who live in Chicago, are interested in musicals, are
        // currently unemployed, and are not in a relationship."
        let mut store = ProfileStore::new();
        let id = sample_user(&mut store);
        let user = store.get(id).expect("exists");
        let expr = TargetingExpr::And(vec![
            TargetingExpr::AgeRange { min: 24, max: 39 },
            TargetingExpr::InZip("60601".into()),
            TargetingExpr::Attr(AttributeId(10)),
            TargetingExpr::Attr(AttributeId(11)),
            TargetingExpr::Not(Box::new(TargetingExpr::Attr(AttributeId(12)))), // in a relationship
        ]);
        assert!(expr.matches(user, &empty_resolver()));
    }

    #[test]
    fn age_range_is_inclusive() {
        let mut store = ProfileStore::new();
        let id = store.register(30, Gender::Male, "Texas", "73301");
        let user = store.get(id).expect("exists");
        assert!(TargetingExpr::AgeRange { min: 30, max: 35 }.matches(user, &empty_resolver()));
        assert!(TargetingExpr::AgeRange { min: 25, max: 30 }.matches(user, &empty_resolver()));
        assert!(!TargetingExpr::AgeRange { min: 31, max: 40 }.matches(user, &empty_resolver()));
    }

    #[test]
    fn everyone_matches_anyone() {
        let mut store = ProfileStore::new();
        let id = store.register(77, Gender::Unspecified, "Maine", "04101");
        assert!(TargetingExpr::Everyone.matches(store.get(id).expect("exists"), &empty_resolver()));
    }

    #[test]
    fn audience_membership_via_resolver() {
        let mut store = ProfileStore::new();
        let id = store.register(40, Gender::Male, "Ohio", "43004");
        let user = store.get(id).expect("exists");
        let resolver = SetResolver([(7, id.raw())].into_iter().collect());
        assert!(TargetingExpr::InAudience(AudienceId(7)).matches(user, &resolver));
        assert!(!TargetingExpr::InAudience(AudienceId(8)).matches(user, &resolver));
    }

    #[test]
    fn spec_exclusion_carves_out() {
        // The Tread negative-disclosure pattern: include opted-in audience,
        // exclude attribute holders.
        let mut store = ProfileStore::new();
        let with_attr = store.register(30, Gender::Female, "Utah", "84101");
        store
            .grant_attribute(with_attr, AttributeId(3))
            .expect("grant");
        let without_attr = store.register(30, Gender::Female, "Utah", "84101");

        let resolver = SetResolver(
            [(1, with_attr.raw()), (1, without_attr.raw())]
                .into_iter()
                .collect(),
        );
        let spec = TargetingSpec::including_excluding(
            TargetingExpr::InAudience(AudienceId(1)),
            TargetingExpr::Attr(AttributeId(3)),
        );
        assert!(!spec.matches(store.get(with_attr).expect("u"), &resolver));
        assert!(spec.matches(store.get(without_attr).expect("u"), &resolver));
    }

    #[test]
    fn referenced_attributes_and_audiences_walk_the_tree() {
        let expr = TargetingExpr::And(vec![
            TargetingExpr::Attr(AttributeId(1)),
            TargetingExpr::Or(vec![
                TargetingExpr::Attr(AttributeId(2)),
                TargetingExpr::Not(Box::new(TargetingExpr::Attr(AttributeId(3)))),
            ]),
            TargetingExpr::InAudience(AudienceId(9)),
        ]);
        let spec = TargetingSpec::including_excluding(expr, TargetingExpr::Attr(AttributeId(4)));
        assert_eq!(
            spec.referenced_attributes(),
            vec![
                AttributeId(1),
                AttributeId(2),
                AttributeId(3),
                AttributeId(4)
            ]
        );
        assert_eq!(spec.referenced_audiences(), vec![AudienceId(9)]);
    }

    #[test]
    fn empty_and_or_edge_cases() {
        let mut store = ProfileStore::new();
        let id = store.register(50, Gender::Male, "Iowa", "50301");
        let user = store.get(id).expect("exists");
        // Vacuous truth: empty AND matches; empty OR does not.
        assert!(TargetingExpr::And(vec![]).matches(user, &empty_resolver()));
        assert!(!TargetingExpr::Or(vec![]).matches(user, &empty_resolver()));
    }

    #[test]
    fn visited_zip_matches_recent_locations() {
        let mut store = ProfileStore::new();
        let id = store.register(30, Gender::Male, "New York", "10002");
        store.record_zip_visit(id, "10001").expect("record");
        let user = store.get(id).expect("exists");
        assert!(TargetingExpr::VisitedZip("10001".into()).matches(user, &empty_resolver()));
        // Home ZIP is not a *visit*; the two predicates are distinct.
        assert!(!TargetingExpr::VisitedZip("10002".into()).matches(user, &empty_resolver()));
        assert!(TargetingExpr::InZip("10002".into()).matches(user, &empty_resolver()));
    }

    #[test]
    fn radius_targeting_uses_haversine() {
        let mut store = ProfileStore::new();
        // Boston City Hall.
        let boston = store.register(30, Gender::Male, "Massachusetts", "02201");
        store
            .set_coordinates(boston, 42.3601, -71.0589)
            .expect("set");
        // Unlocated user.
        let unlocated = store.register(30, Gender::Male, "Massachusetts", "02201");
        // 10 km around Cambridge matches Boston; 10 km around NYC does not.
        let near = TargetingExpr::WithinRadius {
            lat: 42.3736,
            lon: -71.1097,
            km: 10.0,
        };
        let far = TargetingExpr::WithinRadius {
            lat: 40.7128,
            lon: -74.0060,
            km: 10.0,
        };
        assert!(near.matches(store.get(boston).expect("u"), &empty_resolver()));
        assert!(!far.matches(store.get(boston).expect("u"), &empty_resolver()));
        // Users without coordinates never match.
        assert!(!near.matches(store.get(unlocated).expect("u"), &empty_resolver()));
    }

    #[test]
    fn haversine_reference_distances() {
        // Boston -> NYC is ~306 km.
        let d = haversine_km(42.3601, -71.0589, 40.7128, -74.0060);
        assert!((d - 306.0).abs() < 5.0, "Boston-NYC {d} km");
        // Zero distance.
        assert!(haversine_km(1.0, 2.0, 1.0, 2.0) < 1e-9);
    }

    #[test]
    fn spec_digest_is_stable_and_discriminating() {
        let a = TargetingSpec::including(TargetingExpr::Attr(AttributeId(1)));
        // Same tree, independent construction: digests agree.
        assert_eq!(
            a.digest(),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(1))).digest()
        );
        // Different attribute, different connective, or an added exclude
        // each change the digest.
        assert_ne!(
            a.digest(),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(2))).digest()
        );
        assert_ne!(
            TargetingSpec::including(TargetingExpr::And(vec![])).digest(),
            TargetingSpec::including(TargetingExpr::Or(vec![])).digest()
        );
        assert_ne!(
            a.digest(),
            TargetingSpec::including_excluding(
                TargetingExpr::Attr(AttributeId(1)),
                TargetingExpr::Everyone
            )
            .digest()
        );
        // Floats digest by bit pattern.
        let near = |km| {
            TargetingSpec::including(TargetingExpr::WithinRadius {
                lat: 42.0,
                lon: -71.0,
                km,
            })
        };
        assert_ne!(near(10.0).digest(), near(10.5).digest());
    }

    #[test]
    fn double_negation() {
        let mut store = ProfileStore::new();
        let id = store.register(50, Gender::Male, "Iowa", "50301");
        store.grant_attribute(id, AttributeId(1)).expect("grant");
        let user = store.get(id).expect("exists");
        let double_not = TargetingExpr::Not(Box::new(TargetingExpr::Not(Box::new(
            TargetingExpr::Attr(AttributeId(1)),
        ))));
        assert!(double_not.matches(user, &empty_resolver()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::profile::ProfileStore;
    use proptest::prelude::*;

    /// Resolver that answers membership from a bitmask on the audience id.
    struct MaskResolver(u64);
    impl AudienceResolver for MaskResolver {
        fn contains(&self, audience: AudienceId, _user: adsim_types::UserId) -> bool {
            audience.raw() < 64 && (self.0 >> audience.raw()) & 1 == 1
        }
    }

    fn arb_expr() -> impl Strategy<Value = TargetingExpr> {
        let leaf = prop_oneof![
            Just(TargetingExpr::Everyone),
            (1u64..20).prop_map(|a| TargetingExpr::Attr(AttributeId(a))),
            (18u8..60, 0u8..30).prop_map(|(min, extra)| TargetingExpr::AgeRange {
                min,
                max: min.saturating_add(extra),
            }),
            (0u64..8).prop_map(|a| TargetingExpr::InAudience(AudienceId(a))),
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
        /// NOT is an involution on match outcome.
        #[test]
        fn not_inverts(expr in arb_expr(), attrs in prop::collection::vec(1u64..20, 0..10), mask in any::<u64>()) {
            let mut store = ProfileStore::new();
            let id = store.register(33, crate::profile::Gender::Female, "Oregon", "97201");
            for a in attrs {
                store.grant_attribute(id, AttributeId(a)).expect("grant");
            }
            let user = store.get(id).expect("exists");
            let resolver = MaskResolver(mask);
            let plain = expr.matches(user, &resolver);
            let negated = TargetingExpr::Not(Box::new(expr)).matches(user, &resolver);
            prop_assert_eq!(plain, !negated);
        }

        /// AND of a set matches iff every member matches; OR iff any does.
        #[test]
        fn and_or_semantics(exprs in prop::collection::vec(arb_expr(), 0..4), mask in any::<u64>()) {
            let mut store = ProfileStore::new();
            let id = store.register(41, crate::profile::Gender::Male, "Nevada", "89501");
            store.grant_attribute(id, AttributeId(1)).expect("grant");
            let user = store.get(id).expect("exists");
            let resolver = MaskResolver(mask);
            let each: Vec<bool> = exprs.iter().map(|e| e.matches(user, &resolver)).collect();
            prop_assert_eq!(
                TargetingExpr::And(exprs.clone()).matches(user, &resolver),
                each.iter().all(|&b| b)
            );
            prop_assert_eq!(
                TargetingExpr::Or(exprs).matches(user, &resolver),
                each.iter().any(|&b| b)
            );
        }

        /// The include/exclude spec equals include ∧ ¬exclude.
        #[test]
        fn spec_equals_conjunction(inc in arb_expr(), exc in arb_expr(), mask in any::<u64>()) {
            let mut store = ProfileStore::new();
            let id = store.register(27, crate::profile::Gender::Unspecified, "Georgia", "30301");
            store.grant_attribute(id, AttributeId(2)).expect("grant");
            let user = store.get(id).expect("exists");
            let resolver = MaskResolver(mask);
            let spec = TargetingSpec::including_excluding(inc.clone(), exc.clone());
            let expected = inc.matches(user, &resolver) && !exc.matches(user, &resolver);
            prop_assert_eq!(spec.matches(user, &resolver), expected);
        }
    }
}
