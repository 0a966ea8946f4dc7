//! Compiled targeting programs: the delivery-path evaluator.
//!
//! [`crate::targeting::TargetingExpr::matches`] walks an expression tree,
//! probing a `BTreeSet<AttributeId>` and comparing `String`s per node —
//! fine at submission time, but delivery evaluates targeting for every
//! candidate ad of every impression opportunity, where pointer-chasing
//! and string compares dominate the auction phase. A compiled program is
//! the same predicate lowered once, at ad submission, into a flat
//! **straight-line op array** in the store's [`ProgramArena`]: no
//! recursion, no strings, no allocation — and no evaluation stack,
//! because the connectives compile to short-circuit skips over a single
//! boolean accumulator.
//!
//! * attribute tests become fixed-width bitmap probes against the
//!   profile's [`crate::profile::ProfileFacets`] bitset (one word load
//!   and mask, pre-computed at compile time);
//! * state/ZIP tests become `u32` symbol compares, visited-ZIP tests a
//!   binary search over sorted `u32`s — both sides interned through the
//!   platform's one [`SymbolTable`], so symbol equality is string
//!   equality;
//! * audience tests resolve against the store's pre-sorted membership
//!   sets via [`AudienceResolver`], exactly as the tree does (membership
//!   is frozen within a tick, so both evaluators see the same sets);
//! * `And`/`Or` lower to **short-circuit skips** (the private op set's
//!   `SkipIfFalse`/`SkipIfTrue`): each operand writes the accumulator,
//!   and a skip op jumps past the connective's remaining operands the
//!   moment the outcome is decided — the exact evaluation order of the
//!   tree's `iter().all()` / `iter().any()`. Skipping is sound because
//!   evaluation is pure: no leaf touches an RNG or mutates anything, so
//!   an operand that is never evaluated is unobservable.
//!
//! The result is an accumulator machine: every program, however nested,
//! evaluates with one `bool` register and a program counter. Hot-path
//! cost per candidate is a handful of table-free integer compares.
//!
//! The tree evaluator is retained as the [`EvalMode::Tree`] oracle,
//! mirroring `SelectionMode::LinearScan` from PR 3: both modes must
//! produce byte-identical platform outputs, and the proptests below plus
//! `tests/eval_equivalence.rs` hold them to it.

use crate::audience::AudienceResolver;
use crate::index::{ConjunctGroup, ConjunctKey};
use crate::profile::{Gender, UserProfile};
use crate::targeting::{haversine_km, TargetingExpr, TargetingSpec};
use adsim_types::{AttributeId, AudienceId, Symbol, SymbolTable};

/// How the delivery filter chain (stage 1, [`crate::delivery::MatchSet`])
/// evaluates a candidate ad's targeting spec.
///
/// Both modes produce byte-identical platform outputs; they differ only
/// in work performed. [`EvalMode::Tree`] is retained as the verification
/// oracle (and for A/B benchmarking) — the equivalence proptests run
/// every workload under both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Run the ad's compiled program ([`ProgramArena`]): bitmap probes
    /// and symbol compares over the profile's facet sidecar.
    #[default]
    Compiled,
    /// Walk the original [`TargetingExpr`] tree (the submission-time
    /// representation).
    Tree,
}

/// One op of a compiled targeting program.
///
/// Leaf ops *write* the boolean accumulator; `Not` inverts it; the two
/// skip ops implement short-circuit `And`/`Or` by jumping the program
/// counter forward when the accumulator already decides the connective.
/// Everything is fixed-width — the only indirection left at evaluation
/// time is the audience-membership lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CompiledOp {
    /// Set the accumulator to `true` (`Everyone`, and the empty `And`).
    ConstTrue,
    /// Set the accumulator to `false` (the empty `Or`).
    ConstFalse,
    /// Bitmap probe: word `word` of the facet bitset, pre-shifted `mask`.
    Attr {
        /// Index into the facet bitset's word array.
        word: u32,
        /// Single-bit mask within that word.
        mask: u64,
    },
    /// Inclusive age-range test.
    AgeRange {
        /// Minimum age, inclusive.
        min: u8,
        /// Maximum age, inclusive.
        max: u8,
    },
    /// Gender equality.
    GenderIs(Gender),
    /// Home-state symbol equality.
    StateEq(Symbol),
    /// Home-ZIP symbol equality.
    ZipEq(Symbol),
    /// Binary search of the sorted visited-ZIP symbols.
    VisitedZip(Symbol),
    /// Haversine radius test against the profile's coordinates.
    WithinRadius {
        /// Center latitude, degrees.
        lat: f64,
        /// Center longitude, degrees.
        lon: f64,
        /// Radius in kilometers.
        km: f64,
    },
    /// Audience-membership probe via the resolver.
    InAudience(AudienceId),
    /// Short-circuit `And`: if the accumulator is `false`, skip the next
    /// `n` ops (it already holds the connective's result).
    SkipIfFalse(u32),
    /// Short-circuit `Or`: if the accumulator is `true`, skip the next
    /// `n` ops.
    SkipIfTrue(u32),
    /// Invert the accumulator.
    Not,
}

impl CompiledOp {
    /// The index key a keyable leaf op tests for, read back from its
    /// already-interned operand; `None` for every other op.
    fn key(&self) -> Option<ConjunctKey> {
        match *self {
            CompiledOp::Attr { word, mask } => Some(ConjunctKey::Attr(AttributeId(
                u64::from(word) * 64 + u64::from(mask.trailing_zeros()),
            ))),
            CompiledOp::InAudience(a) => Some(ConjunctKey::Audience(a)),
            CompiledOp::VisitedZip(z) => Some(ConjunctKey::VisitedZip(z)),
            CompiledOp::ZipEq(z) => Some(ConjunctKey::Zip(z)),
            CompiledOp::StateEq(s) => Some(ConjunctKey::State(s)),
            _ => None,
        }
    }
}

/// All of a store's compiled programs in one contiguous op array, with a
/// dense `(offset, len)` span per program: the one compiled form, built
/// by `crate::campaign::CampaignStore::create_ad` once per ad at
/// submission and immutable afterwards, like the spec it compiles.
///
/// One heap allocation per program would mean ten thousand scattered
/// allocations at ten thousand ads, and a dependent pointer chase (spec
/// → ops) per candidate on the hot path. The arena stores one
/// `Vec<CompiledOp>` for everything and an 8-byte span per program, so
/// looking up a program is one load in a dense array and its ops are
/// adjacent to its neighbours'. Programs are append-only, matching the
/// store's never-reused ad ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramArena {
    ops: Vec<CompiledOp>,
    spans: Vec<(u32, u32)>,
}

impl ProgramArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `spec` (include ∧ ¬exclude) into the arena as its next
    /// program, interning its state/ZIP strings through `symbols` — the
    /// **same** table the profile store interns through, which is what
    /// makes the symbol compares sound — and returns the
    /// conjunct groups of its include expression: the keys
    /// [`crate::index::TargetingIndex`] files the ad under. The groups
    /// are read off the ops this pass emits, so each string is interned
    /// once. The new program's dense id is `len() - 1`.
    pub fn push(&mut self, spec: &TargetingSpec, symbols: &mut SymbolTable) -> Vec<ConjunctGroup> {
        let start = self.ops.len();
        let mut groups = Vec::new();
        emit_spec(spec, symbols, &mut self.ops, &mut groups);
        let len = self.ops.len() - start;
        self.spans.push((
            u32::try_from(start).expect("arena op count fits u32"),
            len as u32,
        ));
        groups
    }

    /// Number of programs in the arena.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no program has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Evaluates program `program` against `user`'s facet sidecar, or
    /// `None` for an id the arena has never issued. Equivalent to
    /// `TargetingSpec::matches` on the spec the program was compiled
    /// from, for any profile maintained by the same store and any
    /// resolver. Allocation-free: the whole evaluation is one accumulator
    /// and a program counter.
    pub fn matches<A: AudienceResolver>(
        &self,
        program: usize,
        user: &UserProfile,
        audiences: &A,
    ) -> Option<bool> {
        let &(start, len) = self.spans.get(program)?;
        let ops = &self.ops[start as usize..(start + len) as usize];
        Some(run_ops(ops, user, audiences))
    }
}

/// The accumulator machine: evaluates one program's op slice. See the
/// [module docs](self) for why a single `bool` register suffices.
fn run_ops<A: AudienceResolver>(ops: &[CompiledOp], user: &UserProfile, audiences: &A) -> bool {
    let facets = &user.facets;
    let mut acc = false;
    let mut pc = 0usize;
    while let Some(op) = ops.get(pc) {
        pc += 1;
        match *op {
            CompiledOp::ConstTrue => acc = true,
            CompiledOp::ConstFalse => acc = false,
            CompiledOp::Attr { word, mask } => {
                acc = facets
                    .attr_words()
                    .get(word as usize)
                    .is_some_and(|w| w & mask != 0);
            }
            CompiledOp::AgeRange { min, max } => acc = user.age >= min && user.age <= max,
            CompiledOp::GenderIs(g) => acc = user.gender == g,
            CompiledOp::StateEq(s) => acc = facets.state() == s,
            CompiledOp::ZipEq(z) => acc = facets.zip() == z,
            CompiledOp::VisitedZip(z) => acc = facets.visited(z),
            CompiledOp::WithinRadius { lat, lon, km } => {
                acc = match user.coordinates {
                    Some((ulat, ulon)) => haversine_km(lat, lon, ulat, ulon) <= km,
                    None => false,
                };
            }
            CompiledOp::InAudience(aud) => acc = audiences.contains(aud, user.id),
            CompiledOp::SkipIfFalse(n) => {
                if !acc {
                    pc += n as usize;
                }
            }
            CompiledOp::SkipIfTrue(n) => {
                if acc {
                    pc += n as usize;
                }
            }
            CompiledOp::Not => acc = !acc,
        }
    }
    acc
}

/// Emits a whole spec — include ∧ ¬exclude — into `ops`, and the include
/// expression's conjunct groups into `groups`. A failed include
/// short-circuits past the exclusion, exactly as the tree's `&&` does.
fn emit_spec(
    spec: &TargetingSpec,
    symbols: &mut SymbolTable,
    ops: &mut Vec<CompiledOp>,
    groups: &mut Vec<ConjunctGroup>,
) {
    emit_conjunct(&spec.include, symbols, ops, groups);
    if let Some(ex) = &spec.exclude {
        let site = ops.len();
        ops.push(CompiledOp::SkipIfFalse(0));
        emit(ex, symbols, ops);
        ops.push(CompiledOp::Not);
        let skip = (ops.len() - site - 1) as u32;
        ops[site] = CompiledOp::SkipIfFalse(skip);
    }
}

/// Emits ops for `expr`, leaving its value in the accumulator. N-ary
/// `And`/`Or` lower to operand sequences separated by skip ops that are
/// backpatched to jump to the connective's end — short-circuit evaluation
/// in the same operand order as the tree's `all()`/`any()`.
fn emit(expr: &TargetingExpr, symbols: &mut SymbolTable, ops: &mut Vec<CompiledOp>) {
    match expr {
        TargetingExpr::Everyone => ops.push(CompiledOp::ConstTrue),
        TargetingExpr::Attr(a) => {
            let raw = a.raw();
            ops.push(CompiledOp::Attr {
                word: (raw / 64) as u32,
                mask: 1u64 << (raw % 64),
            });
        }
        TargetingExpr::AgeRange { min, max } => ops.push(CompiledOp::AgeRange {
            min: *min,
            max: *max,
        }),
        TargetingExpr::GenderIs(g) => ops.push(CompiledOp::GenderIs(*g)),
        TargetingExpr::InState(s) => ops.push(CompiledOp::StateEq(symbols.intern(s))),
        TargetingExpr::InZip(z) => ops.push(CompiledOp::ZipEq(symbols.intern(z))),
        TargetingExpr::VisitedZip(z) => ops.push(CompiledOp::VisitedZip(symbols.intern(z))),
        TargetingExpr::WithinRadius { lat, lon, km } => ops.push(CompiledOp::WithinRadius {
            lat: *lat,
            lon: *lon,
            km: *km,
        }),
        TargetingExpr::InAudience(a) => ops.push(CompiledOp::InAudience(*a)),
        TargetingExpr::And(subs) => emit_connective(subs, true, symbols, ops, None),
        TargetingExpr::Or(subs) => emit_connective(subs, false, symbols, ops, None),
        TargetingExpr::Not(sub) => {
            emit(sub, symbols, ops);
            ops.push(CompiledOp::Not);
        }
    }
}

/// True for the leaves an index key can stand for.
fn is_keyable_leaf(expr: &TargetingExpr) -> bool {
    matches!(
        expr,
        TargetingExpr::Attr(_)
            | TargetingExpr::InAudience(_)
            | TargetingExpr::VisitedZip(_)
            | TargetingExpr::InZip(_)
            | TargetingExpr::InState(_)
    )
}

/// Emits an And-level conjunct of the include expression — the root, or
/// an operand of an `And` reached from it through `And`s alone — and
/// records its conjunct group (see [`crate::index`]): a keyable leaf is a
/// group of one key, an `Or` of keyable leaves a group of its disjuncts'
/// keys. An `And` hands the role on to its operands; every other conjunct
/// records nothing.
fn emit_conjunct(
    expr: &TargetingExpr,
    symbols: &mut SymbolTable,
    ops: &mut Vec<CompiledOp>,
    groups: &mut Vec<ConjunctGroup>,
) {
    if let TargetingExpr::And(subs) = expr {
        return emit_connective(subs, true, symbols, ops, Some(groups));
    }
    let start = ops.len();
    emit(expr, symbols, ops);
    let keyable = match expr {
        TargetingExpr::Or(subs) => !subs.is_empty() && subs.iter().all(is_keyable_leaf),
        leaf => is_keyable_leaf(leaf),
    };
    if keyable {
        // Only leaf ops and the `Or`'s skips were emitted; the skips
        // carry no key.
        groups.push(ops[start..].iter().filter_map(CompiledOp::key).collect());
    }
}

/// Emits an `And` (`conjunction == true`) or `Or` connective: operands in
/// order, each but the last followed by a skip op backpatched to the end
/// of the connective. An empty connective is its identity element
/// (vacuous truth for `And`, vacuous falsity for `Or`), matching the
/// tree's `all()`/`any()` on an empty list. With `groups`, the connective
/// is an And-level `And` and its operands are conjuncts.
fn emit_connective(
    subs: &[TargetingExpr],
    conjunction: bool,
    symbols: &mut SymbolTable,
    ops: &mut Vec<CompiledOp>,
    mut groups: Option<&mut Vec<ConjunctGroup>>,
) {
    if subs.is_empty() {
        ops.push(if conjunction {
            CompiledOp::ConstTrue
        } else {
            CompiledOp::ConstFalse
        });
        return;
    }
    let mut sites = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        match groups.as_deref_mut() {
            Some(groups) => emit_conjunct(sub, symbols, ops, groups),
            None => emit(sub, symbols, ops),
        }
        if i + 1 < subs.len() {
            sites.push(ops.len());
            ops.push(CompiledOp::SkipIfFalse(0)); // placeholder, backpatched
        }
    }
    let end = ops.len();
    for site in sites {
        let skip = (end - site - 1) as u32;
        ops[site] = if conjunction {
            CompiledOp::SkipIfFalse(skip)
        } else {
            CompiledOp::SkipIfTrue(skip)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Gender, ProfileStore};
    use adsim_types::{AttributeId, UserId};
    use std::collections::HashSet;

    struct SetResolver(HashSet<(u64, u64)>);
    impl AudienceResolver for SetResolver {
        fn contains(&self, audience: AudienceId, user: UserId) -> bool {
            self.0.contains(&(audience.raw(), user.raw()))
        }
    }

    /// `spec` compiled as program 0 of a fresh arena.
    pub(super) fn compile(spec: &TargetingSpec, symbols: &mut SymbolTable) -> ProgramArena {
        let mut arena = ProgramArena::new();
        arena.push(spec, symbols);
        arena
    }

    #[test]
    fn paper_conjunction_compiles_and_matches() {
        let mut store = ProfileStore::new();
        let id = store.register(29, Gender::Female, "Illinois", "60601");
        store.grant_attribute(id, AttributeId(10)).expect("grant");
        store.grant_attribute(id, AttributeId(11)).expect("grant");
        let spec = TargetingSpec::including_excluding(
            TargetingExpr::And(vec![
                TargetingExpr::AgeRange { min: 24, max: 39 },
                TargetingExpr::InZip("60601".into()),
                TargetingExpr::Attr(AttributeId(10)),
                TargetingExpr::Attr(AttributeId(11)),
            ]),
            TargetingExpr::Attr(AttributeId(12)),
        );
        let compiled = compile(&spec, store.symbols_mut());
        // 4 leaves + 3 skips, then the exclusion's skip + leaf + Not.
        assert_eq!(compiled.ops.len(), 10);
        let resolver = SetResolver(HashSet::new());
        let user = store.get(id).expect("u");
        assert_eq!(compiled.matches(0, user, &resolver), Some(true));
        assert_eq!(
            compiled.matches(0, user, &resolver),
            Some(spec.matches(user, &resolver))
        );
    }

    #[test]
    fn symbols_are_shared_regardless_of_intern_order() {
        // Spec compiled before the user registers: both sides intern
        // through the same table, so the geo compares still line up.
        let mut store = ProfileStore::new();
        let spec = TargetingSpec::including(TargetingExpr::And(vec![
            TargetingExpr::InState("Ohio".into()),
            TargetingExpr::VisitedZip("10001".into()),
        ]));
        let compiled = compile(&spec, store.symbols_mut());
        let id = store.register(30, Gender::Male, "Ohio", "43004");
        store.record_zip_visit(id, "10001").expect("visit");
        let resolver = SetResolver(HashSet::new());
        assert_eq!(
            compiled.matches(0, store.get(id).expect("u"), &resolver),
            Some(true)
        );
    }

    #[test]
    fn empty_connectives_match_tree_semantics() {
        let mut store = ProfileStore::new();
        let id = store.register(50, Gender::Male, "Iowa", "50301");
        let resolver = SetResolver(HashSet::new());
        let t = compile(
            &TargetingSpec::including(TargetingExpr::And(vec![])),
            store.symbols_mut(),
        );
        let f = compile(
            &TargetingSpec::including(TargetingExpr::Or(vec![])),
            store.symbols_mut(),
        );
        let user = store.get(id).expect("u");
        assert_eq!(t.matches(0, user, &resolver), Some(true));
        assert_eq!(f.matches(0, user, &resolver), Some(false));
    }

    #[test]
    fn wide_or_compiles_flat_and_short_circuits() {
        // A 254-wide OR (the bit-slice reveal shape): one leaf + one skip
        // per operand but the last, and an early hit jumps straight to
        // the end — the same evaluation order as the tree's `any()`.
        let mut store = ProfileStore::new();
        let wide = TargetingExpr::Or(
            (0..254)
                .map(|i| TargetingExpr::Attr(AttributeId(1000 + i)))
                .collect(),
        );
        let compiled = compile(&TargetingSpec::including(wide), store.symbols_mut());
        assert_eq!(compiled.ops.len(), 254 + 253);
        let id = store.register(30, Gender::Male, "Ohio", "43004");
        store.grant_attribute(id, AttributeId(1000)).expect("grant");
        let resolver = SetResolver(HashSet::new());
        assert_eq!(
            compiled.matches(0, store.get(id).expect("u"), &resolver),
            Some(true)
        );
    }

    #[test]
    fn skip_offsets_cover_nested_connectives() {
        // And[Or[a, b], c, Not(d)] with an exclusion: every operand value
        // and every skip path must agree with the tree on all 16 profiles
        // of the 4 referenced attributes.
        let expr = |n: u64| TargetingExpr::Attr(AttributeId(n));
        let spec = TargetingSpec::including_excluding(
            TargetingExpr::And(vec![
                TargetingExpr::Or(vec![expr(1), expr(2)]),
                expr(3),
                TargetingExpr::Not(Box::new(expr(4))),
            ]),
            expr(5),
        );
        let resolver = SetResolver(HashSet::new());
        for bits in 0u32..32 {
            let mut store = ProfileStore::new();
            let compiled = compile(&spec, store.symbols_mut());
            let id = store.register(30, Gender::Female, "Ohio", "43004");
            for a in 0..5 {
                if bits >> a & 1 == 1 {
                    store
                        .grant_attribute(id, AttributeId(a + 1))
                        .expect("grant");
                }
            }
            let user = store.get(id).expect("u");
            assert_eq!(
                compiled.matches(0, user, &resolver),
                Some(spec.matches(user, &resolver)),
                "diverged at attribute bits {bits:05b}"
            );
        }
    }

    #[test]
    fn arena_programs_agree_with_standalone_specs() {
        // Programs share one op array, so adjacent programs (including an
        // exclusion's extra ops) must stay correctly delimited by their
        // spans: each must agree with the tree evaluator on its own spec.
        let mut store = ProfileStore::new();
        let specs = [
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(1))),
            TargetingSpec::including_excluding(
                TargetingExpr::Or(vec![
                    TargetingExpr::InState("Ohio".into()),
                    TargetingExpr::VisitedZip("60601".into()),
                ]),
                TargetingExpr::Attr(AttributeId(2)),
            ),
            TargetingSpec::including(TargetingExpr::Everyone),
        ];
        let mut arena = ProgramArena::new();
        for (i, spec) in specs.iter().enumerate() {
            arena.push(spec, store.symbols_mut());
            assert_eq!(arena.len(), i + 1);
        }
        assert_eq!(arena.len(), specs.len());
        let a = store.register(30, Gender::Female, "Ohio", "43004");
        store.grant_attribute(a, AttributeId(1)).expect("grant");
        let b = store.register(41, Gender::Male, "Texas", "73301");
        store.record_zip_visit(b, "60601").expect("visit");
        store.grant_attribute(b, AttributeId(2)).expect("grant");
        let resolver = SetResolver(HashSet::new());
        for uid in [a, b] {
            let user = store.get(uid).expect("user");
            for (i, spec) in specs.iter().enumerate() {
                assert_eq!(
                    arena.matches(i, user, &resolver),
                    Some(spec.matches(user, &resolver)),
                    "arena program {i} diverged for user {uid:?}"
                );
            }
            assert_eq!(arena.matches(specs.len(), user, &resolver), None);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::compile;
    use super::*;
    use crate::profile::{Gender, ProfileStore};
    use adsim_types::AttributeId;
    use proptest::prelude::*;

    /// Resolver answering membership from a bitmask on the audience id
    /// (pure and user-independent, like a frozen membership set).
    struct MaskResolver(u64);
    impl AudienceResolver for MaskResolver {
        fn contains(&self, audience: AudienceId, _user: adsim_types::UserId) -> bool {
            audience.raw() < 64 && (self.0 >> audience.raw()) & 1 == 1
        }
    }

    /// Expressions over every leaf kind the compiler lowers.
    fn arb_expr() -> impl Strategy<Value = TargetingExpr> {
        let leaf = prop_oneof![
            Just(TargetingExpr::Everyone),
            (1u64..20).prop_map(|a| TargetingExpr::Attr(AttributeId(a))),
            // Out-of-catalog ids exercise the bitset's grow path.
            (900u64..1200).prop_map(|a| TargetingExpr::Attr(AttributeId(a))),
            (18u8..60, 0u8..30).prop_map(|(min, extra)| TargetingExpr::AgeRange {
                min,
                max: min.saturating_add(extra),
            }),
            prop_oneof![
                Just(Gender::Female),
                Just(Gender::Male),
                Just(Gender::Unspecified)
            ]
            .prop_map(TargetingExpr::GenderIs),
            prop_oneof![Just("Ohio"), Just("Texas"), Just("Utah")]
                .prop_map(|s| TargetingExpr::InState(s.into())),
            "[0-9]{2}".prop_map(TargetingExpr::InZip),
            "[0-9]{2}".prop_map(TargetingExpr::VisitedZip),
            (40.0f64..43.0, -75.0f64..-70.0, 1.0f64..400.0)
                .prop_map(|(lat, lon, km)| TargetingExpr::WithinRadius { lat, lon, km }),
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
        /// The tentpole equivalence: for random profiles × random specs,
        /// the compiled program and the tree oracle agree — whichever
        /// side interned its strings first.
        #[test]
        fn compiled_equals_tree_oracle(
            include in arb_expr(),
            exclude in prop_oneof![Just(None), arb_expr().prop_map(Some)],
            compile_first in any::<bool>(),
            age in 16u8..80,
            state_ix in 0usize..4,
            zip in "[0-9]{2}",
            attrs in prop::collection::vec(prop_oneof![1u64..20, 900u64..1200], 0..8),
            visited in prop::collection::vec("[0-9]{2}", 0..4),
            coords in prop_oneof![
                Just(None),
                (40.0f64..43.0, -75.0f64..-70.0).prop_map(Some)
            ],
            mask in any::<u64>(),
        ) {
            let spec = TargetingSpec { include, exclude };
            let mut store = ProfileStore::new();
            let register = |store: &mut ProfileStore| {
                let state = ["Ohio", "Texas", "Utah", "Maine"][state_ix];
                let id = store.register(age, Gender::Female, state, &zip);
                for &a in &attrs {
                    store.grant_attribute(id, AttributeId(a)).expect("grant");
                }
                for z in &visited {
                    store.record_zip_visit(id, z).expect("visit");
                }
                if let Some((lat, lon)) = coords {
                    store.set_coordinates(id, lat, lon).expect("coords");
                }
                id
            };
            // Interning order between profile and spec must not matter.
            let (id, compiled) = if compile_first {
                let c = compile(&spec, store.symbols_mut());
                (register(&mut store), c)
            } else {
                let id = register(&mut store);
                (id, compile(&spec, store.symbols_mut()))
            };
            let resolver = MaskResolver(mask);
            let user = store.get(id).expect("user");
            prop_assert_eq!(
                compiled.matches(0, user, &resolver),
                Some(spec.matches(user, &resolver)),
                "compiled and tree evaluators diverged"
            );
        }
    }
}
