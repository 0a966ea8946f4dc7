//! The hash-chained delivery-receipt ledger.
//!
//! Treads assume users and advertisers can *verify* platform behavior,
//! but everything the simulator reports — transparency pages, invoices,
//! reach estimates — is trusted output of a platform assumed honest.
//! Following "Establishing Trust in Online Advertising with Signed
//! Transactions", this module turns that assumption into a checked
//! invariant: every delivery emits a [`DeliveryReceipt`] binding
//! `(tick, user-pseudonym, ad, targeting-spec digest, price)` into one
//! of [`LEDGER_CHAINS`] hash chains, and the chain heads are committed
//! into TRCK checkpoints so a resumed run cannot silently rewrite
//! history.
//!
//! # Chain layout
//!
//! Receipts are sharded over a **fixed** number of chains by user
//! pseudonym (`pseudonym % LEDGER_CHAINS`), *not* by engine shard.
//! Because both the batch supervisor and the serving applier append
//! receipts inside the canonical `(at, user, user_seq)` fold order,
//! chain contents are byte-identical at 1, 2, or 8 engine shards and
//! across the batch/serving twins — the same invariance contract the
//! rest of the engine keeps.
//!
//! # Emission vs materialization
//!
//! The engines emit [`ReceiptLedger::commitment_only`]: each receipt is
//! constructed, signed, and linked into its chain head, then dropped —
//! the platform's impression log already holds every receipt's content,
//! so retaining chains during the run would store the same data twice.
//! The *online* obligation is the commitment (heads and counts, the
//! part a checkpoint carries and a resume re-verifies); the full chains
//! are a deterministic view of the impression log, rematerialized on
//! demand by [`receipts_from_impressions`] for publication and audit.
//! This keeps emission to three word-folds per impression, with no
//! receipt stores on the tick fold's critical path.
//!
//! # Trust model
//!
//! * The **pseudonym** is a keyed hash of the user id (key = run seed):
//!   receipts never name users, mirroring the platform's own privacy
//!   posture, but a user's extension can re-derive its own pseudonym
//!   and check its feed against the ledger ([`ReceiptLedger::claims_for`]).
//! * The **signature** is a keyed hash over the receipt body — a
//!   deterministic stand-in for a real platform signature (the
//!   workspace has no asymmetric-crypto dependency). It models
//!   non-repudiation, not secrecy.
//! * The **head** of each chain is `H(prev_head ‖ sig ‖ price)`,
//!   genesis-seeded per chain (the signature already binds every other
//!   field under the key; the price is folded separately because it is
//!   the one field the fault family edits *without* re-signing).
//!   Auditors recompute chains from the checkpoint's impression log
//!   ([`receipts_from_impressions`]) and diff them against what the
//!   platform *published* ([`ReceiptLedger::publish`] — optionally
//!   tampered by a [`DishonestFault`] schedule), attributing every
//!   divergence to an exact chain, receipt index, and tick
//!   ([`ReceiptLedger::audit`]).
//!
//! # Hash choice
//!
//! Emission runs inside the per-impression tick fold, so the keyed
//! hashes here are word-folds finished by the workspace's splitmix64
//! mixer ([`mix64`], also behind trace ids and delta state digests), not the
//! from-scratch SHA-256 used for PII: three SHA-256 invocations per
//! impression more than double engine cost, while the word-fold keeps
//! emission under 2% (measured by E19). Like the delta digest, it
//! models *integrity against the simulated fault family*, not a
//! cryptographic adversary; the domain-separated keyed construction is
//! shaped so a real signature scheme could drop in.

use crate::codec::Writer;
use crate::fault::{DishonestFault, EquivocationKind, FaultPlan};
use adplatform::reporting::Impression;
use adsim_types::hash::mix64;
use adsim_types::{AdId, Money, SimTime, UserId};

/// Number of receipt chains. Fixed (independent of engine shard count)
/// so chain contents are shard-count-invariant.
pub const LEDGER_CHAINS: u32 = 8;

/// Domain-separation tags for the ledger's keyed hashes.
const DOMAIN_PSEUDONYM: u64 = 0x5452_4b5f_5053_4555; // "TRK_PSEU"
const DOMAIN_SIG: u64 = 0x5452_4b5f_5349_475f; // "TRK_SIG_"
const DOMAIN_GENESIS: u64 = 0x5452_4b5f_4745_4e45; // "TRK_GENE"
const DOMAIN_LINK: u64 = 0x5452_4b5f_4c49_4e4b; // "TRK_LINK"

/// Folds one 64-bit word into the running state (FNV-1a shape, word
/// granularity — one multiply per field keeps emission off the tick
/// fold's critical path).
const fn absorb(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The keyed starting state for one hash domain.
const fn keyed(domain: u64, seed: u64) -> u64 {
    absorb(absorb(0xcbf2_9ce4_8422_2325, domain), seed)
}

/// Chain-link starting state (the mix is paid once, at compile time).
const LINK_INIT: u64 = mix64(DOMAIN_LINK);

/// One signed delivery receipt: the platform's attestation that ad
/// `ad` was delivered to the pseudonymous user at `at` for
/// `price_micros`, under the targeting spec digested as `spec_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryReceipt {
    /// Position in its chain (0-based); makes every receipt unique even
    /// when a user sees the same ad twice in one tick.
    pub seq: u64,
    /// Engine tick the delivery fell in (`at / tick_ms`).
    pub tick: u64,
    /// Simulated delivery instant.
    pub at: SimTime,
    /// Keyed hash of the viewing user's id (see [`pseudonym`]).
    pub pseudonym: u64,
    /// The delivered ad.
    pub ad: AdId,
    /// Canonical digest of the ad's targeting spec at decision time.
    pub spec_digest: u64,
    /// Price charged, micro-dollars (the auction outcome: receipts
    /// exist only for won auctions).
    pub price_micros: i64,
    /// Keyed-hash signature over every field above.
    pub sig: u64,
}

impl DeliveryReceipt {
    /// The canonical TRCK-codec encoding of the receipt (signature
    /// included) — the publication wire format; the signature and chain
    /// link fold the same fields in the same order, word by word.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_core(&mut w);
        w.put_u64(self.sig);
        w.into_bytes()
    }

    /// The signature a platform holding `seed` must produce for this
    /// receipt's content: the keyed word-fold over exactly the fields
    /// (and field order) of the canonical encoding.
    pub fn expected_sig(seed: u64, receipt: &DeliveryReceipt) -> u64 {
        Self::sig_under_key(keyed(DOMAIN_SIG, seed), receipt)
    }

    /// [`Self::expected_sig`] with the keyed starting state precomputed
    /// (the ledger caches it so the per-delivery hot path skips the key
    /// derivation).
    fn sig_under_key(sig_key: u64, receipt: &DeliveryReceipt) -> u64 {
        let mut h = sig_key;
        h = absorb(h, receipt.seq);
        h = absorb(h, receipt.tick);
        h = absorb(h, receipt.at.0);
        h = absorb(h, receipt.pseudonym);
        h = absorb(h, receipt.ad.raw());
        h = absorb(h, receipt.spec_digest);
        h = absorb(h, receipt.price_micros as u64);
        mix64(h)
    }

    /// True if the receipt's signature verifies under `seed`.
    pub fn verify_sig(&self, seed: u64) -> bool {
        self.sig == Self::expected_sig(seed, self)
    }

    fn encode_core(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        w.put_u64(self.tick);
        w.put_u64(self.at.0);
        w.put_u64(self.pseudonym);
        w.put_u64(self.ad.raw());
        w.put_u64(self.spec_digest);
        w.put_i64(self.price_micros);
    }
}

/// The committed head of one receipt chain, as stored in TRCK
/// checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerHead {
    /// Chain index, `0..LEDGER_CHAINS`.
    pub chain: u32,
    /// Rolling hash over the chain's receipts.
    pub head: u64,
    /// Number of receipts chained so far.
    pub count: u64,
}

/// The user pseudonym receipts carry: a keyed hash of the user id under
/// the run seed. Users (and their extensions) know their own id and the
/// run seed, so each can re-derive exactly *their* pseudonym; nobody
/// can invert another user's.
pub fn pseudonym(seed: u64, user: UserId) -> u64 {
    mix64(absorb(keyed(DOMAIN_PSEUDONYM, seed), user.raw()))
}

fn genesis_head(seed: u64, chain: u32) -> u64 {
    mix64(absorb(keyed(DOMAIN_GENESIS, seed), u64::from(chain)))
}

/// Rolls one receipt into a chain head. The signature binds every field
/// under the run key, so folding `(prev_head, sig, price)` binds the
/// whole receipt; the price rides along explicitly because
/// [`DishonestFault::RewritePrice`] models an after-the-fact edit that
/// keeps the stale signature.
fn link(prev_head: u64, receipt: &DeliveryReceipt) -> u64 {
    let mut h = absorb(LINK_INIT, prev_head);
    h = absorb(h, receipt.sig);
    h = absorb(h, receipt.price_micros as u64);
    mix64(h)
}

/// The platform-side receipt ledger: [`LEDGER_CHAINS`] hash chains with
/// incrementally-maintained heads. Appends are O(1): a pseudonym
/// derivation, a signature, and a head link, all splitmix64 word-folds —
/// the E19 experiment measures emission at under 2% of engine
/// throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiptLedger {
    seed: u64,
    tick_ms: u64,
    /// Whether appended receipts are retained (see
    /// [`ReceiptLedger::commitment_only`]).
    retain: bool,
    chains: Vec<Vec<DeliveryReceipt>>,
    heads: Vec<u64>,
    counts: Vec<u64>,
    // Hot-path caches, all deterministic functions of (seed, appends),
    // so the derived equality stays stream equality.
    sig_key: u64,
    pseudonym_key: u64,
    // Current tick bucket: appends arrive in canonical fold order, so
    // `at` is nondecreasing and the tick division is paid only at tick
    // boundaries (or on the rare out-of-order test append).
    tick_start: u64,
    tick_end: u64,
    tick: u64,
}

/// What the platform *publishes* for audit: receipt chains plus
/// advertised heads. Produced by [`ReceiptLedger::publish`], honestly or
/// under a [`DishonestFault`] schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedLedger {
    /// Published receipts, per chain.
    pub chains: Vec<Vec<DeliveryReceipt>>,
    /// Advertised chain heads.
    pub heads: Vec<LedgerHead>,
}

/// One tampering a publish actually committed (faults targeting chains
/// too short to apply them are skipped and not listed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedEquivocation {
    /// Tampered chain.
    pub chain: u32,
    /// Tampering shape.
    pub kind: EquivocationKind,
    /// Resolved receipt index (for head equivocation: the chain length).
    pub index: u64,
}

/// One divergence the auditor attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditFinding {
    /// Chain the divergence lies on.
    pub chain: u32,
    /// What shape of tampering it is.
    pub kind: EquivocationKind,
    /// First diverging receipt index (for head equivocation: the chain
    /// length — the head sits after the last receipt).
    pub index: u64,
    /// Tick of the receipt at the divergence point.
    pub tick: u64,
}

/// The auditor's verdict over a published ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Every attributed divergence, in chain order.
    pub findings: Vec<AuditFinding>,
    /// Chains compared.
    pub chains_checked: u32,
    /// Receipts recomputed and compared.
    pub receipts_checked: u64,
}

impl AuditReport {
    /// True if the published ledger matches the recomputed one exactly.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings as `(chain, kind, index)` triples, for comparison
    /// against an injected schedule.
    pub fn detected_set(&self) -> Vec<(u32, EquivocationKind, u64)> {
        self.findings
            .iter()
            .map(|f| (f.chain, f.kind, f.index))
            .collect()
    }
}

impl ReceiptLedger {
    /// An empty ledger keyed by the run seed, bucketing receipts into
    /// ticks of `tick_ms` simulated milliseconds. Retains every
    /// appended receipt — the materialized form auditors diff against
    /// a publish ([`receipts_from_impressions`] builds one from an
    /// impression log).
    pub fn new(seed: u64, tick_ms: u64) -> Self {
        let n = LEDGER_CHAINS as usize;
        let tick_ms = tick_ms.max(1);
        Self {
            seed,
            tick_ms,
            retain: true,
            chains: vec![Vec::new(); n],
            heads: (0..LEDGER_CHAINS).map(|c| genesis_head(seed, c)).collect(),
            counts: vec![0; n],
            sig_key: keyed(DOMAIN_SIG, seed),
            pseudonym_key: keyed(DOMAIN_PSEUDONYM, seed),
            tick_start: 0,
            tick_end: tick_ms,
            tick: 0,
        }
    }

    /// An empty ledger that maintains only the chain heads and counts,
    /// discarding receipt bodies after they are signed and linked. This
    /// is the engines' emission mode: the platform already records every
    /// impression, so the retained chains would duplicate the impression
    /// log — the ledger's *online* obligation is the commitment, and the
    /// full chains are rematerialized on demand (see
    /// [`receipts_from_impressions`]). Keeps emission off the tick
    /// fold's critical path: no receipt stores, no chain growth.
    ///
    /// Receipt accessors ([`Self::chain`], [`Self::claims_for`],
    /// [`Self::publish`], [`Self::audit`]) panic on a commitment-only
    /// ledger; check [`Self::retains_receipts`] or rebuild first.
    pub fn commitment_only(seed: u64, tick_ms: u64) -> Self {
        Self {
            retain: false,
            ..Self::new(seed, tick_ms)
        }
    }

    /// The seed the ledger's pseudonyms and signatures are keyed by.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The tick width receipts are bucketed by, in simulated
    /// milliseconds.
    pub fn tick_ms(&self) -> u64 {
        self.tick_ms
    }

    /// True if appended receipts are retained (false for a
    /// [`Self::commitment_only`] ledger, which keeps heads and counts
    /// only).
    pub fn retains_receipts(&self) -> bool {
        self.retain
    }

    /// Drops any retained receipts, leaving a commitment-only ledger
    /// with the same heads, counts, and append cursor — how a resume
    /// adopts the chains it rebuilt from a checkpoint's impression log
    /// into a commitment-only emitting run.
    pub fn into_commitment_only(mut self) -> Self {
        self.retain = false;
        for chain in &mut self.chains {
            *chain = Vec::new();
        }
        self
    }

    /// Capacity hint: room for `additional` receipts spread evenly over
    /// the chains, so a tick's appends do not reallocate mid-fold. The
    /// tick fold passes the tick's impression count; a chain drawing
    /// more than its even share falls back to doubling growth.
    pub fn reserve(&mut self, additional: u64) {
        if !self.retain {
            return;
        }
        let per_chain = (additional / u64::from(LEDGER_CHAINS) + 1) as usize;
        for chain in &mut self.chains {
            chain.reserve(per_chain);
        }
    }

    /// Appends the receipt for one delivered impression. Must be called
    /// in canonical fold order — the single-writer tick fold is the only
    /// production caller.
    pub fn append(&mut self, user: UserId, ad: AdId, spec_digest: u64, at: SimTime, price: Money) {
        if at.0 < self.tick_start || at.0 >= self.tick_end {
            self.tick = at.0 / self.tick_ms;
            self.tick_start = self.tick * self.tick_ms;
            self.tick_end = self.tick_start + self.tick_ms;
        }
        let pseudonym = mix64(absorb(self.pseudonym_key, user.raw()));
        let chain = (pseudonym % u64::from(LEDGER_CHAINS)) as usize;
        let mut receipt = DeliveryReceipt {
            seq: self.counts[chain],
            tick: self.tick,
            at,
            pseudonym,
            ad,
            spec_digest,
            price_micros: price.as_micros(),
            sig: 0,
        };
        receipt.sig = DeliveryReceipt::sig_under_key(self.sig_key, &receipt);
        self.heads[chain] = link(self.heads[chain], &receipt);
        self.counts[chain] += 1;
        if self.retain {
            self.chains[chain].push(receipt);
        }
    }

    /// Total receipts across all chains.
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The receipts of one chain, in append order. Panics on a
    /// commitment-only ledger.
    pub fn chain(&self, chain: u32) -> &[DeliveryReceipt] {
        self.require_receipts("chain");
        &self.chains[chain as usize]
    }

    /// The committed chain heads, in chain order — what TRCK
    /// checkpoints carry so a resume cannot rewrite receipt history.
    pub fn heads(&self) -> Vec<LedgerHead> {
        (0..LEDGER_CHAINS)
            .map(|c| LedgerHead {
                chain: c,
                head: self.heads[c as usize],
                count: self.counts[c as usize],
            })
            .collect()
    }

    fn require_receipts(&self, what: &str) {
        assert!(
            self.retain,
            "ReceiptLedger::{what} needs retained receipts, but this is a \
             commitment-only ledger; rebuild one from the impression log \
             with receipts_from_impressions first"
        );
    }

    /// The receipt claims concerning one user, in delivery order — what
    /// the user's browser extension checks its observed feed against.
    /// A user's receipts all live on one chain (chains are bucketed by
    /// pseudonym), so this is a single-chain scan.
    pub fn claims_for(&self, user: UserId) -> Vec<(AdId, SimTime)> {
        self.require_receipts("claims_for");
        let p = pseudonym(self.seed, user);
        let chain = (p % u64::from(LEDGER_CHAINS)) as usize;
        self.chains[chain]
            .iter()
            .filter(|r| r.pseudonym == p)
            .map(|r| (r.ad, r.at))
            .collect()
    }

    /// Publishes the ledger for audit, applying the plan's
    /// [`DishonestFault`]s. Tampering faults republish a *consistent
    /// lie* — the advertised head is recomputed over the tampered chain
    /// (a platform that altered content but advertised the honest head
    /// would be trivially caught by its own head check); only
    /// [`DishonestFault::EquivocateHead`] advertises a head that
    /// mismatches its own published receipts. Faults targeting chains
    /// too short to apply (empty, or under two receipts for a reorder)
    /// are skipped; the returned list holds exactly the tamperings
    /// committed, with resolved indices.
    pub fn publish(&self, plan: &FaultPlan) -> (PublishedLedger, Vec<InjectedEquivocation>) {
        self.require_receipts("publish");
        let mut chains = self.chains.clone();
        let mut equivocate: Vec<u32> = Vec::new();
        let mut applied = Vec::new();
        for fault in &plan.dishonest {
            let chain = (fault.chain() % LEDGER_CHAINS) as usize;
            let len = chains[chain].len() as u64;
            match *fault {
                DishonestFault::DropReceipt { index, .. } if len >= 1 => {
                    let i = index % len;
                    chains[chain].remove(i as usize);
                    applied.push(InjectedEquivocation {
                        chain: chain as u32,
                        kind: fault.kind(),
                        index: i,
                    });
                }
                DishonestFault::ForgeReceipt { .. } if len >= 1 => {
                    // A fabricated delivery the platform charges for:
                    // properly signed (the platform owns the key), so
                    // only the impression-log diff exposes it.
                    let last = chains[chain][len as usize - 1];
                    let mut forged = DeliveryReceipt {
                        seq: len,
                        ad: AdId(last.ad.raw() + 1),
                        price_micros: last.price_micros + 1_000,
                        sig: 0,
                        ..last
                    };
                    forged.sig = DeliveryReceipt::expected_sig(self.seed, &forged);
                    chains[chain].push(forged);
                    applied.push(InjectedEquivocation {
                        chain: chain as u32,
                        kind: fault.kind(),
                        index: len,
                    });
                }
                DishonestFault::RewritePrice { index, .. } if len >= 1 => {
                    let i = index % len;
                    // Edited after signing: price changes, signature
                    // (and every other field) stays.
                    chains[chain][i as usize].price_micros += 7_919;
                    applied.push(InjectedEquivocation {
                        chain: chain as u32,
                        kind: fault.kind(),
                        index: i,
                    });
                }
                DishonestFault::ReorderChain { index, .. } if len >= 2 => {
                    let i = index % (len - 1);
                    chains[chain].swap(i as usize, i as usize + 1);
                    applied.push(InjectedEquivocation {
                        chain: chain as u32,
                        kind: fault.kind(),
                        index: i,
                    });
                }
                DishonestFault::EquivocateHead { .. } if len >= 1 => {
                    equivocate.push(chain as u32);
                    applied.push(InjectedEquivocation {
                        chain: chain as u32,
                        kind: fault.kind(),
                        index: len,
                    });
                }
                _ => {}
            }
        }
        let heads = (0..LEDGER_CHAINS)
            .map(|c| {
                let mut head = chains[c as usize]
                    .iter()
                    .fold(genesis_head(self.seed, c), link);
                if equivocate.contains(&c) {
                    // A second, inconsistent history advertised to
                    // someone else; any nonzero perturbation works.
                    head ^= 0x9E37_79B9_7F4A_7C15;
                }
                LedgerHead {
                    chain: c,
                    head,
                    count: chains[c as usize].len() as u64,
                }
            })
            .collect();
        (PublishedLedger { chains, heads }, applied)
    }

    /// Audits a published ledger against this (recomputed, trusted)
    /// one: every chain is diffed receipt-by-receipt and each
    /// divergence attributed to an exact chain, receipt index, and
    /// tick. With at most one tampering per chain (the shape every
    /// seeded schedule guarantees) attribution is exact — the chaos
    /// proptest's detected-set == injected-set contract.
    pub fn audit(&self, published: &PublishedLedger) -> AuditReport {
        self.require_receipts("audit");
        let mut report = AuditReport {
            chains_checked: LEDGER_CHAINS,
            ..AuditReport::default()
        };
        for c in 0..LEDGER_CHAINS as usize {
            let reference = &self.chains[c];
            let along = published.chains.get(c).map(Vec::as_slice).unwrap_or(&[]);
            report.receipts_checked += reference.len() as u64;
            let advertised = published
                .heads
                .iter()
                .find(|h| h.chain == c as u32)
                .map(|h| h.head);
            if along == reference.as_slice() {
                if advertised != Some(self.heads[c]) {
                    report.findings.push(AuditFinding {
                        chain: c as u32,
                        kind: EquivocationKind::EquivocatedHead,
                        index: reference.len() as u64,
                        tick: reference.last().map_or(0, |r| r.tick),
                    });
                }
                continue;
            }
            let divergence = reference
                .iter()
                .zip(along.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| reference.len().min(along.len()));
            let (kind, tick) = if along.len() + 1 == reference.len() {
                (EquivocationKind::DroppedReceipt, reference[divergence].tick)
            } else if along.len() == reference.len() + 1 {
                (EquivocationKind::ForgedReceipt, along[divergence].tick)
            } else if along.len() == reference.len() {
                let r = &reference[divergence];
                let p = &along[divergence];
                let price_only = DeliveryReceipt {
                    price_micros: r.price_micros,
                    ..*p
                } == *r
                    && reference[divergence + 1..] == along[divergence + 1..];
                let swapped = divergence + 1 < reference.len()
                    && *p == reference[divergence + 1]
                    && along[divergence + 1] == *r
                    && reference[divergence + 2..] == along[divergence + 2..];
                if price_only {
                    (EquivocationKind::RewrittenPrice, r.tick)
                } else if swapped {
                    (EquivocationKind::ReorderedChain, r.tick)
                } else {
                    (EquivocationKind::Tampered, r.tick)
                }
            } else {
                (
                    EquivocationKind::Tampered,
                    reference.get(divergence).map_or(0, |r| r.tick),
                )
            };
            report.findings.push(AuditFinding {
                chain: c as u32,
                kind,
                index: divergence as u64,
                tick,
            });
        }
        report
    }
}

/// Recomputes the full receipt ledger from a checkpoint's impression
/// log — the auditor's (and resume head-check's) trusted reference.
/// Impressions are stored in canonical delivery order, and every field
/// a receipt binds (`at`, user, ad, spec digest, price) is
/// digest-covered checkpoint state, so the recomputation is exact.
pub fn receipts_from_impressions(
    seed: u64,
    tick_ms: u64,
    impressions: &[Impression],
) -> ReceiptLedger {
    let mut ledger = ReceiptLedger::new(seed, tick_ms);
    for imp in impressions {
        ledger.append(imp.user, imp.ad, imp.spec_digest, imp.at, imp.price);
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> ReceiptLedger {
        let mut ledger = ReceiptLedger::new(42, 100);
        // Enough users that every chain gets receipts.
        for i in 0..200u64 {
            ledger.append(
                UserId(i % 50 + 1),
                AdId(i % 7 + 1),
                0xABCD + i % 3,
                SimTime(i * 10),
                Money::micros(2_000 + i as i64),
            );
        }
        ledger
    }

    #[test]
    fn receipts_are_signed_and_chained() {
        let ledger = sample_ledger();
        assert_eq!(ledger.len(), 200);
        assert!(!ledger.is_empty());
        for head in ledger.heads() {
            let receipts = ledger.chain(head.chain);
            assert_eq!(head.count, receipts.len() as u64);
            assert!(receipts.iter().all(|r| r.verify_sig(42)));
            // Seq is the chain position; ticks bucket at.
            for (i, r) in receipts.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
                assert_eq!(r.tick, r.at.0 / 100);
            }
        }
        // A different key rejects every signature.
        assert!(ledger.chain(0).iter().all(|r| !r.verify_sig(43)));
    }

    #[test]
    fn honest_publish_audits_clean() {
        let ledger = sample_ledger();
        let (published, applied) = ledger.publish(&FaultPlan::new());
        assert!(applied.is_empty());
        let report = ledger.audit(&published);
        assert!(report.is_clean(), "honest ledger flagged: {report:?}");
        assert_eq!(report.receipts_checked, 200);
    }

    #[test]
    fn recomputation_from_impressions_matches() {
        use adsim_types::{AccountId, CampaignId};
        let mut ledger = ReceiptLedger::new(7, 50);
        let imps: Vec<Impression> = (0..40u64)
            .map(|i| Impression {
                ad: AdId(i % 3 + 1),
                campaign: CampaignId(1),
                account: AccountId(1),
                user: UserId(i % 9 + 1),
                at: SimTime(i * 25),
                price: Money::micros(1_500),
                spec_digest: 99,
            })
            .collect();
        for imp in &imps {
            ledger.append(imp.user, imp.ad, imp.spec_digest, imp.at, imp.price);
        }
        let recomputed = receipts_from_impressions(7, 50, &imps);
        assert_eq!(ledger, recomputed);
        assert_eq!(ledger.heads(), recomputed.heads());
    }

    #[test]
    fn every_fault_kind_is_detected_with_exact_attribution() {
        let ledger = sample_ledger();
        let plan = FaultPlan::new()
            .drop_receipt(0, 5)
            .forge_receipt(1)
            .rewrite_price(2, 3)
            .reorder_chain(3, 2)
            .equivocate_head(4);
        let (published, applied) = ledger.publish(&plan);
        assert_eq!(applied.len(), 5, "all five faults applied");
        let report = ledger.audit(&published);
        let mut detected = report.detected_set();
        let mut injected: Vec<_> = applied.iter().map(|a| (a.chain, a.kind, a.index)).collect();
        detected.sort();
        injected.sort();
        assert_eq!(detected, injected);
        // Findings carry the tick of the diverging receipt. For a forged
        // receipt (and an equivocated head) the index sits one past the
        // honest chain, so the diverging receipt lives in the published
        // chain only.
        for f in &report.findings {
            match f.kind {
                EquivocationKind::EquivocatedHead => {
                    assert_eq!(f.index, ledger.chain(f.chain).len() as u64);
                }
                EquivocationKind::ForgedReceipt => {
                    assert_eq!(f.index, ledger.chain(f.chain).len() as u64);
                    assert_eq!(
                        f.tick,
                        published.chains[f.chain as usize][f.index as usize].tick
                    );
                }
                _ => assert_eq!(f.tick, ledger.chain(f.chain)[f.index as usize].tick),
            }
        }
    }

    #[test]
    fn faults_on_empty_chains_are_skipped() {
        let ledger = ReceiptLedger::new(1, 10);
        let plan = FaultPlan::new().drop_receipt(0, 0).forge_receipt(1);
        let (published, applied) = ledger.publish(&plan);
        assert!(applied.is_empty());
        assert!(ledger.audit(&published).is_clean());
    }

    #[test]
    fn claims_concern_exactly_the_users_deliveries() {
        let mut ledger = ReceiptLedger::new(11, 10);
        ledger.append(UserId(1), AdId(5), 7, SimTime(3), Money::micros(100));
        ledger.append(UserId(2), AdId(6), 7, SimTime(4), Money::micros(100));
        ledger.append(UserId(1), AdId(5), 7, SimTime(9), Money::micros(100));
        assert_eq!(
            ledger.claims_for(UserId(1)),
            vec![(AdId(5), SimTime(3)), (AdId(5), SimTime(9))]
        );
        assert_eq!(ledger.claims_for(UserId(2)), vec![(AdId(6), SimTime(4))]);
        assert!(ledger.claims_for(UserId(3)).is_empty());
    }

    #[test]
    fn pseudonyms_are_keyed_and_stable() {
        assert_eq!(pseudonym(1, UserId(9)), pseudonym(1, UserId(9)));
        assert_ne!(pseudonym(1, UserId(9)), pseudonym(2, UserId(9)));
        assert_ne!(pseudonym(1, UserId(9)), pseudonym(1, UserId(10)));
    }
}
