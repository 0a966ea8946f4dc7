//! Incremental (delta) checkpoint frames — introduced in TRCK v3 — and,
//! since v5, the one TRCK body for both frame kinds.
//!
//! A [`DeltaFrame`] encodes only the slots that changed since the
//! previous frame:
//!
//! * **append-only journals** (impression log, pixel log, interner symbol
//!   table, per-user extension logs) are carried as a base length plus
//!   the new suffix — the fold rejects a frame whose base length does
//!   not match the state it is applied to;
//! * **keyed maps** (billing spend, frequency caps, audience memberships,
//!   per-user facets, per-user shard cursors) are carried as upserts of
//!   the dirty keys, strictly increasing by key. The [`DeltaTracker`]
//!   works the keys out at frame time: billing and frequency keys from
//!   the impression-log suffix (every impression names the exact
//!   account/campaign/ad/frequency slots it touched), audience and facet
//!   keys by diffing the [`adplatform`] stores against the values it
//!   kept at the last frame, and cursor keys from the shards' dirty
//!   flags, so the hot path pays nothing;
//! * **scalars** (clock, run counters, fault accounting, billing totals,
//!   receipt-ledger heads) are tiny and carried whole.
//!
//! **One layout per type.** The body's field order is the one
//! `layout!` declaration on [`DeltaFrame`]; every type inside it declares
//! its own layout once in [`crate::codec`]. The same declaration writes
//! the frame, reads it back through the strict reader, and feeds the
//! state digest: a slot's digest term hashes its section tag, its key
//! words, then its value's layout.
//!
//! Every frame ends with a **state digest**: a set-homomorphic XOR-fold
//! over per-slot hashes of the *entire* post-frame state, maintained
//! incrementally by the [`DeltaTracker`] as slots change. Applying a
//! frame recomputes the digest from the resulting state and rejects it
//! on any mismatch ([`DecodeError::Invalid`]`("state digest mismatch")`):
//! a frame whose content disagrees with what the tracker hashed (a
//! corrupted slot, an upsert carrying a stale value) fails. The digest
//! does **not** catch a dirty key the tracker never saw: its rolling
//! digest covers only the slots it visited, so the fold and the tracker
//! agree on a frame that lacks the mutation. Missed keys are caught by
//! the fold-prefix ≡ full-snapshot and resume ≡ uninterrupted oracles
//! (`tests/resilience_chaos.rs`).
//!
//! **A full frame is the delta from the empty state.** An
//! [`EngineCheckpoint`] is encoded as the frame that takes the empty
//! state to it: every keyed slot an upsert, every journal appended at
//! base 0, every audience and extension log listed (empty ones too), and
//! the checkpoint's digest. Decoding one applies that frame to an empty
//! checkpoint with the same `apply` that [`fold_frames`] runs for deltas,
//! so one encoder, one decoder, and one reconstruction path cover both
//! kinds, and base frames get the digest check too. Only a base frame may
//! create shards, cursor positions (`0..n`, in order), audiences, and
//! extension logs; a delta naming one the state lacks fails.
//!
//! Chain discipline: a chain starts at a full frame; each delta names its
//! parent by tick count ([`DeltaFrame::parent_ticks`]) and echoes the run
//! configuration, so frames cannot be applied out of order or across
//! runs. Folding `base + d₁ + … + dₙ` yields an [`EngineCheckpoint`]
//! byte-identical to the full checkpoint the engine would have taken at
//! frame `n`.
//!
//! Frames round-trip canonically:
//!
//! ```
//! use treads_resilience::delta::{CheckpointFrame, DeltaFrame};
//!
//! let mut delta = DeltaFrame::default();
//! delta.parent_ticks = 4;
//! delta.report.ticks = 5;
//! delta.clock_now = 5_000;
//!
//! let frame = CheckpointFrame::Delta(delta);
//! let bytes = frame.to_bytes();
//! assert_eq!(&bytes[4..8], b"TRCK"); // length-prefixed magic

//! let decoded = CheckpointFrame::from_bytes(&bytes).unwrap();
//! assert_eq!(decoded, frame);
//! // One valid encoding: re-encoding is byte-identical.
//! assert_eq!(decoded.to_bytes(), bytes);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use adplatform::pixel::PixelEvent;
use adplatform::profile::ProfileFacets;
use adplatform::reporting::Impression;
use adplatform::Platform;
use adsim_types::hash::mix64;
use adsim_types::{AccountId, AdId, AudienceId, CampaignId, Money, SimTime, UserId};
use websim::extension::ObservedAd;

use crate::checkpoint::{
    ConfigEcho, EngineCheckpoint, ExtensionSnapshot, ReportCounters, ShardCheckpoint, UserCursor,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FRAME_DELTA, FRAME_FULL,
};
use crate::codec::{layout, DecodeError, Reader, Sink, Wire, Writer};
use crate::fault::FaultReport;
use crate::ledger::LedgerHead;

// ---------------------------------------------------------------------------
// Slot hashing
// ---------------------------------------------------------------------------

/// The slot hasher: a [`Sink`] that absorbs each word a layout writes,
/// widened to `u64`, with byte strings folded 8 bytes at a time. Two slots
/// hash independently, so the digest is order-free (a set fold). Built on
/// [`mix64`]: the digest detects *bookkeeping bugs*, not adversaries —
/// checkpoints are trusted local files.
struct Slot(u64);

impl Sink for Slot {
    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }
    fn u64(&mut self, v: u64) {
        self.0 = mix64(self.0.rotate_left(7) ^ v);
    }
    fn flag(&mut self, v: bool) {
        self.u64(u64::from(v));
    }
    fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        for chunk in b.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }
}

// Section tags: each state section hashes under its own tag so equal
// key/value bytes in different sections cannot cancel.
const TAG_ACCT: u64 = 1;
const TAG_CAMP: u64 = 2;
const TAG_AD: u64 = 3;
const TAG_LINK: u64 = 4;
const TAG_FREQ: u64 = 5;
const TAG_IMP: u64 = 6;
const TAG_PIX: u64 = 7;
const TAG_AUD: u64 = 8;
const TAG_SYM: u64 = 9;
const TAG_FACET: u64 = 10;
const TAG_CUR: u64 = 11;
const TAG_SFREQ: u64 = 12;
const TAG_EXT: u64 = 13;

/// The digest term of one state slot: its section tag, its key words,
/// then its value's layout.
fn slot<K: Wire, V: Wire>(tag: u64, key: &K, value: &V) -> u64 {
    let mut s = Slot(mix64(tag ^ 0x9e37_79b9_7f4a_7c15));
    key.put(&mut s);
    value.put(&mut s);
    mix64(s.0)
}

/// The digest terms of a keyed map, one slot per `(key, value)` entry.
fn keyed<K: Wire, V: Wire>(tag: u64, entries: &[(K, V)]) -> u64 {
    entries.iter().fold(0, |d, (k, v)| d ^ slot(tag, k, v))
}

/// The digest terms of a journal's entries from position `from` on, each
/// keyed by its position.
fn journal<T: Wire>(tag: u64, entries: &[T], from: usize) -> u64 {
    (from as u64..)
        .zip(&entries[from..])
        .fold(0, |d, (i, e)| d ^ slot(tag, &i, e))
}

/// The set-homomorphic digest of a full checkpoint's mutable state.
///
/// Covers exactly the sections a [`DeltaFrame`] carries incrementally
/// (keyed maps and append-only journals); scalars carried whole by every
/// frame are excluded. [`DeltaTracker`] maintains the same quantity
/// incrementally, and decoding a base frame or folding a delta
/// recomputes it after applying the frame.
pub fn state_digest(cp: &EngineCheckpoint) -> u64 {
    let p = &cp.platform;
    let b = &p.billing;
    let mut d = keyed(TAG_ACCT, &b.account_spend)
        ^ keyed(TAG_CAMP, &b.campaign_spend)
        ^ keyed(TAG_AD, &b.ad_spend)
        ^ keyed(TAG_LINK, &b.campaign_account)
        ^ keyed(TAG_FREQ, &p.freq)
        ^ journal(TAG_IMP, &p.impressions, 0)
        ^ journal(TAG_PIX, &p.pixel_events, 0)
        ^ journal(TAG_SYM, &p.facets.symbols, 0)
        ^ keyed(TAG_FACET, &p.facets.users);
    for (aud, members) in &p.audience_members {
        for m in members {
            d ^= slot(TAG_AUD, aud, m);
        }
    }
    for shard in &cp.shards {
        for (pos, c) in (0u32..).zip(&shard.users) {
            d ^= slot(TAG_CUR, &(shard.index, pos), c);
        }
        for (key, count) in &shard.freq {
            d ^= slot(TAG_SFREQ, &(shard.index, *key), count);
        }
        for e in &shard.extensions {
            for (i, o) in (0u64..).zip(&e.observations) {
                d ^= slot(TAG_EXT, &(shard.index, e.user, i), o);
            }
        }
    }
    d
}

// ---------------------------------------------------------------------------
// Frame types
// ---------------------------------------------------------------------------

/// One shard's contribution to a delta frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardDelta {
    /// Shard index (must match the base frame's shard at this position).
    pub index: u64,
    /// Dirty user cursors, addressed by position in the shard's
    /// deterministic user order.
    pub users: Vec<(u32, UserCursor)>,
    /// Shard-local frequency-cap upserts, sorted by `(ad, user)`.
    pub freq: Vec<((AdId, UserId), u32)>,
    /// Extension-log growth: `(user, base length, appended suffix)`.
    pub ext: Vec<(UserId, u64, Vec<ObservedAd>)>,
}

layout!(ShardDelta {
    index,
    users,
    freq,
    ext,
});

/// What the engine knows about the run at frame-take time (scalars every
/// frame carries whole).
#[derive(Debug, Clone, Default)]
pub struct DeltaHead {
    /// Configuration echo (must match the chain's base frame).
    pub config: ConfigEcho,
    /// The simulated ms the next tick starts at.
    pub next_tick_start: u64,
    /// Run counters at the frame instant.
    pub report: ReportCounters,
    /// Campaigns already journaled as budget-exhausted.
    pub exhausted: Vec<CampaignId>,
    /// Supervisor fault accounting so far.
    pub faults: FaultReport,
    /// Receipt-ledger chain heads at the frame instant (empty when the
    /// ledger is disabled; tiny — at most [`crate::ledger::LEDGER_CHAINS`]
    /// entries — so carried whole like the other scalars).
    pub ledger: Vec<LedgerHead>,
}

/// An incremental checkpoint frame: the state mutated since the previous
/// frame, plus the post-frame [`state_digest`]. Its fields are the TRCK
/// body, in wire order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaFrame {
    /// Configuration echo for resume validation.
    pub config: ConfigEcho,
    /// `report.ticks` of the frame this delta applies on top of — the
    /// chain-order check.
    pub parent_ticks: u64,
    /// The simulated ms the next tick starts at.
    pub next_tick_start: u64,
    /// Run counters (carried whole).
    pub report: ReportCounters,
    /// Budget-exhausted journal (carried whole; tiny).
    pub exhausted: Vec<CampaignId>,
    /// Fault accounting (carried whole; tiny).
    pub faults: FaultReport,
    /// Platform clock at the frame instant.
    pub clock_now: u64,
    /// Delivery totals (carried whole).
    pub stats: adplatform::delivery::DeliveryStats,
    /// Billing scalars (carried whole).
    pub small_spend_waiver_micros: i64,
    /// Lifetime impressions charged.
    pub impressions_charged: u64,
    /// Lifetime charged micros.
    pub charged_micros: i64,
    /// Account-spend upserts (micros), sorted by account.
    pub billing_accounts: Vec<(AccountId, i64)>,
    /// Campaign-spend upserts (micros), sorted by campaign.
    pub billing_campaigns: Vec<(CampaignId, i64)>,
    /// Ad-spend upserts (micros), sorted by ad.
    pub billing_ads: Vec<(AdId, i64)>,
    /// Newly recorded campaign→account billing links.
    pub billing_links: Vec<(CampaignId, AccountId)>,
    /// Global frequency-cap upserts, sorted by `(ad, user)`.
    pub freq: Vec<((AdId, UserId), u32)>,
    /// Impression-log length the suffix appends after.
    pub impressions_base: u64,
    /// Impressions appended since the previous frame.
    pub impressions_suffix: Vec<Impression>,
    /// Pixel-log length the suffix appends after.
    pub pixel_base: u64,
    /// Pixel events appended since the previous frame.
    pub pixel_suffix: Vec<PixelEvent>,
    /// Audience memberships gained, grouped by audience, both sorted.
    pub audience_adds: Vec<(AudienceId, Vec<UserId>)>,
    /// The facet-update counter (carried whole).
    pub facet_updates: u64,
    /// Interner length the symbol suffix appends after.
    pub symbols_base: u64,
    /// Symbols interned since the previous frame, in intern order.
    pub symbols_suffix: Vec<String>,
    /// Full facets of every user whose facets changed, sorted by user.
    pub facets: Vec<(UserId, ProfileFacets)>,
    /// Per-shard deltas, in shard-index order.
    pub shards: Vec<ShardDelta>,
    /// Receipt-ledger chain heads (carried whole; tiny). Excluded from
    /// [`state_digest`] like every scalar carried whole by every frame.
    pub ledger: Vec<LedgerHead>,
    /// [`state_digest`] of the state this frame folds up to.
    pub digest: u64,
}

layout!(DeltaFrame {
    config,
    parent_ticks,
    next_tick_start,
    report,
    exhausted,
    faults,
    clock_now,
    stats,
    small_spend_waiver_micros,
    impressions_charged,
    charged_micros,
    billing_accounts,
    billing_campaigns,
    billing_ads,
    billing_links,
    freq,
    impressions_base,
    impressions_suffix,
    pixel_base,
    pixel_suffix,
    audience_adds,
    facet_updates,
    symbols_base,
    symbols_suffix,
    facets,
    shards,
    ledger,
    digest,
});

impl DeltaFrame {
    /// The decoder's one cross-field check: every facet symbol must fall
    /// inside the table this frame folds up to, the base length plus this
    /// frame's suffix.
    fn check_facet_symbols(&self) -> Result<(), DecodeError> {
        let bound = self
            .symbols_base
            .checked_add(self.symbols_suffix.len() as u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or(DecodeError::Invalid("symbol table too large"))?;
        let inside = |f: &ProfileFacets| {
            f.state() < bound
                && f.zip() < bound
                && f.visited_zip_symbols().iter().all(|&z| z < bound)
        };
        if self.facets.iter().all(|(_, f)| inside(f)) {
            Ok(())
        } else {
            Err(DecodeError::Invalid("facet symbol out of range"))
        }
    }
}

/// A TRCK frame: either a full checkpoint or a delta against the
/// previous frame.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointFrame {
    /// A self-contained full checkpoint (a chain base).
    Full(EngineCheckpoint),
    /// An incremental frame; meaningless without its chain prefix.
    Delta(DeltaFrame),
}

impl CheckpointFrame {
    /// `report.ticks` recorded in the frame (frames are tick-stamped).
    pub fn ticks(&self) -> u64 {
        match self {
            CheckpointFrame::Full(cp) => cp.report.ticks,
            CheckpointFrame::Delta(d) => d.report.ticks,
        }
    }

    /// Serializes to the versioned TRCK binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            CheckpointFrame::Full(cp) => cp.to_bytes(),
            CheckpointFrame::Delta(d) => encode_frame(FRAME_DELTA, d),
        }
    }

    /// Deserializes either frame kind, rejecting bad magic, unknown
    /// versions, unknown frame kinds, truncation, trailing bytes, and
    /// facet symbols outside the frame's symbol table. A full frame is
    /// then rebuilt by applying its body to the empty state, so every
    /// check the fold makes, digest included, applies.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.get_bytes()? != CHECKPOINT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let kind = r.get_u8()?;
        if kind != FRAME_FULL && kind != FRAME_DELTA {
            return Err(DecodeError::Invalid("frame kind byte"));
        }
        let body = DeltaFrame::get(&mut r)?;
        body.check_facet_symbols()?;
        r.finish()?;
        if kind == FRAME_DELTA {
            return Ok(CheckpointFrame::Delta(body));
        }
        let mut cp = EngineCheckpoint::default();
        apply(&mut cp, body, true)?;
        Ok(CheckpointFrame::Full(cp))
    }
}

// ---------------------------------------------------------------------------
// The frame codec
// ---------------------------------------------------------------------------

/// The frame that takes the empty state to `cp`: every keyed slot an
/// upsert, every journal appended at base 0, every audience and
/// extension log listed (empty ones too), and `cp`'s [`state_digest`].
pub(crate) fn genesis(cp: &EngineCheckpoint) -> DeltaFrame {
    let p = &cp.platform;
    let b = &p.billing;
    DeltaFrame {
        config: cp.config.clone(),
        parent_ticks: 0,
        next_tick_start: cp.next_tick_start,
        report: cp.report,
        exhausted: cp.exhausted.clone(),
        faults: cp.faults.clone(),
        clock_now: p.clock_now.0,
        stats: p.stats,
        small_spend_waiver_micros: b.small_spend_waiver.as_micros(),
        impressions_charged: b.impressions_charged,
        charged_micros: b.charged_micros,
        billing_accounts: micros(&b.account_spend),
        billing_campaigns: micros(&b.campaign_spend),
        billing_ads: micros(&b.ad_spend),
        billing_links: b.campaign_account.clone(),
        freq: p.freq.clone(),
        impressions_base: 0,
        impressions_suffix: p.impressions.clone(),
        pixel_base: 0,
        pixel_suffix: p.pixel_events.clone(),
        audience_adds: p.audience_members.clone(),
        facet_updates: p.facets.facet_updates,
        symbols_base: 0,
        symbols_suffix: p.facets.symbols.clone(),
        facets: p.facets.users.clone(),
        shards: cp
            .shards
            .iter()
            .map(|s| ShardDelta {
                index: s.index,
                users: (0u32..).zip(s.users.iter().cloned()).collect(),
                freq: s.freq.clone(),
                ext: s
                    .extensions
                    .iter()
                    .map(|e| (e.user, 0, e.observations.clone()))
                    .collect(),
            })
            .collect(),
        ledger: cp.ledger.clone(),
        digest: state_digest(cp),
    }
}

/// Frames `body` as a TRCK frame of `kind`.
pub(crate) fn encode_frame(kind: u8, body: &DeltaFrame) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&CHECKPOINT_MAGIC);
    w.put_u32(CHECKPOINT_VERSION);
    w.put_u8(kind);
    body.put(&mut w);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Folding
// ---------------------------------------------------------------------------

/// Fails unless `entries` are strictly increasing by `key`.
fn check_increasing<T, K: Ord>(entries: &[T], key: impl Fn(&T) -> K) -> Result<(), DecodeError> {
    if entries.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
        return Err(DecodeError::Invalid("upserts not strictly increasing"));
    }
    Ok(())
}

/// Merges `upserts`, strictly increasing by `key`, into the key-sorted
/// `map` in one linear pass. An upsert replaces the entry with an equal
/// key, unless `equal_key_error` names the error an equal key is.
fn merge_upserts<T, K: Ord>(
    map: &mut Vec<T>,
    upserts: Vec<T>,
    key: impl Fn(&T) -> K,
    equal_key_error: Option<&'static str>,
) -> Result<(), DecodeError> {
    check_increasing(&upserts, &key)?;
    if map.is_empty() {
        *map = upserts;
        return Ok(());
    }
    let mut merged = Vec::with_capacity(map.len() + upserts.len());
    let mut old = std::mem::take(map).into_iter().peekable();
    for entry in upserts {
        let k = key(&entry);
        while let Some(kept) = old.next_if(|e| key(e) < k) {
            merged.push(kept);
        }
        if old.next_if(|e| key(e) == k).is_some() {
            if let Some(what) = equal_key_error {
                return Err(DecodeError::Invalid(what));
            }
        }
        merged.push(entry);
    }
    merged.extend(old);
    *map = merged;
    Ok(())
}

/// [`merge_upserts`] for a map of `(key, value)` pairs: an upsert
/// replaces the value at an equal key.
fn upsert<K: Ord + Copy, V>(
    map: &mut Vec<(K, V)>,
    upserts: Vec<(K, V)>,
) -> Result<(), DecodeError> {
    merge_upserts(map, upserts, |e| e.0, None)
}

/// Billing spend as frames carry it, in micros.
fn micros<K: Copy>(spend: &[(K, Money)]) -> Vec<(K, i64)> {
    spend.iter().map(|(k, m)| (*k, m.as_micros())).collect()
}

/// Spend upserts carried in micros, as the billing ledger's [`Money`].
fn money<K>(upserts: Vec<(K, i64)>) -> Vec<(K, Money)> {
    upserts
        .into_iter()
        .map(|(k, m)| (k, Money::micros(m)))
        .collect()
}

/// Appends a journal suffix that must start at exactly `log`'s length.
fn append<T>(
    log: &mut Vec<T>,
    base: u64,
    suffix: Vec<T>,
    mismatch: &'static str,
) -> Result<(), DecodeError> {
    if base != log.len() as u64 {
        return Err(DecodeError::Invalid(mismatch));
    }
    log.extend(suffix);
    Ok(())
}

/// Applies one frame body to `cur` and verifies the post-frame
/// [`state_digest`]. A `base` frame applies to the empty state and may
/// create shards, cursors, audiences, and extension logs; a delta applies
/// to the state its parent frame folded up to, must echo its config, and
/// may only update what exists.
fn apply(cur: &mut EngineCheckpoint, d: DeltaFrame, base: bool) -> Result<(), DecodeError> {
    if base {
        cur.config = d.config;
    } else if d.config != cur.config {
        return Err(DecodeError::Invalid("delta config mismatch"));
    }
    if d.parent_ticks != cur.report.ticks {
        return Err(DecodeError::Invalid("delta parent tick mismatch"));
    }
    cur.next_tick_start = d.next_tick_start;
    cur.report = d.report;
    cur.exhausted = d.exhausted;
    cur.faults = d.faults;
    cur.ledger = d.ledger;

    let p = &mut cur.platform;
    p.clock_now = SimTime(d.clock_now);
    p.stats = d.stats;
    let b = &mut p.billing;
    b.small_spend_waiver = Money::micros(d.small_spend_waiver_micros);
    b.impressions_charged = d.impressions_charged;
    b.charged_micros = d.charged_micros;
    upsert(&mut b.account_spend, money(d.billing_accounts))?;
    upsert(&mut b.campaign_spend, money(d.billing_campaigns))?;
    upsert(&mut b.ad_spend, money(d.billing_ads))?;
    upsert(&mut b.campaign_account, d.billing_links)?;
    upsert(&mut p.freq, d.freq)?;

    append(
        &mut p.impressions,
        d.impressions_base,
        d.impressions_suffix,
        "impression log base mismatch",
    )?;
    append(
        &mut p.pixel_events,
        d.pixel_base,
        d.pixel_suffix,
        "pixel log base mismatch",
    )?;

    check_increasing(&d.audience_adds, |(aud, _)| *aud)?;
    for (aud, adds) in d.audience_adds {
        let members = if base {
            p.audience_members.push((aud, Vec::new()));
            &mut p.audience_members.last_mut().expect("just pushed").1
        } else {
            match p.audience_members.binary_search_by_key(&aud, |(a, _)| *a) {
                Ok(i) => &mut p.audience_members[i].1,
                Err(_) => return Err(DecodeError::Invalid("audience add for unknown audience")),
            }
        };
        merge_upserts(members, adds, |u| *u, Some("duplicate audience member add"))?;
    }

    p.facets.facet_updates = d.facet_updates;
    let symbols = &mut p.facets.symbols;
    if !d.symbols_suffix.is_empty() {
        let mut seen: BTreeSet<&str> = symbols.iter().map(String::as_str).collect();
        if !d.symbols_suffix.iter().all(|s| seen.insert(s)) {
            return Err(DecodeError::Invalid("duplicate symbol-table entry"));
        }
    }
    append(
        symbols,
        d.symbols_base,
        d.symbols_suffix,
        "symbol table base mismatch",
    )?;
    upsert(&mut p.facets.users, d.facets)?;

    check_increasing(&d.shards, |s| s.index)?;
    for sd in d.shards {
        let shard = if base {
            cur.shards.push(ShardCheckpoint {
                index: sd.index,
                ..ShardCheckpoint::default()
            });
            cur.shards.last_mut().expect("just pushed")
        } else {
            cur.shards
                .iter_mut()
                .find(|s| s.index == sd.index)
                .ok_or(DecodeError::Invalid("shard delta for unknown shard"))?
        };
        check_increasing(&sd.users, |(pos, _)| *pos)?;
        for (pos, c) in sd.users {
            // A base frame lists every cursor, at positions 0..n in order.
            if base && pos as usize == shard.users.len() {
                shard.users.push(c);
                continue;
            }
            let slot = shard
                .users
                .get_mut(pos as usize)
                .ok_or(DecodeError::Invalid("cursor position out of range"))?;
            if slot.user != c.user {
                return Err(DecodeError::Invalid("cursor user mismatch"));
            }
            *slot = c;
        }
        upsert(&mut shard.freq, sd.freq)?;
        check_increasing(&sd.ext, |(user, _, _)| *user)?;
        for (user, log_base, suffix) in sd.ext {
            let log = if base {
                shard.extensions.push(ExtensionSnapshot {
                    user,
                    observations: Vec::new(),
                });
                shard.extensions.last_mut().expect("just pushed")
            } else {
                shard
                    .extensions
                    .iter_mut()
                    .find(|e| e.user == user)
                    .ok_or(DecodeError::Invalid("extension delta for unknown user"))?
            };
            append(
                &mut log.observations,
                log_base,
                suffix,
                "extension log base mismatch",
            )?;
        }
    }

    if state_digest(cur) != d.digest {
        return Err(DecodeError::Invalid("state digest mismatch"));
    }
    Ok(())
}

/// Folds a frame chain (one full base frame followed by zero or more
/// deltas) back into the full [`EngineCheckpoint`] the last frame
/// represents.
///
/// Strict by construction: the chain must start with a full frame, every
/// delta must name its parent's tick count and echo the base
/// configuration, keyed upserts must be strictly increasing, journal
/// suffixes must append at exactly the length the folded state has
/// reached, and after each application (the same one that decodes a
/// base frame) the folded state's [`state_digest`] must equal the digest
/// the frame recorded, so a frame whose content disagrees with what the
/// tracker hashed fails here. A dirty key the tracker never saw is not
/// caught here (see the [module docs](self)).
pub fn fold_frames(frames: &[CheckpointFrame]) -> Result<EngineCheckpoint, DecodeError> {
    let mut iter = frames.iter();
    let mut cur = match iter.next() {
        Some(CheckpointFrame::Full(cp)) => cp.clone(),
        Some(CheckpointFrame::Delta(_)) => {
            return Err(DecodeError::Invalid(
                "frame chain must start with a full frame",
            ))
        }
        None => return Err(DecodeError::Invalid("empty frame chain")),
    };
    for frame in iter {
        match frame {
            // A later full frame restarts the chain: everything before it
            // is superseded.
            CheckpointFrame::Full(cp) => cur = cp.clone(),
            CheckpointFrame::Delta(d) => apply(&mut cur, d.clone(), false)?,
        }
    }
    Ok(cur)
}

// ---------------------------------------------------------------------------
// The tracker
// ---------------------------------------------------------------------------

/// Incremental dirty-slot bookkeeping for delta checkpoints.
///
/// The engine owns one tracker per run. [`DeltaTracker::rebase`] aligns it
/// with a freshly taken full frame (rebuilding last-value maps, journal
/// high-water marks, and the rolling digest in one O(state) pass —
/// amortized over the base-frame cadence); between base frames,
/// [`DeltaTracker::take_delta`] emits a [`DeltaFrame`] and works out the
/// dirty keys itself, so the platform stores keep no delta bookkeeping:
///
/// * billing and global frequency dirty keys are **derived from the
///   impression-log suffix** (each impression names the exact slots its
///   application touched), so the delivery hot path carries no extra
///   bookkeeping at all;
/// * audience and facet dirty keys come from **diffing the stores**
///   against the last frame: an audience whose size moved lists the
///   members the tracker has not seen, and once the profile store's
///   facet-update counter moves, every user whose facet hash changed is
///   emitted. Nothing in an engine tick changes facets, so a run never
///   pays for the facet scan;
/// * shard cursors, shard frequency upserts, and extension-log suffixes
///   are handed in by the engine (which owns the shards) as
///   [`ShardDeltaSource`]s.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    ticks: u64,
    acct: BTreeMap<AccountId, i64>,
    camp: BTreeMap<CampaignId, i64>,
    ad: BTreeMap<AdId, i64>,
    links: BTreeSet<CampaignId>,
    freq: BTreeMap<(AdId, UserId), u32>,
    // Members of every audience at the last frame.
    audiences: BTreeMap<AudienceId, BTreeSet<UserId>>,
    // The profile store's facet-update counter and every user's facet
    // digest term at the last frame.
    facet_updates: u64,
    facets: BTreeMap<UserId, u64>,
    impressions_mark: usize,
    pixel_mark: usize,
    symbols_mark: usize,
    // Dense per-position cursor-slot hashes (every position exists
    // after rebase), so per-frame updates are O(1) array stores.
    shard_cursors: Vec<Vec<u64>>,
    shard_freq: Vec<BTreeMap<(AdId, UserId), u32>>,
    // Appended raw in the engine's merge loop (hot path), sorted and
    // deduplicated only when a delta frame drains them.
    shard_freq_dirty: Vec<Vec<(AdId, UserId)>>,
    shard_ext_marks: Vec<BTreeMap<UserId, usize>>,
    digest: u64,
}

/// One shard's raw delta inputs, collected by the engine (which owns the
/// shard state) for [`DeltaTracker::take_delta`].
#[derive(Debug, Clone, Default)]
pub struct ShardDeltaSource {
    /// Shard index.
    pub index: u64,
    /// Dirty `(position, cursor)` pairs (the shard's drained dirty flags).
    pub cursors: Vec<(u32, UserCursor)>,
    /// Current values of the shard-frequency keys the tracker noted dirty.
    pub freq: Vec<((AdId, UserId), u32)>,
    /// Extension-log suffixes past the tracker's marks: `(user, appended)`.
    pub ext: Vec<(UserId, Vec<ObservedAd>)>,
}

/// Moves a tracked slot to `cur`, XORing its old digest term out of
/// `digest` and its new one in; false when the value did not change.
fn update<K: Ord, V: Copy + PartialEq>(
    digest: &mut u64,
    map: &mut BTreeMap<K, V>,
    key: K,
    cur: V,
    term: impl Fn(&V) -> u64,
) -> bool {
    match map.insert(key, cur) {
        Some(old) if old == cur => false,
        old => {
            if let Some(old) = old {
                *digest ^= term(&old);
            }
            *digest ^= term(&cur);
            true
        }
    }
}

impl DeltaTracker {
    /// A tracker for `shards` shards, aligned with the empty state (call
    /// [`Self::rebase`] with the first full frame before taking deltas).
    pub fn new(shards: usize) -> Self {
        Self {
            shard_cursors: vec![Vec::new(); shards],
            shard_freq: vec![BTreeMap::new(); shards],
            shard_freq_dirty: vec![Vec::new(); shards],
            shard_ext_marks: vec![BTreeMap::new(); shards],
            ..Self::default()
        }
    }

    /// Aligns the tracker with a freshly taken full frame: last-value
    /// maps, journal marks, and the rolling digest are rebuilt from `cp`
    /// alone (the platform is not read). O(state), paid once per base
    /// frame.
    pub fn rebase(&mut self, cp: &EngineCheckpoint, _platform: &Platform) {
        self.ticks = cp.report.ticks;
        let p = &cp.platform;
        let b = &p.billing;
        self.acct = micros(&b.account_spend).into_iter().collect();
        self.camp = micros(&b.campaign_spend).into_iter().collect();
        self.ad = micros(&b.ad_spend).into_iter().collect();
        self.links = b.campaign_account.iter().map(|(c, _)| *c).collect();
        self.freq = p.freq.iter().copied().collect();
        self.audiences = p
            .audience_members
            .iter()
            .map(|(aud, members)| (*aud, members.iter().copied().collect()))
            .collect();
        self.facet_updates = p.facets.facet_updates;
        self.facets = p
            .facets
            .users
            .iter()
            .map(|(u, f)| (*u, slot(TAG_FACET, u, f)))
            .collect();
        self.impressions_mark = p.impressions.len();
        self.pixel_mark = p.pixel_events.len();
        self.symbols_mark = p.facets.symbols.len();
        let shards = cp.shards.len();
        self.shard_cursors = vec![Vec::new(); shards];
        self.shard_freq = vec![BTreeMap::new(); shards];
        self.shard_freq_dirty = vec![Vec::new(); shards];
        self.shard_ext_marks = vec![BTreeMap::new(); shards];
        for (s, shard) in cp.shards.iter().enumerate() {
            self.shard_cursors[s] = (0u32..)
                .zip(&shard.users)
                .map(|(pos, c)| slot(TAG_CUR, &(shard.index, pos), c))
                .collect();
            self.shard_freq[s] = shard.freq.iter().copied().collect();
            for e in &shard.extensions {
                self.shard_ext_marks[s].insert(e.user, e.observations.len());
            }
        }
        self.digest = state_digest(cp);
    }

    /// Notes a shard-local frequency-cap key as mutated (the engine calls
    /// this for every merged impression, keyed by producing shard).
    pub fn note_shard_freq(&mut self, shard: usize, key: (AdId, UserId)) {
        self.shard_freq_dirty[shard].push(key);
    }

    /// Drains the shard-frequency keys noted since the last drain; the
    /// engine resolves their current values into a [`ShardDeltaSource`].
    pub fn drain_shard_freq_dirty(&mut self, shard: usize) -> Vec<(AdId, UserId)> {
        let mut keys = std::mem::take(&mut self.shard_freq_dirty[shard]);
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The observation count of `user`'s extension log already covered by
    /// frames; the engine clones everything past it into the source.
    pub fn shard_ext_mark(&self, shard: usize, user: UserId) -> usize {
        self.shard_ext_marks[shard].get(&user).copied().unwrap_or(0)
    }

    /// Emits the delta frame covering everything since the previous frame.
    ///
    /// `platform` is the live platform *after* the tick's fold; `head`
    /// carries the engine-owned scalars; `shards` the per-shard inputs, in
    /// shard-index order. Cost is proportional to the mutation volume.
    pub fn take_delta(
        &mut self,
        head: DeltaHead,
        platform: &Platform,
        shards: Vec<ShardDeltaSource>,
    ) -> DeltaFrame {
        // Derive billing/frequency dirty keys from the impression-log
        // suffix: each impression names every keyed slot its application
        // touched.
        let imps = platform.log.all();
        let mut acct_keys = BTreeSet::new();
        let mut camp_keys = BTreeSet::new();
        let mut ad_keys = BTreeSet::new();
        let mut freq_keys = Vec::new();
        for (i, imp) in (self.impressions_mark as u64..).zip(&imps[self.impressions_mark..]) {
            self.digest ^= slot(TAG_IMP, &i, imp);
            acct_keys.insert(imp.account);
            camp_keys.insert(imp.campaign);
            ad_keys.insert(imp.ad);
            freq_keys.push((imp.ad, imp.user));
        }
        freq_keys.sort_unstable();
        freq_keys.dedup();
        let impressions_base = self.impressions_mark as u64;
        let impressions_suffix = imps[self.impressions_mark..].to_vec();
        self.impressions_mark = imps.len();

        let digest = &mut self.digest;
        let mut billing_accounts = Vec::new();
        for id in acct_keys {
            let cur = platform.billing.account_spend(id).as_micros();
            if update(digest, &mut self.acct, id, cur, |v| slot(TAG_ACCT, &id, v)) {
                billing_accounts.push((id, cur));
            }
        }
        let mut billing_campaigns = Vec::new();
        let mut billing_links = Vec::new();
        for id in camp_keys {
            let cur = platform.billing.campaign_spend(id).as_micros();
            if update(digest, &mut self.camp, id, cur, |v| slot(TAG_CAMP, &id, v)) {
                billing_campaigns.push((id, cur));
            }
            if !self.links.contains(&id) {
                if let Some(account) = platform.billing.campaign_account(id) {
                    self.links.insert(id);
                    *digest ^= slot(TAG_LINK, &id, &account);
                    billing_links.push((id, account));
                }
            }
        }
        let mut billing_ads = Vec::new();
        for id in ad_keys {
            let cur = platform.billing.ad_spend(id).as_micros();
            if update(digest, &mut self.ad, id, cur, |v| slot(TAG_AD, &id, v)) {
                billing_ads.push((id, cur));
            }
        }
        let mut freq = Vec::new();
        for key in freq_keys {
            let cur = platform.freq.count(key.0, key.1);
            if update(digest, &mut self.freq, key, cur, |v| {
                slot(TAG_FREQ, &key, v)
            }) {
                freq.push((key, cur));
            }
        }

        let pixels = platform.pixels.events();
        *digest ^= journal(TAG_PIX, pixels, self.pixel_mark);
        let pixel_base = self.pixel_mark as u64;
        let pixel_suffix = pixels[self.pixel_mark..].to_vec();
        self.pixel_mark = pixels.len();

        // Audience and facet dirty keys, diffed against the last frame.
        // Memberships only grow, so an audience whose size is unchanged
        // gained no one.
        let mut audience_adds = Vec::new();
        for aud in platform.audiences.iter() {
            let known = self.audiences.entry(aud.id).or_default();
            if aud.exact_size() != known.len() {
                let adds: Vec<UserId> = aud.members().filter(|&u| known.insert(u)).collect();
                for user in &adds {
                    *digest ^= slot(TAG_AUD, &aud.id, user);
                }
                audience_adds.push((aud.id, adds));
            }
        }
        let mut facets = Vec::new();
        let facet_updates = platform.profiles.facet_updates();
        if facet_updates != self.facet_updates {
            self.facet_updates = facet_updates;
            for profile in platform.profiles.iter() {
                let term = slot(TAG_FACET, &profile.id, &profile.facets);
                if update(digest, &mut self.facets, profile.id, term, |&t| t) {
                    facets.push((profile.id, profile.facets.clone()));
                }
            }
        }

        let symbols = platform.profiles.symbols().names();
        *digest ^= journal(TAG_SYM, symbols, self.symbols_mark);
        let symbols_base = self.symbols_mark as u64;
        let symbols_suffix = symbols[self.symbols_mark..].to_vec();
        self.symbols_mark = symbols.len();

        let mut shard_deltas = Vec::with_capacity(shards.len());
        for (s, src) in shards.into_iter().enumerate() {
            let mut sd = ShardDelta {
                index: src.index,
                users: Vec::with_capacity(src.cursors.len()),
                freq: Vec::with_capacity(src.freq.len()),
                ext: Vec::with_capacity(src.ext.len()),
            };
            for (pos, c) in src.cursors {
                let h = slot(TAG_CUR, &(src.index, pos), &c);
                let held = &mut self.shard_cursors[s][pos as usize];
                *digest ^= *held ^ h;
                *held = h;
                sd.users.push((pos, c));
            }
            for (key, cur) in src.freq {
                let term = |v: &u32| slot(TAG_SFREQ, &(src.index, key), v);
                if update(digest, &mut self.shard_freq[s], key, cur, term) {
                    sd.freq.push((key, cur));
                }
            }
            for (user, suffix) in src.ext {
                if suffix.is_empty() {
                    continue;
                }
                let mark = self.shard_ext_marks[s].entry(user).or_insert(0);
                let base = *mark as u64;
                for (i, o) in (base..).zip(&suffix) {
                    *digest ^= slot(TAG_EXT, &(src.index, user, i), o);
                }
                *mark += suffix.len();
                sd.ext.push((user, base, suffix));
            }
            shard_deltas.push(sd);
        }

        let parent_ticks = self.ticks;
        self.ticks = head.report.ticks;
        DeltaFrame {
            config: head.config,
            parent_ticks,
            next_tick_start: head.next_tick_start,
            report: head.report,
            exhausted: head.exhausted,
            faults: head.faults,
            ledger: head.ledger,
            clock_now: platform.clock.now().0,
            stats: platform.stats,
            small_spend_waiver_micros: platform.billing.small_spend_waiver.as_micros(),
            impressions_charged: platform.billing.impressions_charged(),
            charged_micros: platform.billing.total_charged().as_micros(),
            billing_accounts,
            billing_campaigns,
            billing_ads,
            billing_links,
            freq,
            impressions_base,
            impressions_suffix,
            pixel_base,
            pixel_suffix,
            audience_adds,
            facet_updates,
            symbols_base,
            symbols_suffix,
            facets,
            shards: shard_deltas,
            digest: self.digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LostWork;
    use adplatform::billing::LedgerState;
    use adplatform::delivery::DeliveryStats;
    use adplatform::profile::FacetsState;
    use adplatform::PlatformState;
    use adsim_types::PixelId;
    use websim::extension::ObservedAd;

    fn base() -> EngineCheckpoint {
        EngineCheckpoint {
            config: ConfigEcho {
                shards: 1,
                seed: 7,
                tick_ms: 1000,
                users: 2,
                days: 3,
                views_bits: 4.0f64.to_bits(),
            },
            next_tick_start: 1000,
            report: ReportCounters {
                users: 2,
                shards: 1,
                ticks: 1,
                page_views: 4,
                pixel_fires: 1,
                opportunities: 4,
                impressions: 1,
            },
            exhausted: vec![],
            faults: FaultReport::default(),
            platform: PlatformState {
                clock_now: SimTime(1000),
                billing: LedgerState {
                    account_spend: vec![(AccountId(1), Money::micros(2_000))],
                    campaign_spend: vec![(CampaignId(1), Money::micros(2_000))],
                    ad_spend: vec![(AdId(1), Money::micros(2_000))],
                    campaign_account: vec![(CampaignId(1), AccountId(1))],
                    small_spend_waiver: Money::micros(10_000),
                    impressions_charged: 1,
                    charged_micros: 2_000,
                },
                freq: vec![((AdId(1), UserId(1)), 1)],
                impressions: vec![Impression {
                    ad: AdId(1),
                    campaign: CampaignId(1),
                    account: AccountId(1),
                    user: UserId(1),
                    at: SimTime(500),
                    price: Money::micros(2_000),
                    spec_digest: 0xFEED,
                }],
                stats: DeliveryStats {
                    opportunities: 4,
                    won: 1,
                    lost_to_background: 1,
                    unfilled: 2,
                },
                pixel_events: vec![PixelEvent {
                    pixel: PixelId(1),
                    user: UserId(1),
                    at: SimTime(400),
                }],
                audience_members: vec![(AudienceId(1), vec![UserId(1)])],
                facets: FacetsState {
                    symbols: vec!["Ohio".into(), "43004".into()],
                    facet_updates: 2,
                    users: vec![(
                        UserId(1),
                        ProfileFacets::from_parts(vec![0b1], 0, 1, vec![]),
                    )],
                },
            },
            shards: vec![crate::checkpoint::ShardCheckpoint {
                index: 0,
                users: vec![
                    UserCursor {
                        user: UserId(1),
                        rng: [1, 2, 3, 4],
                        cursor: 2,
                        seq: 5,
                        fseq: 1,
                    },
                    UserCursor {
                        user: UserId(2),
                        rng: [5, 6, 7, 8],
                        cursor: 2,
                        seq: 4,
                        fseq: 0,
                    },
                ],
                freq: vec![((AdId(1), UserId(1)), 1)],
                extensions: vec![ExtensionSnapshot {
                    user: UserId(1),
                    observations: vec![],
                }],
            }],
            ledger: vec![LedgerHead {
                chain: 0,
                head: 0xDEAD_BEEF,
                count: 1,
            }],
        }
    }

    /// The full checkpoint `base()` advances to after one more tick, plus
    /// the delta frame that carries exactly that advance.
    fn advanced() -> (EngineCheckpoint, DeltaFrame) {
        let mut next = base();
        next.next_tick_start = 2000;
        next.ledger[0].head = 0xBEEF_CAFE;
        next.ledger[0].count = 2;
        next.report.ticks = 2;
        next.report.page_views = 8;
        next.report.opportunities = 8;
        next.report.impressions = 2;
        let p = &mut next.platform;
        p.clock_now = SimTime(2000);
        p.stats.opportunities = 8;
        p.stats.won = 2;
        p.billing.account_spend[0].1 = Money::micros(5_000);
        p.billing.campaign_spend[0].1 = Money::micros(5_000);
        p.billing.ad_spend[0].1 = Money::micros(5_000);
        p.billing.impressions_charged = 2;
        p.billing.charged_micros = 5_000;
        p.freq[0].1 = 2;
        let imp = Impression {
            ad: AdId(1),
            campaign: CampaignId(1),
            account: AccountId(1),
            user: UserId(1),
            at: SimTime(1500),
            price: Money::micros(3_000),
            spec_digest: 0xFACE,
        };
        p.impressions.push(imp);
        p.audience_members[0].1.push(UserId(2));
        p.facets.symbols.push("10001".into());
        p.facets.facet_updates = 3;
        let new_facets = ProfileFacets::from_parts(vec![0b1], 0, 1, vec![2]);
        p.facets.users[0].1 = new_facets.clone();
        let shard = &mut next.shards[0];
        shard.users[0].cursor = 4;
        shard.users[0].seq = 9;
        shard.freq[0].1 = 2;
        let obs = ObservedAd {
            ad: AdId(1),
            at: SimTime(1500),
            creative: adplatform::AdCreative {
                headline: "h".into(),
                body: "b".into(),
                image: None,
                landing_url: None,
            },
        };
        shard.extensions[0].observations.push(obs.clone());

        let delta = DeltaFrame {
            config: next.config.clone(),
            parent_ticks: 1,
            next_tick_start: 2000,
            report: next.report,
            exhausted: vec![],
            faults: FaultReport::default(),
            clock_now: 2000,
            stats: next.platform.stats,
            small_spend_waiver_micros: 10_000,
            impressions_charged: 2,
            charged_micros: 5_000,
            billing_accounts: vec![(AccountId(1), 5_000)],
            billing_campaigns: vec![(CampaignId(1), 5_000)],
            billing_ads: vec![(AdId(1), 5_000)],
            billing_links: vec![],
            freq: vec![((AdId(1), UserId(1)), 2)],
            impressions_base: 1,
            impressions_suffix: vec![imp],
            pixel_base: 1,
            pixel_suffix: vec![],
            audience_adds: vec![(AudienceId(1), vec![UserId(2)])],
            facet_updates: 3,
            symbols_base: 2,
            symbols_suffix: vec!["10001".into()],
            facets: vec![(UserId(1), new_facets)],
            shards: vec![ShardDelta {
                index: 0,
                users: vec![(0, next.shards[0].users[0].clone())],
                freq: vec![((AdId(1), UserId(1)), 2)],
                ext: vec![(UserId(1), 0, vec![obs])],
            }],
            ledger: next.ledger.clone(),
            digest: state_digest(&next),
        };
        (next, delta)
    }

    #[test]
    fn delta_frame_round_trips_canonically() {
        let (_, delta) = advanced();
        let frame = CheckpointFrame::Delta(delta);
        let bytes = frame.to_bytes();
        let decoded = CheckpointFrame::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn full_frames_decode_through_checkpoint_frame() {
        let cp = base();
        let frame = CheckpointFrame::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(frame, CheckpointFrame::Full(cp));
    }

    #[test]
    fn folding_base_plus_delta_is_byte_identical_to_full() {
        let (next, delta) = advanced();
        let folded =
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(delta)]).unwrap();
        assert_eq!(folded, next);
        assert_eq!(folded.to_bytes(), next.to_bytes());
    }

    #[test]
    fn a_dirty_set_missing_a_mutated_slot_fails_the_digest_check() {
        // The frequency-cap bump is dropped from a frame whose digest was
        // taken over the true state, so the frame's content disagrees
        // with its digest and the fold refuses it. This is what the
        // digest catches. A key the tracker itself never saw would be
        // missing from both the frame and its rolling digest, and only
        // the fold-prefix and resume oracles catch that.
        let (_, mut delta) = advanced();
        delta.freq.clear();
        assert_eq!(
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(delta)])
                .unwrap_err(),
            DecodeError::Invalid("state digest mismatch")
        );
    }

    #[test]
    fn chain_discipline_is_enforced() {
        let (_, delta) = advanced();
        // A chain cannot start with a delta.
        assert_eq!(
            fold_frames(&[CheckpointFrame::Delta(delta.clone())]).unwrap_err(),
            DecodeError::Invalid("frame chain must start with a full frame")
        );
        // Config echo must match the base.
        let mut wrong = delta.clone();
        wrong.config.seed = 999;
        assert_eq!(
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(wrong)])
                .unwrap_err(),
            DecodeError::Invalid("delta config mismatch")
        );
        // Parent tick must name the frame it applies on top of.
        let mut wrong = delta.clone();
        wrong.parent_ticks = 5;
        assert_eq!(
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(wrong)])
                .unwrap_err(),
            DecodeError::Invalid("delta parent tick mismatch")
        );
        // Journal suffixes must append at exactly the folded length.
        let mut wrong = delta.clone();
        wrong.impressions_base = 7;
        assert_eq!(
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(wrong)])
                .unwrap_err(),
            DecodeError::Invalid("impression log base mismatch")
        );
        // A later full frame restarts the chain.
        let folded = fold_frames(&[
            CheckpointFrame::Full(advanced().0),
            CheckpointFrame::Full(base()),
        ])
        .unwrap();
        assert_eq!(folded, base());
    }

    #[test]
    fn unknown_frame_kind_is_rejected() {
        let mut bytes = CheckpointFrame::Delta(DeltaFrame::default()).to_bytes();
        bytes[8 + 4] = 9;
        assert_eq!(
            CheckpointFrame::from_bytes(&bytes).unwrap_err(),
            DecodeError::Invalid("frame kind byte")
        );
    }

    #[test]
    fn state_digest_is_order_free_and_slot_sensitive() {
        let cp = base();
        let d1 = state_digest(&cp);
        // Recomputation is stable.
        assert_eq!(d1, state_digest(&cp));
        // Any single-slot change moves the digest.
        let mut changed = cp.clone();
        changed.platform.freq[0].1 = 2;
        assert_ne!(d1, state_digest(&changed));
        let mut changed = cp.clone();
        changed.shards[0].users[1].seq += 1;
        assert_ne!(d1, state_digest(&changed));
    }

    #[test]
    fn base_frames_fail_the_digest_check_when_a_slot_is_corrupted() {
        // The impression's fields as the body encodes them, ending in the
        // price: flipping the price's low bit leaves a well-formed frame
        // whose state no longer matches the digest it carries.
        let cp = base();
        let imp = &cp.platform.impressions[0];
        let fields = [
            imp.ad.raw(),
            imp.campaign.raw(),
            imp.account.raw(),
            imp.user.raw(),
            imp.at.0,
        ];
        let mut w = Writer::new();
        for v in fields {
            w.put_u64(v);
        }
        w.put_i64(imp.price.as_micros());
        let needle = w.into_bytes();
        let mut bytes = cp.to_bytes();
        let at = bytes
            .windows(needle.len())
            .position(|win| win == needle.as_slice())
            .expect("the impression is encoded");
        bytes[at + needle.len() - 8] ^= 1;
        assert_eq!(
            EngineCheckpoint::from_bytes(&bytes).unwrap_err(),
            DecodeError::Invalid("state digest mismatch")
        );
    }

    #[test]
    fn fold_rejects_repeated_symbols_and_unsorted_upserts() {
        // Each delta carries the digest of the state a lenient fold would
        // reach, so only the strictness checks can reject it.
        let (mut next, mut delta) = advanced();
        next.platform.facets.symbols.push("Ohio".into());
        delta.symbols_suffix.push("Ohio".into());
        delta.digest = state_digest(&next);
        assert_eq!(
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(delta)])
                .unwrap_err(),
            DecodeError::Invalid("duplicate symbol-table entry")
        );

        let (mut next, mut delta) = advanced();
        next.platform.freq.push(((AdId(2), UserId(1)), 1));
        delta.freq.insert(0, ((AdId(2), UserId(1)), 1));
        delta.digest = state_digest(&next);
        assert_eq!(
            fold_frames(&[CheckpointFrame::Full(base()), CheckpointFrame::Delta(delta)])
                .unwrap_err(),
            DecodeError::Invalid("upserts not strictly increasing")
        );
    }

    /// A delta on top of `advanced()`'s state that takes the branches the
    /// other samples skip: a lost-work entry, a symbol and a body longer
    /// than one 8-byte word, facets with several attribute words and
    /// visited ZIPs, and an extension suffix at a nonzero base whose
    /// observation has a landing URL, no image and an empty headline.
    /// Returns the parent state, the state the delta folds up to, and the
    /// delta.
    fn rich() -> (EngineCheckpoint, EngineCheckpoint, DeltaFrame) {
        let parent = advanced().0;
        let mut next = parent.clone();
        next.next_tick_start = 3000;
        next.report.ticks = 3;
        next.report.page_views = 11;
        let lost = LostWork {
            tick: 2,
            shard: 0,
            page_views: 3,
            pixel_fires: 1,
            opportunities: 6,
        };
        next.faults = FaultReport {
            injected: 2,
            recovered: 0,
            unrecoverable: 1,
            lost: vec![lost],
        };
        let p = &mut next.platform;
        p.clock_now = SimTime(3000);
        p.facets.symbols.push("Massachusetts".into());
        p.facets.facet_updates = 5;
        let facets = ProfileFacets::from_parts(vec![0b101, 0, 1 << 63], 3, 1, vec![0, 2, 3]);
        p.facets.users.push((UserId(2), facets.clone()));
        let obs = ObservedAd {
            ad: AdId(7),
            at: SimTime(2500),
            creative: adplatform::AdCreative {
                headline: String::new(),
                body: "a body longer than one word".into(),
                image: None,
                landing_url: Some("https://provider.example/t/7".into()),
            },
        };
        next.shards[0].extensions[0].observations.push(obs.clone());

        let delta = DeltaFrame {
            config: next.config.clone(),
            parent_ticks: 2,
            next_tick_start: 3000,
            report: next.report,
            exhausted: vec![],
            faults: next.faults.clone(),
            clock_now: 3000,
            stats: next.platform.stats,
            small_spend_waiver_micros: 10_000,
            impressions_charged: 2,
            charged_micros: 5_000,
            impressions_base: 2,
            pixel_base: 1,
            facet_updates: 5,
            symbols_base: 3,
            symbols_suffix: vec!["Massachusetts".into()],
            facets: vec![(UserId(2), facets)],
            shards: vec![ShardDelta {
                index: 0,
                ext: vec![(UserId(1), 1, vec![obs])],
                ..ShardDelta::default()
            }],
            ledger: next.ledger.clone(),
            digest: state_digest(&next),
            ..DeltaFrame::default()
        };
        (parent, next, delta)
    }

    #[test]
    fn the_rich_delta_folds_to_its_state() {
        let (parent, next, delta) = rich();
        let folded =
            fold_frames(&[CheckpointFrame::Full(parent), CheckpointFrame::Delta(delta)]).unwrap();
        assert_eq!(folded, next);
        assert_eq!(folded.to_bytes(), next.to_bytes());
    }

    /// The richest sample of each frame kind, encoded: the checkpoint
    /// module's full sample, this module's delta, and the rich delta.
    fn sample_frames() -> [Vec<u8>; 3] {
        [
            CheckpointFrame::Full(crate::checkpoint::tests::sample()).to_bytes(),
            CheckpointFrame::Delta(advanced().1).to_bytes(),
            CheckpointFrame::Delta(rich().2).to_bytes(),
        ]
    }

    #[test]
    fn frame_layout_is_pinned_to_the_version() {
        // A layout change must bump CHECKPOINT_VERSION: update this pin
        // only together with the version.
        let [full, delta, rich_delta] =
            sample_frames().map(|b| adsim_types::hash::sha256(&b).fingerprint());
        assert_eq!(
            (CHECKPOINT_VERSION, full, delta),
            (6, 0xce99_1b92_7eb0_6d8a, 0x484c_8916_06fd_a0cb),
            "frame bytes changed: bump CHECKPOINT_VERSION and re-pin"
        );
        // The rich delta's bytes and the digest of the state it folds up
        // to, which hashes a landing URL and a multi-word body and symbol.
        assert_eq!(
            (rich_delta, state_digest(&rich().1)),
            (0x8bfa_9f48_1dca_64ec, 0x94d6_6664_cc09_089e),
            "rich frame bytes or state digest changed: bump CHECKPOINT_VERSION and re-pin"
        );
    }

    /// A seeded stream of test values. The vendored proptest has no
    /// dependent strategies, so a generated frame draws its lengths,
    /// strings and options from here.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix64(self.0)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }
        fn len(&mut self) -> usize {
            self.below(4) as usize
        }
        fn vec<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let n = self.len();
            (0..n).map(|_| item(self)).collect()
        }
        /// Strictly increasing small keys.
        fn keys(&mut self) -> Vec<u64> {
            let set: BTreeSet<u64> = self.vec(|g| g.below(40)).into_iter().collect();
            set.into_iter().collect()
        }
        fn string(&mut self) -> String {
            let n = self.below(20);
            (0..n)
                .map(|_| ['a', 'z', '0', ' ', 'é', '/'][self.below(6) as usize])
                .collect()
        }
        fn option<T>(&mut self, item: impl FnOnce(&mut Self) -> T) -> Option<T> {
            self.coin().then(|| item(self))
        }
        fn cursor(&mut self, user: u64) -> UserCursor {
            UserCursor {
                user: UserId(user),
                rng: [self.next(), self.next(), self.next(), self.next()],
                cursor: self.below(100),
                seq: self.below(100),
                fseq: self.below(100),
            }
        }
        fn observed(&mut self) -> ObservedAd {
            ObservedAd {
                ad: AdId(self.below(9)),
                at: SimTime(self.next()),
                creative: adplatform::AdCreative {
                    headline: self.string(),
                    body: self.string(),
                    image: self.option(|g| g.string().into_bytes()),
                    landing_url: self.option(Self::string),
                },
            }
        }
        /// Facets whose symbols all fall below `symbols` (at least 1).
        fn facets(&mut self, symbols: u64) -> ProfileFacets {
            let words = self.vec(Self::next);
            let visited: BTreeSet<u32> =
                self.vec(|g| g.below(symbols) as u32).into_iter().collect();
            ProfileFacets::from_parts(
                words,
                self.below(symbols) as u32,
                self.below(symbols) as u32,
                visited.into_iter().collect(),
            )
        }
        fn impression(&mut self) -> Impression {
            Impression {
                ad: AdId(self.below(9)),
                campaign: CampaignId(self.below(9)),
                account: AccountId(self.below(9)),
                user: UserId(self.below(9)),
                at: SimTime(self.next()),
                price: Money::micros(self.next() as i64),
                spec_digest: self.next(),
            }
        }
        fn pixel(&mut self) -> PixelEvent {
            PixelEvent {
                pixel: PixelId(self.below(9)),
                user: UserId(self.below(9)),
                at: SimTime(self.next()),
            }
        }
        fn faults(&mut self) -> FaultReport {
            FaultReport {
                injected: self.next(),
                recovered: self.next(),
                unrecoverable: self.next(),
                lost: self.vec(|g| LostWork {
                    tick: g.next(),
                    shard: g.below(8) as usize,
                    page_views: g.next(),
                    pixel_fires: g.next(),
                    opportunities: g.next(),
                }),
            }
        }
        fn ledger(&mut self) -> Vec<LedgerHead> {
            self.vec(|g| LedgerHead {
                chain: g.below(8) as u32,
                head: g.next(),
                count: g.next(),
            })
        }
        fn report(&mut self) -> ReportCounters {
            ReportCounters {
                users: self.next(),
                shards: self.next(),
                ticks: self.next(),
                page_views: self.next(),
                pixel_fires: self.next(),
                opportunities: self.next(),
                impressions: self.next(),
            }
        }
        fn config(&mut self) -> ConfigEcho {
            ConfigEcho {
                shards: self.next(),
                seed: self.next(),
                tick_ms: self.next(),
                users: self.next(),
                days: self.next(),
                views_bits: self.next(),
            }
        }
        fn stats(&mut self) -> DeliveryStats {
            DeliveryStats {
                opportunities: self.next(),
                won: self.next(),
                lost_to_background: self.next(),
                unfilled: self.next(),
            }
        }

        /// A delta frame with random contents; only its facet symbols are
        /// constrained, to the table the frame folds up to.
        fn delta(&mut self) -> DeltaFrame {
            let symbols_base = self.below(3);
            let symbols_suffix = self.vec(Self::string);
            let symbols = symbols_base + symbols_suffix.len() as u64;
            let facets = if symbols == 0 {
                Vec::new()
            } else {
                self.vec(|g| (UserId(g.below(9)), g.facets(symbols)))
            };
            DeltaFrame {
                config: self.config(),
                parent_ticks: self.next(),
                next_tick_start: self.next(),
                report: self.report(),
                exhausted: self.vec(|g| CampaignId(g.next())),
                faults: self.faults(),
                clock_now: self.next(),
                stats: self.stats(),
                small_spend_waiver_micros: self.next() as i64,
                impressions_charged: self.next(),
                charged_micros: self.next() as i64,
                billing_accounts: self.vec(|g| (AccountId(g.next()), g.next() as i64)),
                billing_campaigns: self.vec(|g| (CampaignId(g.next()), g.next() as i64)),
                billing_ads: self.vec(|g| (AdId(g.next()), g.next() as i64)),
                billing_links: self.vec(|g| (CampaignId(g.next()), AccountId(g.next()))),
                freq: self.vec(|g| ((AdId(g.next()), UserId(g.next())), g.next() as u32)),
                impressions_base: self.next(),
                impressions_suffix: self.vec(Self::impression),
                pixel_base: self.next(),
                pixel_suffix: self.vec(Self::pixel),
                audience_adds: self.vec(|g| (AudienceId(g.next()), g.vec(|g| UserId(g.next())))),
                facet_updates: self.next(),
                symbols_base,
                symbols_suffix,
                facets,
                shards: self.vec(|g| ShardDelta {
                    index: g.next(),
                    users: g.vec(|g| {
                        let user = g.below(9);
                        (g.next() as u32, g.cursor(user))
                    }),
                    freq: g.vec(|g| ((AdId(g.next()), UserId(g.next())), g.next() as u32)),
                    ext: g.vec(|g| (UserId(g.next()), g.next(), g.vec(Self::observed))),
                }),
                ledger: self.ledger(),
                digest: self.next(),
            }
        }

        /// A checkpoint a base frame can carry: keyed sections strictly
        /// increasing, symbols distinct, facet symbols inside the table.
        fn checkpoint(&mut self) -> EngineCheckpoint {
            let symbols: Vec<String> = self
                .keys()
                .into_iter()
                .map(|k| format!("symbol-{k}"))
                .collect();
            let n_symbols = symbols.len() as u64;
            let facet_users = if n_symbols == 0 {
                Vec::new()
            } else {
                self.keys()
            };
            EngineCheckpoint {
                config: self.config(),
                next_tick_start: self.next(),
                report: self.report(),
                exhausted: self.vec(|g| CampaignId(g.next())),
                faults: self.faults(),
                platform: PlatformState {
                    clock_now: SimTime(self.next()),
                    billing: LedgerState {
                        account_spend: self
                            .keys()
                            .into_iter()
                            .map(|k| (AccountId(k), Money::micros(self.next() as i64)))
                            .collect(),
                        campaign_spend: self
                            .keys()
                            .into_iter()
                            .map(|k| (CampaignId(k), Money::micros(self.next() as i64)))
                            .collect(),
                        ad_spend: self
                            .keys()
                            .into_iter()
                            .map(|k| (AdId(k), Money::micros(self.next() as i64)))
                            .collect(),
                        campaign_account: self
                            .keys()
                            .into_iter()
                            .map(|k| (CampaignId(k), AccountId(self.next())))
                            .collect(),
                        small_spend_waiver: Money::micros(self.next() as i64),
                        impressions_charged: self.next(),
                        charged_micros: self.next() as i64,
                    },
                    freq: self
                        .keys()
                        .into_iter()
                        .map(|k| ((AdId(k / 8), UserId(k % 8)), self.next() as u32))
                        .collect(),
                    impressions: self.vec(Self::impression),
                    stats: self.stats(),
                    pixel_events: self.vec(Self::pixel),
                    audience_members: self
                        .keys()
                        .into_iter()
                        .map(|k| (AudienceId(k), self.keys().into_iter().map(UserId).collect()))
                        .collect(),
                    facets: FacetsState {
                        symbols,
                        facet_updates: self.next(),
                        users: facet_users
                            .into_iter()
                            .map(|u| (UserId(u), self.facets(n_symbols)))
                            .collect(),
                    },
                },
                shards: self
                    .keys()
                    .into_iter()
                    .map(|index| ShardCheckpoint {
                        index,
                        users: self.keys().into_iter().map(|u| self.cursor(u)).collect(),
                        freq: self
                            .keys()
                            .into_iter()
                            .map(|k| ((AdId(k / 8), UserId(k % 8)), self.next() as u32))
                            .collect(),
                        extensions: self
                            .keys()
                            .into_iter()
                            .map(|u| ExtensionSnapshot {
                                user: UserId(u),
                                observations: self.vec(Self::observed),
                            })
                            .collect(),
                    })
                    .collect(),
                ledger: self.ledger(),
            }
        }
    }

    mod generated {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any delta frame decodes from its encoding to itself, and
            /// re-encoding the decoded frame is byte-identical.
            #[test]
            fn generated_delta_frames_round_trip(seed in any::<u64>()) {
                let frame = CheckpointFrame::Delta(Gen(seed).delta());
                let bytes = frame.to_bytes();
                let decoded = CheckpointFrame::from_bytes(&bytes);
                prop_assert_eq!(decoded.as_ref(), Ok(&frame));
                prop_assert_eq!(frame.to_bytes(), bytes);
            }

            /// A checkpoint survives its base-frame round trip with its
            /// state digest, and the decoded state re-encodes to the same
            /// bytes.
            #[test]
            fn generated_checkpoints_keep_their_digest(seed in any::<u64>()) {
                let cp = Gen(seed).checkpoint();
                let bytes = cp.to_bytes();
                let decoded = EngineCheckpoint::from_bytes(&bytes);
                prop_assert_eq!(decoded.as_ref(), Ok(&cp));
                prop_assert_eq!(state_digest(&cp), state_digest(decoded.as_ref().unwrap()));
                prop_assert_eq!(decoded.unwrap().to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn the_tracker_sees_store_mutations_between_frames() {
        use adplatform::profile::Gender;
        use adplatform::PlatformConfig;
        use adsim_types::AttributeId;

        let mut platform = Platform::us_2018(PlatformConfig::facebook_like(5));
        let member = platform.register_user(30, Gender::Female, "Ohio", "43004");
        let visitor = platform.register_user(41, Gender::Male, "Texas", "73301");
        let granted = platform.register_user(25, Gender::Female, "Utah", "84101");
        let advertiser = platform.register_advertiser("pixel owner");
        let account = platform.open_account(advertiser).unwrap();
        let pixel = platform.create_pixel(account, "optin").unwrap();
        let audience = platform.create_pixel_audience(account, pixel).unwrap();
        platform
            .apply_pixel_fire(member, pixel, SimTime(10))
            .unwrap();
        let export = |platform: &Platform, ticks: u64| EngineCheckpoint {
            report: ReportCounters {
                ticks,
                ..ReportCounters::default()
            },
            platform: platform.export_state(),
            ..EngineCheckpoint::default()
        };
        let base = export(&platform, 1);
        let mut tracker = DeltaTracker::new(0);
        tracker.rebase(&base, &platform);

        platform
            .apply_pixel_fire(visitor, pixel, SimTime(20))
            .unwrap();
        platform
            .apply_pixel_fire(member, pixel, SimTime(30))
            .unwrap();
        platform
            .profiles
            .grant_attribute(granted, AttributeId(3))
            .unwrap();
        platform
            .profiles
            .record_zip_visit(granted, "99501")
            .unwrap();
        let head = DeltaHead {
            report: ReportCounters {
                ticks: 2,
                ..ReportCounters::default()
            },
            ..DeltaHead::default()
        };
        let delta = tracker.take_delta(head, &platform, Vec::new());
        assert_eq!(delta.audience_adds, vec![(audience, vec![visitor])]);
        assert_eq!(
            delta.facets.iter().map(|(u, _)| *u).collect::<Vec<_>>(),
            vec![granted]
        );
        assert_eq!(delta.symbols_suffix, vec!["99501".to_string()]);
        let folded =
            fold_frames(&[CheckpointFrame::Full(base), CheckpointFrame::Delta(delta)]).unwrap();
        assert_eq!(folded, export(&platform, 2));
    }

    mod strict_decode {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Every strict truncation of a valid frame of either kind is
            /// a typed [`DecodeError`], never a panic: the reader checks
            /// remaining length before every slice and never trusts an
            /// embedded count it cannot satisfy.
            #[test]
            fn truncations_yield_typed_errors(cut in 0usize..1 << 20) {
                for bytes in sample_frames() {
                    let cut = cut % bytes.len();
                    prop_assert!(
                        CheckpointFrame::from_bytes(&bytes[..cut]).is_err(),
                        "a {cut}-byte prefix of a {}-byte frame decoded",
                        bytes.len()
                    );
                }
            }

            /// Any single-bit corruption of a frame of either kind either
            /// fails with a typed [`DecodeError`] or decodes to a frame
            /// that re-encodes to exactly the corrupted bytes — the codec
            /// accepts no second, non-canonical spelling of any state, and
            /// it never panics.
            #[test]
            fn bit_flips_never_panic_and_stay_canonical(
                pos in 0usize..1 << 20,
                bit in 0u32..8,
            ) {
                for mut bytes in sample_frames() {
                    let n = bytes.len();
                    bytes[pos % n] ^= 1 << bit;
                    if let Ok(decoded) = CheckpointFrame::from_bytes(&bytes) {
                        prop_assert_eq!(
                            decoded.to_bytes(),
                            bytes,
                            "accepted a non-canonical encoding (flipped bit {} of byte {})",
                            bit,
                            pos % n
                        );
                    }
                }
            }
        }
    }
}
