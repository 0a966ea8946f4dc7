//! Incremental (delta) checkpoint frames — introduced in TRCK v3 — and,
//! since v5, the one TRCK body codec for both frame kinds.
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
//!   the dirty keys, strictly increasing by key, discovered either at the
//!   mutation site ([`adplatform`]'s audience and profile stores record
//!   dirty keys as they mutate) or *derived* from the impression-log
//!   suffix (every impression names the exact account/campaign/ad/
//!   frequency slots it touched, so the hot path pays nothing);
//! * **scalars** (clock, run counters, fault accounting, billing totals,
//!   receipt-ledger heads) are tiny and carried whole.
//!
//! Every frame ends with a **state digest**: a set-homomorphic XOR-fold
//! over per-slot hashes of the *entire* post-frame state, maintained
//! incrementally by the [`DeltaTracker`] as slots change. Applying a
//! frame recomputes the digest from the resulting state and rejects it on
//! any mismatch — a dirty set that failed to mention a mutated slot fails
//! resume loudly ([`DecodeError::Invalid`]`("state digest mismatch")`)
//! instead of resuming silently wrong.
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
    decode_observed, decode_profile_facets, encode_observed, encode_profile_facets, ConfigEcho,
    EngineCheckpoint, ExtensionSnapshot, ReportCounters, ShardCheckpoint, UserCursor,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FRAME_DELTA, FRAME_FULL,
};
use crate::codec::{DecodeError, Reader, Writer};
use crate::fault::{FaultReport, LostWork};
use crate::ledger::LedgerHead;

// ---------------------------------------------------------------------------
// Slot hashing
// ---------------------------------------------------------------------------

/// Accumulating slot hasher: absorb the tag, the key, and the value, in a
/// fixed order, and XOR the result into the digest. Two slots hash
/// independently, so the digest is order-free (a set fold). Built on
/// [`mix64`]: the digest detects *bookkeeping bugs* (a dirty set missing a
/// mutated slot), not adversaries — checkpoints are trusted local files.
#[derive(Clone, Copy)]
struct Slot(u64);

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

impl Slot {
    fn new(tag: u64) -> Self {
        Slot(mix64(tag ^ 0x9e37_79b9_7f4a_7c15))
    }
    fn u64(mut self, v: u64) -> Self {
        self.0 = mix64(self.0.rotate_left(7) ^ v);
        self
    }
    fn i64(self, v: i64) -> Self {
        self.u64(v as u64)
    }
    fn u32(self, v: u32) -> Self {
        self.u64(u64::from(v))
    }
    fn bytes(mut self, b: &[u8]) -> Self {
        self = self.u64(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self = self.u64(u64::from_le_bytes(word));
        }
        self
    }
    fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }
    fn done(self) -> u64 {
        mix64(self.0)
    }
}

fn hash_impression(index: u64, i: &Impression) -> u64 {
    Slot::new(TAG_IMP)
        .u64(index)
        .u64(i.ad.raw())
        .u64(i.campaign.raw())
        .u64(i.account.raw())
        .u64(i.user.raw())
        .u64(i.at.0)
        .i64(i.price.as_micros())
        .u64(i.spec_digest)
        .done()
}

fn hash_pixel(index: u64, e: &PixelEvent) -> u64 {
    Slot::new(TAG_PIX)
        .u64(index)
        .u64(e.pixel.raw())
        .u64(e.user.raw())
        .u64(e.at.0)
        .done()
}

fn hash_facets(user: UserId, f: &ProfileFacets) -> u64 {
    let mut s = Slot::new(TAG_FACET).u64(user.raw());
    let words = f.attr_words();
    s = s.u64(words.len() as u64);
    for w in words {
        s = s.u64(*w);
    }
    s = s.u32(f.state()).u32(f.zip());
    let visited = f.visited_zip_symbols();
    s = s.u64(visited.len() as u64);
    for z in visited {
        s = s.u32(*z);
    }
    s.done()
}

fn hash_cursor(shard: u64, pos: u32, c: &UserCursor) -> u64 {
    let mut s = Slot::new(TAG_CUR).u64(shard).u32(pos).u64(c.user.raw());
    for word in c.rng {
        s = s.u64(word);
    }
    s.u64(c.cursor).u64(c.seq).u64(c.fseq).done()
}

fn hash_observed(shard: u64, user: UserId, index: u64, o: &ObservedAd) -> u64 {
    let mut s = Slot::new(TAG_EXT)
        .u64(shard)
        .u64(user.raw())
        .u64(index)
        .u64(o.ad.raw())
        .u64(o.at.0)
        .str(&o.creative.headline)
        .str(&o.creative.body);
    s = match &o.creative.image {
        Some(image) => s.u64(1).bytes(image),
        None => s.u64(0),
    };
    s = match &o.creative.landing_url {
        Some(url) => s.u64(1).str(url),
        None => s.u64(0),
    };
    s.done()
}

/// The set-homomorphic digest of a full checkpoint's mutable state.
///
/// Covers exactly the sections a [`DeltaFrame`] carries incrementally
/// (keyed maps and append-only journals); scalars carried whole by every
/// frame are excluded. [`DeltaTracker`] maintains the same quantity
/// incrementally, and decoding a base frame or folding a delta
/// recomputes it after applying the frame to verify nothing was missed.
pub fn state_digest(cp: &EngineCheckpoint) -> u64 {
    let mut d = 0u64;
    let p = &cp.platform;
    for (id, m) in &p.billing.account_spend {
        d ^= Slot::new(TAG_ACCT).u64(id.raw()).i64(m.as_micros()).done();
    }
    for (id, m) in &p.billing.campaign_spend {
        d ^= Slot::new(TAG_CAMP).u64(id.raw()).i64(m.as_micros()).done();
    }
    for (id, m) in &p.billing.ad_spend {
        d ^= Slot::new(TAG_AD).u64(id.raw()).i64(m.as_micros()).done();
    }
    for (c, a) in &p.billing.campaign_account {
        d ^= Slot::new(TAG_LINK).u64(c.raw()).u64(a.raw()).done();
    }
    for ((ad, user), count) in &p.freq {
        d ^= Slot::new(TAG_FREQ)
            .u64(ad.raw())
            .u64(user.raw())
            .u32(*count)
            .done();
    }
    for (i, imp) in p.impressions.iter().enumerate() {
        d ^= hash_impression(i as u64, imp);
    }
    for (i, e) in p.pixel_events.iter().enumerate() {
        d ^= hash_pixel(i as u64, e);
    }
    for (aud, members) in &p.audience_members {
        for m in members {
            d ^= Slot::new(TAG_AUD).u64(aud.raw()).u64(m.raw()).done();
        }
    }
    for (i, s) in p.facets.symbols.iter().enumerate() {
        d ^= Slot::new(TAG_SYM).u64(i as u64).str(s).done();
    }
    for (user, facets) in &p.facets.users {
        d ^= hash_facets(*user, facets);
    }
    for shard in &cp.shards {
        for (pos, c) in shard.users.iter().enumerate() {
            d ^= hash_cursor(shard.index, pos as u32, c);
        }
        for ((ad, user), count) in &shard.freq {
            d ^= Slot::new(TAG_SFREQ)
                .u64(shard.index)
                .u64(ad.raw())
                .u64(user.raw())
                .u32(*count)
                .done();
        }
        for e in &shard.extensions {
            for (i, o) in e.observations.iter().enumerate() {
                d ^= hash_observed(shard.index, e.user, i as u64, o);
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
/// frame, plus the post-frame [`state_digest`].
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
    /// versions, unknown frame kinds, truncation, and trailing bytes. A
    /// full frame is then rebuilt by applying its body to the empty
    /// state, so every check the fold makes, digest included, applies.
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
        let body = decode_body(&mut r)?;
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
    encode_body(&mut w, body);
    w.into_bytes()
}

fn encode_body(w: &mut Writer, d: &DeltaFrame) {
    w.put_u64(d.config.shards);
    w.put_u64(d.config.seed);
    w.put_u64(d.config.tick_ms);
    w.put_u64(d.config.users);
    w.put_u64(d.config.days);
    w.put_u64(d.config.views_bits);

    w.put_u64(d.parent_ticks);
    w.put_u64(d.next_tick_start);

    w.put_u64(d.report.users);
    w.put_u64(d.report.shards);
    w.put_u64(d.report.ticks);
    w.put_u64(d.report.page_views);
    w.put_u64(d.report.pixel_fires);
    w.put_u64(d.report.opportunities);
    w.put_u64(d.report.impressions);

    w.put_u32(d.exhausted.len() as u32);
    for c in &d.exhausted {
        w.put_u64(c.raw());
    }

    w.put_u64(d.faults.injected);
    w.put_u64(d.faults.recovered);
    w.put_u64(d.faults.unrecoverable);
    w.put_u32(d.faults.lost.len() as u32);
    for l in &d.faults.lost {
        w.put_u64(l.tick);
        w.put_u64(l.shard as u64);
        w.put_u64(l.page_views);
        w.put_u64(l.pixel_fires);
        w.put_u64(l.opportunities);
    }

    w.put_u64(d.clock_now);
    w.put_u64(d.stats.opportunities);
    w.put_u64(d.stats.won);
    w.put_u64(d.stats.lost_to_background);
    w.put_u64(d.stats.unfilled);

    w.put_i64(d.small_spend_waiver_micros);
    w.put_u64(d.impressions_charged);
    w.put_i64(d.charged_micros);

    w.put_u32(d.billing_accounts.len() as u32);
    for (id, m) in &d.billing_accounts {
        w.put_u64(id.raw());
        w.put_i64(*m);
    }
    w.put_u32(d.billing_campaigns.len() as u32);
    for (id, m) in &d.billing_campaigns {
        w.put_u64(id.raw());
        w.put_i64(*m);
    }
    w.put_u32(d.billing_ads.len() as u32);
    for (id, m) in &d.billing_ads {
        w.put_u64(id.raw());
        w.put_i64(*m);
    }
    w.put_u32(d.billing_links.len() as u32);
    for (c, a) in &d.billing_links {
        w.put_u64(c.raw());
        w.put_u64(a.raw());
    }

    w.put_u32(d.freq.len() as u32);
    for ((ad, user), count) in &d.freq {
        w.put_u64(ad.raw());
        w.put_u64(user.raw());
        w.put_u32(*count);
    }

    w.put_u64(d.impressions_base);
    w.put_u32(d.impressions_suffix.len() as u32);
    for i in &d.impressions_suffix {
        w.put_u64(i.ad.raw());
        w.put_u64(i.campaign.raw());
        w.put_u64(i.account.raw());
        w.put_u64(i.user.raw());
        w.put_u64(i.at.0);
        w.put_i64(i.price.as_micros());
        w.put_u64(i.spec_digest);
    }

    w.put_u64(d.pixel_base);
    w.put_u32(d.pixel_suffix.len() as u32);
    for e in &d.pixel_suffix {
        w.put_u64(e.pixel.raw());
        w.put_u64(e.user.raw());
        w.put_u64(e.at.0);
    }

    w.put_u32(d.audience_adds.len() as u32);
    for (aud, members) in &d.audience_adds {
        w.put_u64(aud.raw());
        w.put_u32(members.len() as u32);
        for m in members {
            w.put_u64(m.raw());
        }
    }

    w.put_u64(d.facet_updates);
    w.put_u64(d.symbols_base);
    w.put_u32(d.symbols_suffix.len() as u32);
    for s in &d.symbols_suffix {
        w.put_str(s);
    }
    w.put_u32(d.facets.len() as u32);
    for (user, facets) in &d.facets {
        w.put_u64(user.raw());
        encode_profile_facets(w, facets);
    }

    w.put_u32(d.shards.len() as u32);
    for s in &d.shards {
        w.put_u64(s.index);
        w.put_u32(s.users.len() as u32);
        for (pos, c) in &s.users {
            w.put_u32(*pos);
            w.put_u64(c.user.raw());
            for word in c.rng {
                w.put_u64(word);
            }
            w.put_u64(c.cursor);
            w.put_u64(c.seq);
            w.put_u64(c.fseq);
        }
        w.put_u32(s.freq.len() as u32);
        for ((ad, user), count) in &s.freq {
            w.put_u64(ad.raw());
            w.put_u64(user.raw());
            w.put_u32(*count);
        }
        w.put_u32(s.ext.len() as u32);
        for (user, base, suffix) in &s.ext {
            w.put_u64(user.raw());
            w.put_u64(*base);
            w.put_u32(suffix.len() as u32);
            for o in suffix {
                encode_observed(w, o);
            }
        }
    }

    w.put_u32(d.ledger.len() as u32);
    for h in &d.ledger {
        w.put_u32(h.chain);
        w.put_u64(h.head);
        w.put_u64(h.count);
    }

    w.put_u64(d.digest);
}

fn decode_body(r: &mut Reader<'_>) -> Result<DeltaFrame, DecodeError> {
    let config = ConfigEcho {
        shards: r.get_u64()?,
        seed: r.get_u64()?,
        tick_ms: r.get_u64()?,
        users: r.get_u64()?,
        days: r.get_u64()?,
        views_bits: r.get_u64()?,
    };
    let parent_ticks = r.get_u64()?;
    let next_tick_start = r.get_u64()?;
    let report = ReportCounters {
        users: r.get_u64()?,
        shards: r.get_u64()?,
        ticks: r.get_u64()?,
        page_views: r.get_u64()?,
        pixel_fires: r.get_u64()?,
        opportunities: r.get_u64()?,
        impressions: r.get_u64()?,
    };
    let n = r.get_u32()?;
    let exhausted = (0..n)
        .map(|_| Ok(CampaignId(r.get_u64()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let faults = {
        let injected = r.get_u64()?;
        let recovered = r.get_u64()?;
        let unrecoverable = r.get_u64()?;
        let n = r.get_u32()?;
        let lost = (0..n)
            .map(|_| {
                Ok(LostWork {
                    tick: r.get_u64()?,
                    shard: r.get_u64()? as usize,
                    page_views: r.get_u64()?,
                    pixel_fires: r.get_u64()?,
                    opportunities: r.get_u64()?,
                })
            })
            .collect::<Result<Vec<_>, DecodeError>>()?;
        FaultReport {
            injected,
            recovered,
            unrecoverable,
            lost,
        }
    };
    let clock_now = r.get_u64()?;
    let stats = adplatform::delivery::DeliveryStats {
        opportunities: r.get_u64()?,
        won: r.get_u64()?,
        lost_to_background: r.get_u64()?,
        unfilled: r.get_u64()?,
    };
    let small_spend_waiver_micros = r.get_i64()?;
    let impressions_charged = r.get_u64()?;
    let charged_micros = r.get_i64()?;

    let n = r.get_u32()?;
    let billing_accounts = (0..n)
        .map(|_| Ok((AccountId(r.get_u64()?), r.get_i64()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let n = r.get_u32()?;
    let billing_campaigns = (0..n)
        .map(|_| Ok((CampaignId(r.get_u64()?), r.get_i64()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let n = r.get_u32()?;
    let billing_ads = (0..n)
        .map(|_| Ok((AdId(r.get_u64()?), r.get_i64()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let n = r.get_u32()?;
    let billing_links = (0..n)
        .map(|_| Ok((CampaignId(r.get_u64()?), AccountId(r.get_u64()?))))
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let n = r.get_u32()?;
    let freq = (0..n)
        .map(|_| Ok(((AdId(r.get_u64()?), UserId(r.get_u64()?)), r.get_u32()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let impressions_base = r.get_u64()?;
    let n = r.get_u32()?;
    let impressions_suffix = (0..n)
        .map(|_| {
            Ok(Impression {
                ad: AdId(r.get_u64()?),
                campaign: CampaignId(r.get_u64()?),
                account: AccountId(r.get_u64()?),
                user: UserId(r.get_u64()?),
                at: SimTime(r.get_u64()?),
                price: Money::micros(r.get_i64()?),
                spec_digest: r.get_u64()?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let pixel_base = r.get_u64()?;
    let n = r.get_u32()?;
    let pixel_suffix = (0..n)
        .map(|_| {
            Ok(PixelEvent {
                pixel: adsim_types::PixelId(r.get_u64()?),
                user: UserId(r.get_u64()?),
                at: SimTime(r.get_u64()?),
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let n = r.get_u32()?;
    let audience_adds = (0..n)
        .map(|_| {
            let aud = AudienceId(r.get_u64()?);
            let m = r.get_u32()?;
            let members = (0..m)
                .map(|_| Ok(UserId(r.get_u64()?)))
                .collect::<Result<Vec<_>, DecodeError>>()?;
            Ok((aud, members))
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let facet_updates = r.get_u64()?;
    let symbols_base = r.get_u64()?;
    let n = r.get_u32()?;
    let symbols_suffix = (0..n)
        .map(|_| r.get_str())
        .collect::<Result<Vec<_>, DecodeError>>()?;
    // Facet symbol references must fit inside the table this frame folds
    // up to: the base length plus this frame's suffix.
    let symbol_bound = u32::try_from(symbols_base + symbols_suffix.len() as u64)
        .map_err(|_| DecodeError::Invalid("symbol table too large"))?;
    let n = r.get_u32()?;
    let facets = (0..n)
        .map(|_| {
            let user = UserId(r.get_u64()?);
            let f = decode_profile_facets(r, symbol_bound)?;
            Ok((user, f))
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let n = r.get_u32()?;
    let shards = (0..n)
        .map(|_| {
            let index = r.get_u64()?;
            let n = r.get_u32()?;
            let users = (0..n)
                .map(|_| {
                    let pos = r.get_u32()?;
                    let user = UserId(r.get_u64()?);
                    let mut rng = [0u64; 4];
                    for word in rng.iter_mut() {
                        *word = r.get_u64()?;
                    }
                    Ok((
                        pos,
                        UserCursor {
                            user,
                            rng,
                            cursor: r.get_u64()?,
                            seq: r.get_u64()?,
                            fseq: r.get_u64()?,
                        },
                    ))
                })
                .collect::<Result<Vec<_>, DecodeError>>()?;
            let n = r.get_u32()?;
            let freq = (0..n)
                .map(|_| Ok(((AdId(r.get_u64()?), UserId(r.get_u64()?)), r.get_u32()?)))
                .collect::<Result<Vec<_>, DecodeError>>()?;
            let n = r.get_u32()?;
            let ext = (0..n)
                .map(|_| {
                    let user = UserId(r.get_u64()?);
                    let base = r.get_u64()?;
                    let m = r.get_u32()?;
                    let suffix = (0..m)
                        .map(|_| decode_observed(r))
                        .collect::<Result<Vec<_>, DecodeError>>()?;
                    Ok((user, base, suffix))
                })
                .collect::<Result<Vec<_>, DecodeError>>()?;
            Ok(ShardDelta {
                index,
                users,
                freq,
                ext,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let n = r.get_u32()?;
    let ledger = (0..n)
        .map(|_| {
            Ok(LedgerHead {
                chain: r.get_u32()?,
                head: r.get_u64()?,
                count: r.get_u64()?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;

    let digest = r.get_u64()?;
    Ok(DeltaFrame {
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
    })
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
/// base frame) the folded
/// state's [`state_digest`] must equal the digest the frame recorded —
/// so a delta whose dirty bookkeeping missed a mutated slot fails here
/// rather than resuming silently wrong.
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
/// [`DeltaTracker::take_delta`] emits a [`DeltaFrame`] in time
/// proportional to *what changed*, not to the state size:
///
/// * billing and global frequency dirty keys are **derived from the
///   impression-log suffix** (each impression names the exact slots its
///   application touched), so the delivery hot path carries no extra
///   bookkeeping at all;
/// * audience and facet dirty keys are drained from the mutation-site
///   sets the [`adplatform`] stores maintain;
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
    /// maps, journal marks, and the rolling digest are rebuilt from `cp`,
    /// and the platform stores' mutation-site dirty sets are drained (the
    /// full frame captured them). O(state), paid once per base frame.
    pub fn rebase(&mut self, cp: &EngineCheckpoint, platform: &mut Platform) {
        let _ = platform.audiences.take_dirty();
        let _ = platform.profiles.take_dirty_facets();
        self.ticks = cp.report.ticks;
        let p = &cp.platform;
        self.acct = p
            .billing
            .account_spend
            .iter()
            .map(|(id, m)| (*id, m.as_micros()))
            .collect();
        self.camp = p
            .billing
            .campaign_spend
            .iter()
            .map(|(id, m)| (*id, m.as_micros()))
            .collect();
        self.ad = p
            .billing
            .ad_spend
            .iter()
            .map(|(id, m)| (*id, m.as_micros()))
            .collect();
        self.links = p.billing.campaign_account.iter().map(|(c, _)| *c).collect();
        self.freq = p.freq.iter().copied().collect();
        self.facets = p
            .facets
            .users
            .iter()
            .map(|(u, f)| (*u, hash_facets(*u, f)))
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
            self.shard_cursors[s] = shard
                .users
                .iter()
                .enumerate()
                .map(|(pos, c)| hash_cursor(shard.index, pos as u32, c))
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
        platform: &mut Platform,
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
        for (i, imp) in imps.iter().enumerate().skip(self.impressions_mark) {
            self.digest ^= hash_impression(i as u64, imp);
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

        let mut billing_accounts = Vec::new();
        for id in acct_keys {
            let cur = platform.billing.account_spend(id).as_micros();
            if self.acct.get(&id) != Some(&cur) {
                if let Some(old) = self.acct.insert(id, cur) {
                    self.digest ^= Slot::new(TAG_ACCT).u64(id.raw()).i64(old).done();
                }
                self.digest ^= Slot::new(TAG_ACCT).u64(id.raw()).i64(cur).done();
                billing_accounts.push((id, cur));
            }
        }
        let mut billing_campaigns = Vec::new();
        let mut billing_links = Vec::new();
        for id in camp_keys {
            let cur = platform.billing.campaign_spend(id).as_micros();
            if self.camp.get(&id) != Some(&cur) {
                if let Some(old) = self.camp.insert(id, cur) {
                    self.digest ^= Slot::new(TAG_CAMP).u64(id.raw()).i64(old).done();
                }
                self.digest ^= Slot::new(TAG_CAMP).u64(id.raw()).i64(cur).done();
                billing_campaigns.push((id, cur));
            }
            if !self.links.contains(&id) {
                if let Some(account) = platform.billing.campaign_account(id) {
                    self.links.insert(id);
                    self.digest ^= Slot::new(TAG_LINK).u64(id.raw()).u64(account.raw()).done();
                    billing_links.push((id, account));
                }
            }
        }
        let mut billing_ads = Vec::new();
        for id in ad_keys {
            let cur = platform.billing.ad_spend(id).as_micros();
            if self.ad.get(&id) != Some(&cur) {
                if let Some(old) = self.ad.insert(id, cur) {
                    self.digest ^= Slot::new(TAG_AD).u64(id.raw()).i64(old).done();
                }
                self.digest ^= Slot::new(TAG_AD).u64(id.raw()).i64(cur).done();
                billing_ads.push((id, cur));
            }
        }
        let mut freq = Vec::new();
        for key in freq_keys {
            let cur = platform.freq.count(key.0, key.1);
            if self.freq.get(&key) != Some(&cur) {
                if let Some(old) = self.freq.insert(key, cur) {
                    self.digest ^= Slot::new(TAG_FREQ)
                        .u64(key.0.raw())
                        .u64(key.1.raw())
                        .u32(old)
                        .done();
                }
                self.digest ^= Slot::new(TAG_FREQ)
                    .u64(key.0.raw())
                    .u64(key.1.raw())
                    .u32(cur)
                    .done();
                freq.push((key, cur));
            }
        }

        let pixels = platform.pixels.events();
        for (i, e) in pixels.iter().enumerate().skip(self.pixel_mark) {
            self.digest ^= hash_pixel(i as u64, e);
        }
        let pixel_base = self.pixel_mark as u64;
        let pixel_suffix = pixels[self.pixel_mark..].to_vec();
        self.pixel_mark = pixels.len();

        // Mutation-site dirty sets: audience membership adds and facet
        // rewrites.
        let mut audience_adds: Vec<(AudienceId, Vec<UserId>)> = Vec::new();
        for (aud, user) in platform.audiences.take_dirty() {
            self.digest ^= Slot::new(TAG_AUD).u64(aud.raw()).u64(user.raw()).done();
            match audience_adds.last_mut() {
                Some((a, members)) if *a == aud => members.push(user),
                _ => audience_adds.push((aud, vec![user])),
            }
        }
        let mut facets = Vec::new();
        for user in platform.profiles.take_dirty_facets() {
            let f = platform
                .profiles
                .get(user)
                .expect("dirty facet user exists")
                .facets
                .clone();
            let h = hash_facets(user, &f);
            if self.facets.get(&user) != Some(&h) {
                if let Some(old) = self.facets.insert(user, h) {
                    self.digest ^= old;
                }
                self.digest ^= h;
                facets.push((user, f));
            }
        }

        let symbols = platform.profiles.symbols().names();
        for (i, s) in symbols.iter().enumerate().skip(self.symbols_mark) {
            self.digest ^= Slot::new(TAG_SYM).u64(i as u64).str(s).done();
        }
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
                let h = hash_cursor(src.index, pos, &c);
                let slot = &mut self.shard_cursors[s][pos as usize];
                self.digest ^= *slot ^ h;
                *slot = h;
                sd.users.push((pos, c));
            }
            for (key, cur) in src.freq {
                if self.shard_freq[s].get(&key) != Some(&cur) {
                    if let Some(old) = self.shard_freq[s].insert(key, cur) {
                        self.digest ^= Slot::new(TAG_SFREQ)
                            .u64(src.index)
                            .u64(key.0.raw())
                            .u64(key.1.raw())
                            .u32(old)
                            .done();
                    }
                    self.digest ^= Slot::new(TAG_SFREQ)
                        .u64(src.index)
                        .u64(key.0.raw())
                        .u64(key.1.raw())
                        .u32(cur)
                        .done();
                    sd.freq.push((key, cur));
                }
            }
            for (user, suffix) in src.ext {
                if suffix.is_empty() {
                    continue;
                }
                let mark = self.shard_ext_marks[s].entry(user).or_insert(0);
                let base = *mark as u64;
                for (i, o) in suffix.iter().enumerate() {
                    self.digest ^= hash_observed(src.index, user, base + i as u64, o);
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
            facet_updates: platform.profiles.facet_updates(),
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
        // Simulate buggy bookkeeping: the frequency-cap bump never made it
        // into the frame, but the digest (maintained at the mutation
        // sites) covers the true state. Folding must fail loudly instead
        // of resuming with a stale cap.
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

    /// The richest sample of each frame kind, encoded: the checkpoint
    /// module's full sample and this module's delta.
    fn sample_frames() -> [Vec<u8>; 2] {
        [
            CheckpointFrame::Full(crate::checkpoint::tests::sample()).to_bytes(),
            CheckpointFrame::Delta(advanced().1).to_bytes(),
        ]
    }

    #[test]
    fn frame_layout_is_pinned_to_the_version() {
        // A layout change must bump CHECKPOINT_VERSION: update this pin
        // only together with the version.
        let [full, delta] = sample_frames().map(|b| adsim_types::hash::sha256(&b).fingerprint());
        assert_eq!(
            (CHECKPOINT_VERSION, full, delta),
            (6, 0xce99_1b92_7eb0_6d8a, 0x484c_8916_06fd_a0cb),
            "frame bytes changed: bump CHECKPOINT_VERSION and re-pin"
        );
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
