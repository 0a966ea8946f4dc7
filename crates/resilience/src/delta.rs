//! Incremental (delta) checkpoint frames — introduced in TRCK v3 (v4
//! adds the receipt-ledger chain heads, carried whole by every frame).
//!
//! A full [`EngineCheckpoint`] re-encodes the entire mutable state every
//! time it is taken; at population scale that clone-and-encode dominates
//! the tick. A [`DeltaFrame`] instead encodes only the slots that changed
//! since the previous frame, against a periodic full *base* frame:
//!
//! * **append-only journals** (impression log, pixel log, interner symbol
//!   table, per-user extension logs) are carried as a base length plus
//!   the new suffix — the decoder rejects a frame whose base length does
//!   not match the state it is applied to;
//! * **keyed maps** (billing spend, frequency caps, per-user facets,
//!   per-user shard cursors) are carried as upserts of the dirty keys,
//!   discovered either at the mutation site ([`adplatform`]'s audience
//!   and profile stores record dirty keys as they mutate) or *derived*
//!   from the impression-log suffix (every impression names the exact
//!   account/campaign/ad/frequency slots it touched, so the hot path
//!   pays nothing);
//! * **scalars** (clock, run counters, fault accounting, billing totals)
//!   are tiny and carried whole.
//!
//! Every delta frame ends with a **state digest**: a set-homomorphic
//! XOR-fold over per-slot hashes of the *entire* post-frame state,
//! maintained incrementally by the [`DeltaTracker`] as slots change.
//! [`fold_frames`] recomputes the digest from the folded state after
//! applying each delta and rejects the chain on any mismatch — a dirty
//! set that failed to mention a mutated slot fails resume loudly
//! ([`DecodeError::Invalid`]`("state digest mismatch")`) instead of
//! resuming silently wrong.
//!
//! Chain discipline: a chain starts at a full frame; each delta names its
//! parent by tick count ([`DeltaFrame::parent_ticks`]) and echoes the run
//! configuration, so frames cannot be applied out of order or across
//! runs. Folding `base + d₁ + … + dₙ` yields an [`EngineCheckpoint`]
//! byte-identical to the full checkpoint the engine would have taken at
//! frame `n`.
//!
//! Frames share the full checkpoint's TRCK framing and round-trip
//! canonically:
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
use adsim_types::{AccountId, AdId, AudienceId, CampaignId, SimTime, UserId};
use websim::extension::ObservedAd;

use crate::checkpoint::{
    decode_full_body, decode_observed, decode_profile_facets, encode_observed,
    encode_profile_facets, ConfigEcho, EngineCheckpoint, ReportCounters, ShardCheckpoint,
    UserCursor, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FRAME_DELTA, FRAME_FULL,
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
/// incrementally, and [`fold_frames`] recomputes it after each applied
/// delta to verify the dirty bookkeeping missed nothing.
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
            CheckpointFrame::Delta(d) => {
                let mut w = Writer::new();
                w.put_bytes(&CHECKPOINT_MAGIC);
                w.put_u32(CHECKPOINT_VERSION);
                w.put_u8(FRAME_DELTA);
                encode_delta_body(&mut w, d);
                w.into_bytes()
            }
        }
    }

    /// Deserializes either frame kind, with the same strictness as
    /// [`EngineCheckpoint::from_bytes`] (bad magic, unknown version,
    /// truncation, and trailing bytes all rejected).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.get_bytes()? != CHECKPOINT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let frame = match r.get_u8()? {
            FRAME_FULL => CheckpointFrame::Full(decode_full_body(&mut r)?),
            FRAME_DELTA => CheckpointFrame::Delta(decode_delta_body(&mut r)?),
            _ => return Err(DecodeError::Invalid("frame kind byte")),
        };
        r.finish()?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Delta frame codec
// ---------------------------------------------------------------------------

fn encode_delta_body(w: &mut Writer, d: &DeltaFrame) {
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

fn decode_delta_body(r: &mut Reader<'_>) -> Result<DeltaFrame, DecodeError> {
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
                price: adsim_types::Money::micros(r.get_i64()?),
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

fn upsert<K: Ord + Copy, V>(vec: &mut Vec<(K, V)>, key: K, value: V) {
    match vec.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(i) => vec[i].1 = value,
        Err(i) => vec.insert(i, (key, value)),
    }
}

/// Applies one delta frame to a full checkpoint, verifying the chain
/// discipline (config echo, parent tick, journal base lengths) and the
/// post-frame [`state_digest`].
fn apply_delta(cur: &mut EngineCheckpoint, d: &DeltaFrame) -> Result<(), DecodeError> {
    if d.config != cur.config {
        return Err(DecodeError::Invalid("delta config mismatch"));
    }
    if d.parent_ticks != cur.report.ticks {
        return Err(DecodeError::Invalid("delta parent tick mismatch"));
    }
    cur.next_tick_start = d.next_tick_start;
    cur.report = d.report;
    cur.exhausted = d.exhausted.clone();
    cur.faults = d.faults.clone();
    cur.ledger = d.ledger.clone();

    let p = &mut cur.platform;
    p.clock_now = SimTime(d.clock_now);
    p.stats = d.stats;
    p.billing.small_spend_waiver = adsim_types::Money::micros(d.small_spend_waiver_micros);
    p.billing.impressions_charged = d.impressions_charged;
    p.billing.charged_micros = d.charged_micros;
    for (id, m) in &d.billing_accounts {
        upsert(
            &mut p.billing.account_spend,
            *id,
            adsim_types::Money::micros(*m),
        );
    }
    for (id, m) in &d.billing_campaigns {
        upsert(
            &mut p.billing.campaign_spend,
            *id,
            adsim_types::Money::micros(*m),
        );
    }
    for (id, m) in &d.billing_ads {
        upsert(&mut p.billing.ad_spend, *id, adsim_types::Money::micros(*m));
    }
    for (c, a) in &d.billing_links {
        upsert(&mut p.billing.campaign_account, *c, *a);
    }
    for ((ad, user), count) in &d.freq {
        upsert(&mut p.freq, (*ad, *user), *count);
    }

    if d.impressions_base != p.impressions.len() as u64 {
        return Err(DecodeError::Invalid("impression log base mismatch"));
    }
    p.impressions.extend(d.impressions_suffix.iter().cloned());
    if d.pixel_base != p.pixel_events.len() as u64 {
        return Err(DecodeError::Invalid("pixel log base mismatch"));
    }
    p.pixel_events.extend(d.pixel_suffix.iter().cloned());

    for (aud, adds) in &d.audience_adds {
        let members = match p.audience_members.binary_search_by_key(aud, |(a, _)| *a) {
            Ok(i) => &mut p.audience_members[i].1,
            Err(_) => return Err(DecodeError::Invalid("audience add for unknown audience")),
        };
        for m in adds {
            match members.binary_search(m) {
                Ok(_) => return Err(DecodeError::Invalid("duplicate audience member add")),
                Err(i) => members.insert(i, *m),
            }
        }
    }

    p.facets.facet_updates = d.facet_updates;
    if d.symbols_base != p.facets.symbols.len() as u64 {
        return Err(DecodeError::Invalid("symbol table base mismatch"));
    }
    p.facets.symbols.extend(d.symbols_suffix.iter().cloned());
    for (user, facets) in &d.facets {
        upsert(&mut p.facets.users, *user, facets.clone());
    }

    for sd in &d.shards {
        let shard: &mut ShardCheckpoint = cur
            .shards
            .iter_mut()
            .find(|s| s.index == sd.index)
            .ok_or(DecodeError::Invalid("shard delta for unknown shard"))?;
        for (pos, c) in &sd.users {
            let slot = shard
                .users
                .get_mut(*pos as usize)
                .ok_or(DecodeError::Invalid("cursor position out of range"))?;
            if slot.user != c.user {
                return Err(DecodeError::Invalid("cursor user mismatch"));
            }
            *slot = c.clone();
        }
        for ((ad, user), count) in &sd.freq {
            upsert(&mut shard.freq, (*ad, *user), *count);
        }
        for (user, base, suffix) in &sd.ext {
            let log = shard
                .extensions
                .iter_mut()
                .find(|e| e.user == *user)
                .ok_or(DecodeError::Invalid("extension delta for unknown user"))?;
            if *base != log.observations.len() as u64 {
                return Err(DecodeError::Invalid("extension log base mismatch"));
            }
            log.observations.extend(suffix.iter().cloned());
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
/// configuration, journal suffixes must append at exactly the length the
/// folded state has reached, and after each application the folded
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
            CheckpointFrame::Delta(d) => apply_delta(&mut cur, d)?,
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
    use crate::checkpoint::ExtensionSnapshot;
    use adplatform::billing::LedgerState;
    use adplatform::delivery::DeliveryStats;
    use adplatform::profile::FacetsState;
    use adplatform::PlatformState;
    use adsim_types::{Money, PixelId};
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

    mod strict_decode {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Every strict truncation of a valid delta frame is a typed
            /// [`DecodeError`], never a panic.
            #[test]
            fn delta_truncations_yield_typed_errors(cut in 0usize..1 << 20) {
                let bytes = CheckpointFrame::Delta(advanced().1).to_bytes();
                let cut = cut % bytes.len();
                prop_assert!(
                    CheckpointFrame::from_bytes(&bytes[..cut]).is_err(),
                    "a {cut}-byte prefix of a {}-byte frame decoded",
                    bytes.len()
                );
            }

            /// Any single-bit corruption of a delta frame either fails
            /// with a typed [`DecodeError`] or decodes to a frame that
            /// re-encodes to exactly the corrupted bytes — no
            /// non-canonical acceptance, no panic.
            #[test]
            fn delta_bit_flips_never_panic_and_stay_canonical(
                pos in 0usize..1 << 20,
                bit in 0u32..8,
            ) {
                let mut bytes = CheckpointFrame::Delta(advanced().1).to_bytes();
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
