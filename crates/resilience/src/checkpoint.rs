//! Versioned tick-boundary engine checkpoints.
//!
//! A checkpoint captures everything a resumed run needs to continue
//! *byte-identically*: the engine-mutable platform slice
//! ([`PlatformState`]), every per-user browsing cursor and RNG state,
//! per-shard frequency caps and extension logs, the run counters, and
//! the supervisor's fault accounting. Host configuration (campaigns,
//! profiles, site registry, fault plan) is *not* captured — the driver
//! reconstructs it from its own deterministic setup, and the
//! [`ConfigEcho`] lets resume reject a mismatched host.
//!
//! Format: `b"TRCK"` magic, a `u32` version, a frame-kind byte (`0` =
//! full, `1` = delta), then one body layout for both kinds: a full
//! checkpoint is encoded as the [`crate::delta::DeltaFrame`] that takes
//! the empty state to it (see [`crate::delta`]). **Versioning rule:** any
//! layout change — field added, removed, reordered, or re-typed — bumps
//! [`CHECKPOINT_VERSION`]; the decoder rejects versions it does not know
//! rather than guessing (see DESIGN.md "Failure model & recovery").

use adplatform::profile::ProfileFacets;
use adplatform::PlatformState;
use adsim_types::{AdId, CampaignId, SimTime, UserId};
use websim::extension::ObservedAd;
use websim::ExtensionLog;

use crate::codec::{DecodeError, Reader, Writer};
use crate::delta::{encode_frame, genesis, CheckpointFrame};
use crate::fault::FaultReport;
use crate::ledger::LedgerHead;

/// Leading magic bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"TRCK";
/// Current checkpoint format version. Bump on any layout change.
///
/// * v1 — initial format.
/// * v2 — appends the profile store's facet sidecar (symbol table,
///   facet-update counter, per-user facets) to the platform section, so
///   a resumed run keeps assigning interner symbols in the same
///   first-intern order the original run would have.
/// * v3 — inserts a frame-kind byte after the version
///   ([`FRAME_FULL`]` = 0` or [`FRAME_DELTA`]` = 1`), introducing
///   incremental [`crate::delta::DeltaFrame`]s alongside full
///   checkpoints; per-user schedule cursors become consumed-event counts
///   over day-keyed session generation.
/// * v4 — appends the receipt ledger's committed chain heads
///   ([`crate::ledger::LedgerHead`]) after the shard section of full and
///   delta frames, and adds the targeting-spec digest to every encoded
///   impression — the two fields that let an auditor recompute receipt
///   chains from a checkpoint alone and refuse a resume that would
///   rewrite receipt history.
/// * v5 — one body for both frame kinds: a full frame is the delta body
///   that takes the empty state to the checkpoint, ending in its
///   [`crate::delta::state_digest`], which decoding verifies.
/// * v6 — same layout; per-user cursors index the schedules drawn from
///   the keyed `(user, day)` streams
///   ([`adsim_types::rng::keyed_stream`]), not the SHA-256-labelled
///   substreams v5 cursors counted events of.
pub const CHECKPOINT_VERSION: u32 = 6;

/// Frame-kind byte of a full checkpoint frame.
pub const FRAME_FULL: u8 = 0;
/// Frame-kind byte of an incremental delta frame ([`crate::delta`]).
pub const FRAME_DELTA: u8 = 1;

/// The engine configuration a checkpoint was taken under. Resume
/// validates this against the host's engine to catch driver mismatches
/// before they corrupt a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigEcho {
    /// Shard count.
    pub shards: u64,
    /// Master seed.
    pub seed: u64,
    /// Tick length in simulated ms.
    pub tick_ms: u64,
    /// Users simulated.
    pub users: u64,
    /// Session horizon in days.
    pub days: u64,
    /// `views_per_user_per_day`, as IEEE-754 bits (exact comparison).
    pub views_bits: u64,
}

/// Run counters. Defined here, below the engine in the dependency graph,
/// so a checkpoint carries the engine's report whole: the engine names
/// this struct `EngineReport`, a frame copies it at the checkpoint
/// instant, and a resume restores it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCounters {
    /// Users simulated.
    pub users: u64,
    /// Shards the run used.
    pub shards: u64,
    /// Ticks completed.
    pub ticks: u64,
    /// Page views processed.
    pub page_views: u64,
    /// Pixel fires applied.
    pub pixel_fires: u64,
    /// Opportunities auctioned.
    pub opportunities: u64,
    /// Impressions delivered.
    pub impressions: u64,
}

/// One user's frozen browsing cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserCursor {
    /// The user.
    pub user: UserId,
    /// Their private engine RNG state.
    pub rng: [u64; 4],
    /// Next unconsumed browsing-event index.
    pub cursor: u64,
    /// Next event sequence number.
    pub seq: u64,
    /// Next flight sequence number.
    pub fseq: u64,
}

/// One user's extension log at the checkpoint instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionSnapshot {
    /// The extension user.
    pub user: UserId,
    /// Captured observations, in capture order.
    pub observations: Vec<ObservedAd>,
}

/// One shard's frozen state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub index: u64,
    /// Per-user cursors, in shard user order.
    pub users: Vec<UserCursor>,
    /// Shard-local frequency-cap counts, sorted by `(ad, user)`.
    pub freq: Vec<((AdId, UserId), u32)>,
    /// Extension logs, in shard user order.
    pub extensions: Vec<ExtensionSnapshot>,
}

/// A complete tick-boundary checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCheckpoint {
    /// Configuration echo for resume validation.
    pub config: ConfigEcho,
    /// The simulated ms the next tick starts at.
    pub next_tick_start: u64,
    /// Run counters so far.
    pub report: ReportCounters,
    /// Campaigns already journaled as budget-exhausted.
    pub exhausted: Vec<CampaignId>,
    /// Supervisor fault accounting so far.
    pub faults: FaultReport,
    /// The engine-mutable platform slice.
    pub platform: PlatformState,
    /// Per-shard cursors, caps, and extension logs.
    pub shards: Vec<ShardCheckpoint>,
    /// Committed receipt-chain heads (empty when the run's ledger is
    /// disabled). Resume recomputes chains from `platform.impressions`
    /// and refuses to continue from a checkpoint whose heads disagree.
    pub ledger: Vec<LedgerHead>,
}

impl EngineCheckpoint {
    /// Serializes to the versioned binary format: a full frame whose body
    /// is the delta from the empty state to `self`.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_frame(FRAME_FULL, &genesis(self))
    }

    /// Deserializes a full checkpoint, rejecting bad magic, unknown
    /// versions, delta frames (decode those via [`CheckpointFrame`]),
    /// truncation, trailing bytes, and any body the fold's `apply`
    /// refuses, digest mismatch included.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        match CheckpointFrame::from_bytes(bytes)? {
            CheckpointFrame::Full(cp) => Ok(cp),
            CheckpointFrame::Delta(_) => Err(DecodeError::Invalid(
                "delta frame where full checkpoint expected",
            )),
        }
    }

    /// Rebuilds each shard's [`ExtensionLog`] map entries.
    pub fn extension_logs(shard: &ShardCheckpoint) -> Vec<(UserId, ExtensionLog)> {
        shard
            .extensions
            .iter()
            .map(|e| {
                (
                    e.user,
                    ExtensionLog::from_parts(Some(e.user), e.observations.clone()),
                )
            })
            .collect()
    }
}

/// Encodes one user's facets: bitset words, geo symbols, sorted
/// visited-ZIP symbols.
pub(crate) fn encode_profile_facets(w: &mut Writer, facets: &ProfileFacets) {
    let words = facets.attr_words();
    w.put_u32(words.len() as u32);
    for word in words {
        w.put_u64(*word);
    }
    w.put_u32(facets.state());
    w.put_u32(facets.zip());
    let visited = facets.visited_zip_symbols();
    w.put_u32(visited.len() as u32);
    for z in visited {
        w.put_u32(*z);
    }
}

/// Strict decoder counterpart of [`encode_profile_facets`]: every symbol
/// reference must fall below `symbol_count`, and the visited-ZIP list
/// must be strictly sorted.
pub(crate) fn decode_profile_facets(
    r: &mut Reader<'_>,
    symbol_count: u32,
) -> Result<ProfileFacets, DecodeError> {
    let check_symbol = |sym: u32| {
        if sym >= symbol_count {
            Err(DecodeError::Invalid("facet symbol out of range"))
        } else {
            Ok(sym)
        }
    };
    let w = r.get_u32()?;
    let attr_words = (0..w)
        .map(|_| r.get_u64())
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let state_sym = check_symbol(r.get_u32()?)?;
    let zip_sym = check_symbol(r.get_u32()?)?;
    let v = r.get_u32()?;
    let visited = (0..v)
        .map(|_| check_symbol(r.get_u32()?))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    if !visited.windows(2).all(|pair| pair[0] < pair[1]) {
        return Err(DecodeError::Invalid("visited-ZIP symbols not sorted"));
    }
    Ok(ProfileFacets::from_parts(
        attr_words, state_sym, zip_sym, visited,
    ))
}

/// Encodes one captured extension observation.
pub(crate) fn encode_observed(w: &mut Writer, o: &ObservedAd) {
    w.put_u64(o.ad.raw());
    w.put_u64(o.at.0);
    w.put_str(&o.creative.headline);
    w.put_str(&o.creative.body);
    w.put_bool(o.creative.image.is_some());
    if let Some(image) = &o.creative.image {
        w.put_bytes(image);
    }
    w.put_bool(o.creative.landing_url.is_some());
    if let Some(url) = &o.creative.landing_url {
        w.put_str(url);
    }
}

/// Decoder counterpart of [`encode_observed`].
pub(crate) fn decode_observed(r: &mut Reader<'_>) -> Result<ObservedAd, DecodeError> {
    let ad = AdId(r.get_u64()?);
    let at = SimTime(r.get_u64()?);
    let headline = r.get_str()?;
    let body = r.get_str()?;
    let image = if r.get_bool()? {
        Some(r.get_bytes()?)
    } else {
        None
    };
    let landing_url = if r.get_bool()? {
        Some(r.get_str()?)
    } else {
        None
    };
    Ok(ObservedAd {
        ad,
        at,
        creative: adplatform::AdCreative {
            headline,
            body,
            image,
            landing_url,
        },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::LostWork;
    use adplatform::billing::LedgerState;
    use adplatform::delivery::DeliveryStats;
    use adplatform::pixel::PixelEvent;
    use adplatform::profile::FacetsState;
    use adplatform::reporting::Impression;
    use adplatform::AdCreative;
    use adsim_types::{AccountId, AudienceId, Money, PixelId};

    pub(crate) fn sample() -> EngineCheckpoint {
        EngineCheckpoint {
            config: ConfigEcho {
                shards: 2,
                seed: 42,
                tick_ms: 1000,
                users: 3,
                days: 5,
                views_bits: 6.0f64.to_bits(),
            },
            next_tick_start: 2000,
            report: ReportCounters {
                users: 3,
                shards: 2,
                ticks: 2,
                page_views: 17,
                pixel_fires: 4,
                opportunities: 30,
                impressions: 9,
            },
            exhausted: vec![CampaignId(3)],
            faults: FaultReport {
                injected: 2,
                recovered: 1,
                unrecoverable: 1,
                lost: vec![LostWork {
                    tick: 1,
                    shard: 0,
                    page_views: 5,
                    pixel_fires: 1,
                    opportunities: 10,
                }],
            },
            platform: PlatformState {
                clock_now: SimTime(2000),
                billing: LedgerState {
                    account_spend: vec![(AccountId(1), Money::micros(5_000))],
                    campaign_spend: vec![(CampaignId(1), Money::micros(5_000))],
                    ad_spend: vec![(AdId(1), Money::micros(5_000))],
                    campaign_account: vec![(CampaignId(1), AccountId(1))],
                    small_spend_waiver: Money::cents(1),
                    impressions_charged: 9,
                    charged_micros: 5_000,
                },
                freq: vec![((AdId(1), UserId(2)), 3)],
                impressions: vec![Impression {
                    ad: AdId(1),
                    campaign: CampaignId(1),
                    account: AccountId(1),
                    user: UserId(2),
                    at: SimTime(900),
                    price: Money::micros(2_000),
                    spec_digest: 0xFEED,
                }],
                stats: DeliveryStats {
                    opportunities: 30,
                    won: 9,
                    lost_to_background: 11,
                    unfilled: 10,
                },
                pixel_events: vec![PixelEvent {
                    pixel: PixelId(1),
                    user: UserId(2),
                    at: SimTime(500),
                }],
                audience_members: vec![(AudienceId(1), vec![UserId(2), UserId(3)])],
                facets: FacetsState {
                    symbols: vec!["Ohio".into(), "43004".into(), "10001".into()],
                    facet_updates: 6,
                    users: vec![(
                        UserId(2),
                        ProfileFacets::from_parts(vec![0b1010, 0], 0, 1, vec![2]),
                    )],
                },
            },
            shards: vec![ShardCheckpoint {
                index: 0,
                users: vec![UserCursor {
                    user: UserId(2),
                    rng: [1, 2, 3, 4],
                    cursor: 7,
                    seq: 12,
                    fseq: 3,
                }],
                freq: vec![((AdId(1), UserId(2)), 3)],
                extensions: vec![ExtensionSnapshot {
                    user: UserId(2),
                    observations: vec![ObservedAd {
                        ad: AdId(1),
                        creative: AdCreative {
                            headline: "h".into(),
                            body: "b".into(),
                            image: Some(vec![9, 8]),
                            landing_url: None,
                        },
                        at: SimTime(900),
                    }],
                }],
            }],
            ledger: vec![LedgerHead {
                chain: 0,
                head: 0xDEAD_BEEF,
                count: 1,
            }],
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let decoded = EngineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, cp);
        // Canonical: re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample().to_bytes();
        assert_eq!(
            EngineCheckpoint::from_bytes(&bytes[..10]).unwrap_err(),
            DecodeError::Truncated
        );
        // Corrupt the version field (bytes 8..12 after the 4+4 magic frame):
        // a v4 frame, whose full body predates the shared one, a v5 frame,
        // whose cursors count events of the SHA-256-seeded schedules, and
        // a version no release wrote are all refused.
        for version in [4, 5, 0xFF] {
            bytes[8] = version;
            assert_eq!(
                EngineCheckpoint::from_bytes(&bytes).unwrap_err(),
                DecodeError::UnsupportedVersion(u32::from(version))
            );
        }
        let garbage = b"not a checkpoint at all.........";
        assert!(matches!(
            EngineCheckpoint::from_bytes(garbage).unwrap_err(),
            DecodeError::BadMagic | DecodeError::Truncated | DecodeError::Invalid(_)
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            EngineCheckpoint::from_bytes(&bytes).unwrap_err(),
            DecodeError::Invalid("trailing bytes")
        );
    }

    #[test]
    fn malformed_facet_sections_are_rejected() {
        // A duplicate symbol-table entry cannot come from a well-formed
        // interner; the strict decoder refuses rather than building a
        // table whose equality invariant is broken.
        let mut cp = sample();
        cp.platform.facets.symbols = vec!["Ohio".into(), "Ohio".into(), "x".into()];
        assert_eq!(
            EngineCheckpoint::from_bytes(&cp.to_bytes()).unwrap_err(),
            DecodeError::Invalid("duplicate symbol-table entry")
        );

        // A facet referencing a symbol past the table is equally invalid.
        let mut cp = sample();
        cp.platform.facets.users =
            vec![(UserId(2), ProfileFacets::from_parts(vec![], 99, 0, vec![]))];
        assert_eq!(
            EngineCheckpoint::from_bytes(&cp.to_bytes()).unwrap_err(),
            DecodeError::Invalid("facet symbol out of range")
        );

        // Visited-ZIP symbols are maintained sorted; an unsorted list
        // would silently break the evaluator's binary search.
        let mut cp = sample();
        cp.platform.facets.users = vec![(
            UserId(2),
            ProfileFacets::from_parts(vec![], 0, 1, vec![2, 1]),
        )];
        assert_eq!(
            EngineCheckpoint::from_bytes(&cp.to_bytes()).unwrap_err(),
            DecodeError::Invalid("visited-ZIP symbols not sorted")
        );
    }

    #[test]
    fn extension_logs_rebuild() {
        let cp = sample();
        let logs = EngineCheckpoint::extension_logs(&cp.shards[0]);
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].0, UserId(2));
        assert_eq!(logs[0].1.user, Some(UserId(2)));
        assert_eq!(logs[0].1.observations().len(), 1);
    }
}
