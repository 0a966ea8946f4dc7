//! The per-page-view decide, written once for both run paths.
//!
//! A batch shard ([`crate::ShardState`]) walks its users' browsing
//! schedules tick by tick; a serving worker answers requests one at a
//! time. Both decide a page view with [`ViewDecider::decide_view`]:
//! pixels first (each advancing the user's `seq`), then one decide per ad
//! slot against the tick's frozen budget, from a stage-1 [`MatchSet`]
//! rebuilt only when stale. A win bumps the local frequency cap at once,
//! logs the ad in the user's extension and queues an `Impression` event
//! for the tick's fold. A sampled trace gets the view's decision events
//! here too. Serving ≡ batch holds because both paths run this one piece
//! of code on the same owned state.
//!
//! What differs between the paths stays with the caller, which follows
//! every slot through a [`SlotStep`] hook: the engine's census tally,
//! histograms, sampled phase timers and flight journal; the worker's span
//! wall times and response ad list.

use std::collections::BTreeMap;

use adplatform::auction::AuctionOutcome;
use adplatform::billing::BudgetView;
use adplatform::delivery::{
    CandidateVerdict, DeliveryScratch, DeliveryStats, FrequencyCaps, MatchSet, TracedDecision,
};
use adplatform::Platform;
use adsim_types::rng::keyed_stream;
use adsim_types::{AdId, SimTime, UserId};
use rand::rngs::StdRng;
use treads_telemetry::{RequestTrace, TraceEventKind};
use websim::{ExtensionLog, Site};

use crate::event::ShardEvent;

/// Domain constant of the per-user auction streams.
const AUCTION_DOMAIN: u64 = 0x454e_475f_5553_4552; // "ENG_USER"

/// `user`'s private auction RNG at the start of a run under the master
/// `seed`: the stream keyed on the user id
/// ([`adsim_types::rng::keyed_stream`]). The batch engine's shards and the
/// serving front end's workers both start each user from it, so the two
/// paths draw identical auctions.
pub fn auction_rng(seed: u64, user: UserId) -> StdRng {
    keyed_stream(seed, AUCTION_DOMAIN, &[user.raw()])
}

/// The label of an auction outcome in flight events and traces.
pub(crate) fn outcome_label(outcome: &AuctionOutcome) -> &'static str {
    match outcome {
        AuctionOutcome::Won { .. } => "won",
        AuctionOutcome::LostToBackground => "lost_to_background",
        AuctionOutcome::Unfilled => "unfilled",
    }
}

/// The per-user state a decide advances, held by whichever shard or
/// serving worker owns the user.
#[derive(Clone)]
pub struct Viewer {
    /// Auction randomness: [`auction_rng`] of the master seed.
    pub(crate) rng: StdRng,
    /// Per-user event counter; becomes the `user_seq` merge-key component.
    pub seq: u64,
}

impl Viewer {
    /// `user`'s state at the start of a run under the master `seed`.
    pub fn new(seed: u64, user: UserId) -> Self {
        Self {
            rng: auction_rng(seed, user),
            seq: 0,
        }
    }
}

/// One page view: who browsed, when, and on which site.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'s> {
    /// Simulated instant of the view.
    pub at: SimTime,
    /// The browsing user.
    pub user: UserId,
    /// The site: its pixels fire and its ad slots are decided.
    pub site: &'s Site,
}

/// One step of a slot's decide, reported to the caller's hook in this
/// order; `Won` and `Delivered` only for a won slot.
pub enum SlotStep<'a> {
    /// The slot's opportunity is counted; its decide (with the stage-1
    /// rebuild, when stale) comes next.
    Start,
    /// The slot is decided. `trace` is the view's sampled trace and the
    /// slot's `decide_slot` span, before the slot's events are added.
    Decided {
        /// The decision, its eligibility census and its auction trace.
        decision: &'a TracedDecision,
        /// The sampled trace and the slot's span, if any.
        trace: Option<(&'a mut RequestTrace, usize)>,
    },
    /// The slot was won: the `wins`-th win counted into the caller's
    /// stats. Its delivery comes next.
    Won {
        /// Won slots counted into the stats so far, this one included.
        wins: u64,
    },
    /// The win is delivered: the impression of `ad` is queued.
    Delivered {
        /// The winning ad.
        ad: AdId,
        /// Whether the user's extension logged the ad.
        observed: bool,
    },
}

/// What a batch shard or a serving worker owns to decide its users' page
/// views: their frequency caps and extension logs, plus reusable working
/// memory.
#[derive(Clone)]
pub struct ViewDecider {
    /// Per-`(ad, user)` impression counters of the owner's users. A win
    /// bumps its counter at once, so later slots of the same tick see it;
    /// the platform's global counter catches up at the fold.
    pub freq: FrequencyCaps,
    /// The extension logs of the owner's users who run the Treads
    /// extension.
    pub extensions: BTreeMap<UserId, ExtensionLog>,
    /// Stage 1 of the user being decided (see [`Self::decide_view`]'s
    /// `matched`). Pure scratch, like `scratch`: it carries no state
    /// between users or ticks and is absent from checkpoints.
    match_set: MatchSet,
    /// Reusable per-slot buffers, warm across every opportunity the owner
    /// ever decides; cleared before use.
    scratch: DeliveryScratch,
}

impl ViewDecider {
    /// A decider for users capped at `frequency_cap` impressions per ad,
    /// with the given extension logs.
    pub fn new(frequency_cap: u32, extensions: BTreeMap<UserId, ExtensionLog>) -> Self {
        Self {
            freq: FrequencyCaps::new(frequency_cap),
            extensions,
            match_set: MatchSet::default(),
            scratch: DeliveryScratch::new(),
        }
    }

    /// Decides one page view of `view.user`, whose decide state is
    /// `viewer`, against `platform` and the tick's frozen `budget`.
    ///
    /// The site's pixels fire first, then each ad slot is decided.
    /// `matched` says whether the decider's match set already holds the
    /// user's stage 1 against this platform and budget. If not, the first
    /// slot rebuilds it and sets `matched`. The caller scopes the flag:
    /// an engine shard keeps it for a user's tick, a serving worker for
    /// one request.
    ///
    /// Pixel fires and won impressions go to `events`; each slot's outcome
    /// is counted into `stats`. With a sampled `trace` (and its root
    /// span) the view's decision events are added to it: a `PixelFired`
    /// per pixel on the root, and per slot a `decide_slot` span carrying
    /// the census, the candidate verdicts, the auction and any billing.
    /// `on_slot` follows every slot step by step ([`SlotStep`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn decide_view<B: BudgetView>(
        &mut self,
        platform: &Platform,
        budget: &B,
        view: PageView<'_>,
        viewer: &mut Viewer,
        matched: &mut bool,
        events: &mut Vec<ShardEvent>,
        stats: &mut DeliveryStats,
        trace: Option<(&mut RequestTrace, usize)>,
        mut on_slot: impl FnMut(SlotStep<'_>),
    ) {
        let PageView { at, user, site } = view;
        let (mut trace, root) = match trace {
            Some((t, root)) => (Some(t), root),
            None => (None, 0),
        };
        for &pixel in &site.pixels {
            if let Some(t) = trace.as_deref_mut() {
                t.event(root, TraceEventKind::PixelFired { pixel: pixel.raw() });
            }
            events.push(ShardEvent::PixelFire {
                at,
                user,
                user_seq: viewer.seq,
                pixel,
            });
            viewer.seq += 1;
        }
        for slot in 0..u32::from(site.ad_slots_per_view) {
            stats.opportunities += 1;
            on_slot(SlotStep::Start);
            if !*matched {
                platform
                    .match_set_into(user, budget, &mut self.match_set)
                    .expect("a decided user is registered on the platform");
                *matched = true;
            }
            let traced = platform.decide_slot(
                &self.match_set,
                at,
                &self.freq,
                &mut viewer.rng,
                &mut self.scratch,
            );
            let span = trace
                .as_deref_mut()
                .map(|t| t.span("decide_slot", Some(root), at));
            on_slot(SlotStep::Decided {
                decision: &traced,
                trace: trace.as_deref_mut().zip(span),
            });
            if let (Some(t), Some(span)) = (trace.as_deref_mut(), span) {
                // Per-candidate verdicts are re-derived (pure, RNG-free)
                // only for sampled views, against the same pre-bump
                // frequency state the decide saw.
                let verdicts = platform
                    .candidate_verdicts(user, budget, &self.freq)
                    .expect("a decided user is registered on the platform");
                trace_slot(t, span, slot, &traced, verdicts);
            }
            match traced.decision.outcome {
                AuctionOutcome::Won { .. } => {
                    stats.won += 1;
                    on_slot(SlotStep::Won { wins: stats.won });
                    let pending = traced
                        .decision
                        .pending
                        .expect("a win carries an impression");
                    self.freq.bump(pending.ad, user);
                    let log = self.extensions.get_mut(&user);
                    let observed = log.is_some();
                    if let Some(log) = log {
                        let creative = platform
                            .campaigns
                            .ad(pending.ad)
                            .expect("won ad exists")
                            .creative
                            .clone();
                        log.observe(pending.ad, creative, at);
                    }
                    events.push(ShardEvent::Impression {
                        at,
                        user,
                        user_seq: viewer.seq,
                        pending,
                    });
                    viewer.seq += 1;
                    on_slot(SlotStep::Delivered {
                        ad: pending.ad,
                        observed,
                    });
                }
                AuctionOutcome::LostToBackground => stats.lost_to_background += 1,
                AuctionOutcome::Unfilled => stats.unfilled += 1,
            }
        }
    }
}

/// Adds slot `slot`'s decision events to `span` of `t`: its census, the
/// per-candidate `verdicts`, the auction and, on a win, the billing.
fn trace_slot(
    t: &mut RequestTrace,
    span: usize,
    slot: u32,
    traced: &TracedDecision,
    verdicts: Vec<CandidateVerdict>,
) {
    let b = traced.breakdown;
    t.event(
        span,
        TraceEventKind::Slot {
            slot,
            considered: b.considered,
            index_pruned: b.index_pruned,
            not_servable: b.not_servable,
            suspended: b.suspended,
            over_budget: b.over_budget,
            frequency_capped: b.frequency_capped,
            targeting_mismatch: b.targeting_mismatch,
            eligible: b.eligible,
            compiled_evals: b.compiled_evals,
        },
    );
    for v in verdicts {
        t.event(
            span,
            TraceEventKind::Candidate {
                slot,
                ad: v.ad.raw(),
                verdict: v.verdict,
                bid_cpm_micros: v.bid_cpm.as_micros(),
            },
        );
    }
    let (winner, clearing) = match traced.decision.outcome {
        AuctionOutcome::Won { ad, clearing_cpm } => (ad.raw(), clearing_cpm.as_micros()),
        AuctionOutcome::LostToBackground | AuctionOutcome::Unfilled => (0, 0),
    };
    t.event(
        span,
        TraceEventKind::Auction {
            slot,
            outcome: outcome_label(&traced.decision.outcome),
            winner,
            clearing_cpm_micros: clearing,
            advertiser_bids: traced.auction.advertiser_bids,
            background_competitors: traced.auction.background_competitors,
            best_background_cpm_micros: traced.auction.best_background_cpm.as_micros(),
        },
    );
    if let Some(p) = traced.decision.pending.as_ref() {
        t.event(
            span,
            TraceEventKind::Billed {
                slot,
                ad: p.ad.raw(),
                price_micros: p.clearing_cpm.as_micros() / 1000,
            },
        );
    }
}
