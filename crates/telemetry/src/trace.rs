//! Deterministic causal tracing with decision provenance.
//!
//! A [`RequestTrace`] follows one impression opportunity from admission
//! through candidate selection, auction, and billing, as a small tree of
//! [`TraceSpan`]s with structured [`TraceEvent`]s attached. The design
//! constraints (DESIGN.md §13):
//!
//! * **Reproducible ids.** A [`TraceId`] is a pure hash of
//!   `(seed, at, user, user_seq)` — the same canonical key the engine's
//!   merge orders by — so the id of a request is identical across shard
//!   counts, across batch vs. serving runs, and across reruns. No id is
//!   ever drawn from an RNG.
//! * **Deterministic, tail-based sampling.** Healthy requests are
//!   head-sampled by a seeded hash of the trace id
//!   ([`TraceConfig::sampled`]); shed, fault-degraded, merge-conflict,
//!   and SLO-breach-window requests are *always* retained
//!   ([`RequestTrace::always`]). Sampling consumes no randomness, so a
//!   traced run is byte-identical to an untraced one.
//! * **Compile-out.** All recording funnels through
//!   [`crate::Telemetry::offer_trace`], which is gated on the `record`
//!   feature exactly like metrics and the flight recorder.
//!
//! Exporters: [`traces_to_json`] (a machine-readable dump) and
//! [`traces_to_chrome`] (Chrome trace-event JSON, loadable in Perfetto /
//! `chrome://tracing`).

use adsim_types::hash::mix64;
use adsim_types::SimTime;

/// Default retained-trace capacity of a [`TraceCollector`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The `user_seq` stand-in used for traces of requests that never reached
/// a per-user sequence counter (front-end sheds, unknown users, degraded
/// shard ticks). Real events can never reach this value in practice, so
/// shed-trace ids never collide with served-request ids.
pub const SHED_SEQ: u64 = u64::MAX;

/// A causal trace identifier: a pure hash of the request's canonical key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Id for a request keyed by the engine's canonical
    /// `(at, user, user_seq)` tuple, where `user_seq` is the user's
    /// sequence counter *at page-view start* (before any events the page
    /// view itself appends). Both the batch shard loop and the serving
    /// worker observe that value identically, which is what makes the id
    /// shard-count-invariant and batch/serving-invariant.
    pub fn from_key(seed: u64, at: SimTime, user: u64, user_seq: u64) -> Self {
        Self(mix64(
            seed ^ mix64(at.0 ^ mix64(user ^ mix64(user_seq ^ 0x7261_6365_5f69_6421))),
        ))
    }

    /// Id for a request shed at the front end by global call index
    /// (brownouts reject by submission index, which is shard-count
    /// -invariant by construction).
    pub fn from_call(seed: u64, call: u64) -> Self {
        Self(mix64(seed ^ mix64(call ^ 0x7368_6564_5f63_616c)))
    }

    /// The canonical 16-digit lowercase hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Tracing knobs. Lives on [`crate::Telemetry`] (and on
/// `ServingConfig` in the serving crate, which copies it over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false no trace is ever built or retained.
    pub enabled: bool,
    /// Head-sampling rate for healthy requests, in per-mille (10 = 1%,
    /// 1000 = keep everything). Tail cases (sheds, faults, SLO breaches)
    /// ignore this and are always retained.
    pub sample_per_mille: u32,
    /// Maximum retained traces; beyond it, would-be-retained traces are
    /// counted as dropped (oldest-first retention, newest dropped).
    pub capacity: usize,
}

impl Default for TraceConfig {
    /// Enabled at 1% head sampling with the default capacity.
    fn default() -> Self {
        Self {
            enabled: true,
            sample_per_mille: 10,
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// Tracing off: nothing is built, sampled, or retained.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            sample_per_mille: 0,
            capacity: 0,
        }
    }

    /// Head-sample everything (100%); tail retention unchanged.
    pub fn full() -> Self {
        Self {
            sample_per_mille: 1000,
            ..Self::default()
        }
    }

    /// The deterministic head-sampling decision for `id`: a seeded hash
    /// of the id against the per-mille rate. No RNG is consulted, so the
    /// decision is identical across shard counts and reruns.
    pub fn sampled(&self, id: TraceId) -> bool {
        self.enabled
            && mix64(id.0 ^ 0x7365_6564_5f73_6d70) % 1000 < u64::from(self.sample_per_mille)
    }
}

/// One node of a trace's span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name (`request`, `decide`, `apply`, …).
    pub name: &'static str,
    /// Index of the parent span in [`RequestTrace::spans`]; `None` for
    /// the root.
    pub parent: Option<usize>,
    /// Simulated (tick-clock) instant the stage ran at.
    pub at: SimTime,
    /// Wall-clock offset of the span start from the request's arrival,
    /// in nanoseconds. Zero on the batch path (which has no per-request
    /// arrival instant). Excluded from all determinism claims.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds. Zero when not measured.
    /// Excluded from all determinism claims.
    pub dur_ns: u64,
}

/// A structured decision event attached to one span of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the owning span in [`RequestTrace::spans`].
    pub span: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The decision-provenance vocabulary. Payloads are plain integers and
/// static labels — the telemetry crate sits below the ad platform, so the
/// adapters in `adplatform`/`serving` flatten their richer types into
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The front end admitted the request and routed it to a shard.
    Admitted {
        /// The owning shard worker.
        shard: u32,
    },
    /// The request was shed instead of served.
    Shed {
        /// Reject reason label (`overload`, `brownout`, `shard_failure`,
        /// `unknown_user`, `after_horizon`).
        reason: &'static str,
    },
    /// The request (or its whole shard tick) was degraded by an injected
    /// fault.
    FaultDegraded {
        /// What degraded (`shard_tick`, …).
        what: &'static str,
        /// Context-dependent detail (e.g. the shard index).
        detail: u64,
    },
    /// The trace was force-retained because its tick window breached the
    /// latency SLO.
    SloBreachWindow,
    /// A duplicate `(at, user, user_seq)` key surfaced at merge time and
    /// the applier degraded to first-writer-wins instead of panicking.
    MergeConflict {
        /// The duplicated key's timestamp.
        at: u64,
        /// The duplicated key's user.
        user: u64,
        /// The duplicated key's per-user sequence number.
        user_seq: u64,
    },
    /// A tracking pixel fired during the page view.
    PixelFired {
        /// The pixel.
        pixel: u64,
    },
    /// The eligibility census of one ad slot (the flattened
    /// `EligibilityBreakdown`).
    Slot {
        /// Slot index on the page.
        slot: u32,
        /// Ads examined by the filter chain.
        considered: u32,
        /// Skipped without examination: the inverted index proved they
        /// cannot match.
        index_pruned: u32,
        /// Rejected: not approved / campaign missing.
        not_servable: u32,
        /// Rejected: owning account suspended.
        suspended: u32,
        /// Rejected: campaign budget exhausted.
        over_budget: u32,
        /// Rejected: per-user frequency cap reached.
        frequency_capped: u32,
        /// Rejected: targeting spec does not match.
        targeting_mismatch: u32,
        /// Survived every filter and bid.
        eligible: u32,
        /// Targeting checks answered by a compiled program.
        compiled_evals: u32,
    },
    /// Per-candidate verdict for one examined ad (head-sampled traces
    /// only — this is the expensive detail tier).
    Candidate {
        /// Slot index on the page.
        slot: u32,
        /// The examined ad.
        ad: u64,
        /// First-failing-filter label (`eligible`, `targeting_mismatch`,
        /// `frequency_capped`, `over_budget`, `suspended`,
        /// `not_servable`).
        verdict: &'static str,
        /// The ad's bid cap in micro-dollars CPM (zero when rejected
        /// before the campaign lookup).
        bid_cpm_micros: i64,
    },
    /// How one slot's auction resolved.
    Auction {
        /// Slot index on the page.
        slot: u32,
        /// Outcome label (`won`, `lost_to_background`, `unfilled`).
        outcome: &'static str,
        /// Winning ad id (zero when no advertiser ad won).
        winner: u64,
        /// Second-price clearing CPM in micro-dollars (zero on no win).
        clearing_cpm_micros: i64,
        /// Advertiser bids that entered the auction.
        advertiser_bids: u32,
        /// Background competitors sampled.
        background_competitors: u32,
        /// Strongest background CPM in micro-dollars.
        best_background_cpm_micros: i64,
    },
    /// The impression the winning ad will be billed at (price =
    /// clearing CPM / 1000, pre-waiver).
    Billed {
        /// Slot index on the page.
        slot: u32,
        /// The billed ad.
        ad: u64,
        /// Per-impression price in micro-dollars.
        price_micros: i64,
    },
}

impl TraceEventKind {
    /// Snake-case tag used by the exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEventKind::Admitted { .. } => "admitted",
            TraceEventKind::Shed { .. } => "shed",
            TraceEventKind::FaultDegraded { .. } => "fault_degraded",
            TraceEventKind::SloBreachWindow => "slo_breach_window",
            TraceEventKind::MergeConflict { .. } => "merge_conflict",
            TraceEventKind::PixelFired { .. } => "pixel_fired",
            TraceEventKind::Slot { .. } => "slot",
            TraceEventKind::Candidate { .. } => "candidate",
            TraceEventKind::Auction { .. } => "auction",
            TraceEventKind::Billed { .. } => "billed",
        }
    }
}

/// One request's causal trace: identity, span tree, decision events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The deterministic trace id.
    pub id: TraceId,
    /// The request's simulated instant.
    pub at: SimTime,
    /// The requesting user (raw id).
    pub user: u64,
    /// The user's sequence counter at page-view start ([`SHED_SEQ`] for
    /// requests that never reached one).
    pub user_seq: u64,
    /// True if the id head-sampled in (full candidate detail recorded).
    pub sampled: bool,
    /// True if the trace is tail-retained regardless of sampling (shed /
    /// fault / merge-conflict / SLO-breach).
    pub always: bool,
    /// The span tree, root first.
    pub spans: Vec<TraceSpan>,
    /// Decision events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl RequestTrace {
    /// A healthy-request trace; retention rides on `sampled` (and on any
    /// later tail promotion via [`RequestTrace::retain_always`]).
    pub fn new(id: TraceId, at: SimTime, user: u64, user_seq: u64, sampled: bool) -> Self {
        Self {
            id,
            at,
            user,
            user_seq,
            sampled,
            always: false,
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A tail-case trace (shed, fault, merge conflict): always retained.
    pub fn tail(id: TraceId, at: SimTime, user: u64, user_seq: u64) -> Self {
        Self {
            always: true,
            ..Self::new(id, at, user, user_seq, false)
        }
    }

    /// Promotes the trace to always-retained (e.g. its tick window
    /// breached the SLO).
    pub fn retain_always(&mut self) {
        self.always = true;
    }

    /// True if the collector should keep this trace.
    pub fn retained(&self) -> bool {
        self.always || self.sampled
    }

    /// Opens a span and returns its index.
    pub fn span(&mut self, name: &'static str, parent: Option<usize>, at: SimTime) -> usize {
        self.spans.push(TraceSpan {
            name,
            parent,
            at,
            start_ns: 0,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Sets a span's wall-clock window (offset from request arrival and
    /// duration, nanoseconds). No-op on an out-of-range index.
    pub fn set_span_wall(&mut self, span: usize, start_ns: u64, dur_ns: u64) {
        if let Some(s) = self.spans.get_mut(span) {
            s.start_ns = start_ns;
            s.dur_ns = dur_ns;
        }
    }

    /// Attaches a decision event to a span.
    pub fn event(&mut self, span: usize, kind: TraceEventKind) {
        self.events.push(TraceEvent { span, kind });
    }

    /// Winning ad ids recorded by this trace's auction events, in slot
    /// order.
    pub fn won_ads(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Auction { winner, .. } if winner != 0 => Some(winner),
                _ => None,
            })
            .collect()
    }

    /// True if any event marks the request as shed.
    pub fn is_shed(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Shed { .. }))
    }

    /// The canonical `(at, user, user_seq)` sort key.
    pub fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.user, self.user_seq)
    }
}

/// Retains sampled traces up to a capacity, with exact accounting.
///
/// Offers must arrive in canonical order (the engine/applier sorts each
/// tick's traces by [`RequestTrace::key`] before offering) so that the
/// keep-first-under-capacity policy is deterministic.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    config: TraceConfig,
    retained: Vec<RequestTrace>,
    dropped: u64,
}

impl TraceCollector {
    /// An empty collector with the given config.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            retained: Vec::new(),
            dropped: 0,
        }
    }

    /// The active config.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Replaces the config (retained traces are kept).
    pub fn set_config(&mut self, config: TraceConfig) {
        self.config = config;
    }

    /// Offers one finished trace. Returns `true` when retained. Traces
    /// that neither head-sampled in nor carry a tail marker, and traces
    /// beyond capacity, are counted as dropped.
    pub fn offer(&mut self, trace: RequestTrace) -> bool {
        if trace.retained() && self.retained.len() < self.config.capacity {
            self.retained.push(trace);
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Retained traces, in offer order.
    pub fn retained(&self) -> &[RequestTrace] {
        &self.retained
    }

    /// Traces retained so far.
    pub fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// Traces offered but not retained (unsampled or over capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains and returns the retained traces.
    pub fn drain(&mut self) -> Vec<RequestTrace> {
        std::mem::take(&mut self.retained)
    }

    /// Appends another collector's retained traces (capacity-checked).
    pub fn absorb(&mut self, other: TraceCollector) {
        for t in other.retained {
            if self.retained.len() < self.config.capacity {
                self.retained.push(t);
            } else {
                self.dropped += 1;
            }
        }
        self.dropped += other.dropped;
    }
}

/// Minimal JSON string escaping (backslash, quote, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn event_kind_json(kind: &TraceEventKind) -> String {
    let mut fields = vec![format!("\"kind\": \"{}\"", kind.tag())];
    match kind {
        TraceEventKind::Admitted { shard } => fields.push(format!("\"shard\": {shard}")),
        TraceEventKind::Shed { reason } => fields.push(format!("\"reason\": \"{}\"", esc(reason))),
        TraceEventKind::FaultDegraded { what, detail } => {
            fields.push(format!("\"what\": \"{}\"", esc(what)));
            fields.push(format!("\"detail\": {detail}"));
        }
        TraceEventKind::SloBreachWindow => {}
        TraceEventKind::MergeConflict { at, user, user_seq } => {
            fields.push(format!("\"at\": {at}"));
            fields.push(format!("\"user\": {user}"));
            fields.push(format!("\"user_seq\": {user_seq}"));
        }
        TraceEventKind::PixelFired { pixel } => fields.push(format!("\"pixel\": {pixel}")),
        TraceEventKind::Slot {
            slot,
            considered,
            index_pruned,
            not_servable,
            suspended,
            over_budget,
            frequency_capped,
            targeting_mismatch,
            eligible,
            compiled_evals,
        } => {
            fields.push(format!("\"slot\": {slot}"));
            fields.push(format!("\"considered\": {considered}"));
            fields.push(format!("\"index_pruned\": {index_pruned}"));
            fields.push(format!("\"not_servable\": {not_servable}"));
            fields.push(format!("\"suspended\": {suspended}"));
            fields.push(format!("\"over_budget\": {over_budget}"));
            fields.push(format!("\"frequency_capped\": {frequency_capped}"));
            fields.push(format!("\"targeting_mismatch\": {targeting_mismatch}"));
            fields.push(format!("\"eligible\": {eligible}"));
            fields.push(format!("\"compiled_evals\": {compiled_evals}"));
        }
        TraceEventKind::Candidate {
            slot,
            ad,
            verdict,
            bid_cpm_micros,
        } => {
            fields.push(format!("\"slot\": {slot}"));
            fields.push(format!("\"ad\": {ad}"));
            fields.push(format!("\"verdict\": \"{}\"", esc(verdict)));
            fields.push(format!("\"bid_cpm_micros\": {bid_cpm_micros}"));
        }
        TraceEventKind::Auction {
            slot,
            outcome,
            winner,
            clearing_cpm_micros,
            advertiser_bids,
            background_competitors,
            best_background_cpm_micros,
        } => {
            fields.push(format!("\"slot\": {slot}"));
            fields.push(format!("\"outcome\": \"{}\"", esc(outcome)));
            fields.push(format!("\"winner\": {winner}"));
            fields.push(format!("\"clearing_cpm_micros\": {clearing_cpm_micros}"));
            fields.push(format!("\"advertiser_bids\": {advertiser_bids}"));
            fields.push(format!(
                "\"background_competitors\": {background_competitors}"
            ));
            fields.push(format!(
                "\"best_background_cpm_micros\": {best_background_cpm_micros}"
            ));
        }
        TraceEventKind::Billed {
            slot,
            ad,
            price_micros,
        } => {
            fields.push(format!("\"slot\": {slot}"));
            fields.push(format!("\"ad\": {ad}"));
            fields.push(format!("\"price_micros\": {price_micros}"));
        }
    }
    format!("{{{}}}", fields.join(", "))
}

/// Renders traces as a JSON array (the machine-readable trace dump).
pub fn traces_to_json(traces: &[RequestTrace]) -> String {
    let mut out = String::from("[\n");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let spans: Vec<String> = t
            .spans
            .iter()
            .map(|s| {
                let parent = match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".into(),
                };
                format!(
                    "{{\"name\": \"{}\", \"parent\": {}, \"at\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                    esc(s.name),
                    parent,
                    s.at.0,
                    s.start_ns,
                    s.dur_ns
                )
            })
            .collect();
        let events: Vec<String> = t
            .events
            .iter()
            .map(|e| {
                let kind = event_kind_json(&e.kind);
                // Splice the span index into the kind object.
                format!("{{\"span\": {}, {}", e.span, &kind[1..])
            })
            .collect();
        out.push_str(&format!(
            "  {{\"trace_id\": \"{}\", \"at\": {}, \"user\": {}, \"user_seq\": {}, \
             \"sampled\": {}, \"always\": {}, \"spans\": [{}], \"events\": [{}]}}",
            t.id,
            t.at.0,
            t.user,
            t.user_seq,
            t.sampled,
            t.always,
            spans.join(", "),
            events.join(", ")
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Renders traces in Chrome trace-event format (a JSON array of complete
/// `"ph": "X"` events), loadable by Perfetto or `chrome://tracing`.
///
/// Timestamps map the simulated clock to microseconds (`at` × 1000) plus
/// each span's wall-clock offset; durations are wall-clock (min 1 µs so
/// zero-length spans stay visible). `pid` is 1, `tid` is the user id.
pub fn traces_to_chrome(traces: &[RequestTrace]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for t in traces {
        for s in &t.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ts = t.at.0.saturating_mul(1000) + s.start_ns / 1000;
            let dur = (s.dur_ns / 1000).max(1);
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"treads\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"trace_id\": \"{}\", \"user_seq\": {}, \"sampled\": {}, \"always\": {}}}}}",
                esc(s.name),
                ts,
                dur,
                t.user,
                t.id,
                t.user_seq,
                t.sampled,
                t.always
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_pure_functions_of_the_key() {
        let a = TraceId::from_key(42, SimTime(7), 3, 1);
        let b = TraceId::from_key(42, SimTime(7), 3, 1);
        assert_eq!(a, b);
        assert_ne!(a, TraceId::from_key(42, SimTime(7), 3, 2));
        assert_ne!(a, TraceId::from_key(43, SimTime(7), 3, 1));
        assert_ne!(a, TraceId::from_call(42, 1));
        assert_eq!(a.to_hex().len(), 16);
        assert_eq!(a.to_hex(), format!("{a}"));
    }

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        let full = TraceConfig::full();
        let off = TraceConfig::disabled();
        let one_pct = TraceConfig::default();
        let mut hits = 0u64;
        for seq in 0..10_000u64 {
            let id = TraceId::from_key(1, SimTime(0), seq, 0);
            assert!(full.sampled(id));
            assert!(!off.sampled(id));
            if one_pct.sampled(id) {
                hits += 1;
            }
            // The decision is stable across calls.
            assert_eq!(one_pct.sampled(id), one_pct.sampled(id));
        }
        // 1% ± generous slack over 10k ids.
        assert!((50..=200).contains(&hits), "1% sampling hit {hits}/10000");
    }

    #[test]
    fn collector_retains_tail_and_sampled_only() {
        let mut c = TraceCollector::new(TraceConfig {
            enabled: true,
            sample_per_mille: 0,
            capacity: 2,
        });
        // Unsampled healthy trace → dropped.
        let healthy = RequestTrace::new(TraceId(1), SimTime(0), 1, 0, false);
        assert!(!c.offer(healthy));
        // Tail traces → retained up to capacity.
        assert!(c.offer(RequestTrace::tail(TraceId(2), SimTime(0), 2, SHED_SEQ)));
        assert!(c.offer(RequestTrace::tail(TraceId(3), SimTime(0), 3, SHED_SEQ)));
        assert!(!c.offer(RequestTrace::tail(TraceId(4), SimTime(0), 4, SHED_SEQ)));
        assert_eq!(c.retained_len(), 2);
        assert_eq!(c.dropped(), 2);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.retained_len(), 0);
    }

    #[test]
    fn slo_promotion_retains_an_unsampled_trace() {
        let mut t = RequestTrace::new(TraceId(9), SimTime(5), 1, 0, false);
        assert!(!t.retained());
        t.retain_always();
        let root = t.span("request", None, SimTime(5));
        t.event(root, TraceEventKind::SloBreachWindow);
        assert!(t.retained());
    }

    #[test]
    fn won_ads_reads_auction_events() {
        let mut t = RequestTrace::new(TraceId(1), SimTime(0), 1, 0, true);
        let s = t.span("decide", None, SimTime(0));
        t.event(
            s,
            TraceEventKind::Auction {
                slot: 0,
                outcome: "won",
                winner: 7,
                clearing_cpm_micros: 2_000_000,
                advertiser_bids: 2,
                background_competitors: 1,
                best_background_cpm_micros: 1_500_000,
            },
        );
        t.event(
            s,
            TraceEventKind::Auction {
                slot: 1,
                outcome: "unfilled",
                winner: 0,
                clearing_cpm_micros: 0,
                advertiser_bids: 0,
                background_competitors: 0,
                best_background_cpm_micros: 0,
            },
        );
        assert_eq!(t.won_ads(), vec![7]);
        assert!(!t.is_shed());
    }

    #[test]
    fn exporters_emit_wellformed_json() {
        let mut t = RequestTrace::new(
            TraceId::from_key(1, SimTime(3), 5, 0),
            SimTime(3),
            5,
            0,
            true,
        );
        let root = t.span("request", None, SimTime(3));
        let decide = t.span("decide", Some(root), SimTime(3));
        t.set_span_wall(decide, 500, 2_500);
        t.event(root, TraceEventKind::Admitted { shard: 1 });
        t.event(
            decide,
            TraceEventKind::Candidate {
                slot: 0,
                ad: 1,
                verdict: "eligible",
                bid_cpm_micros: 25_000_000,
            },
        );
        let json = traces_to_json(&[t.clone()]);
        assert!(json.contains("\"trace_id\""));
        assert!(json.contains("\"verdict\": \"eligible\""));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
        let chrome = traces_to_chrome(&[t]);
        assert!(chrome.starts_with("[\n"));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"ts\": 3000"));
        // Balanced braces/brackets — a cheap well-formedness proxy in a
        // workspace with no JSON parser dependency.
        for s in [&json, &chrome] {
            assert_eq!(s.matches('{').count(), s.matches('}').count());
            assert_eq!(s.matches('[').count(), s.matches(']').count());
        }
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
