//! Deterministic resilience layer for the Treads simulation.
//!
//! The paper's transparency provider runs one campaign per targeting
//! parameter over multi-day windows against a production ad platform —
//! an environment of flaky submission APIs, review rejections, and
//! processes that crash mid-run. This crate gives the reproduction the
//! same failure surface **without giving up bit-identical determinism**:
//!
//! * [`fault`] — the seeded [`fault::FaultPlan`] DSL: shard crashes at
//!   tick T, duplicated/delayed event batches, and submission-API
//!   brownouts, every one scheduled (not sampled) so replays are exact.
//! * [`backoff`] — deterministic exponential backoff with seeded full
//!   jitter, producing *simulated* delay schedules instead of wall-clock
//!   sleeps.
//! * [`api`] — the [`api::SubmissionApi`] trait over the platform's
//!   fallible campaign-submission calls, and [`api::FlakyPlatform`],
//!   which injects a plan's brownouts ahead of the real platform.
//! * [`codec`] — the hand-rolled canonical binary codec (a
//!   one-valid-form encoding is what makes "byte-identical checkpoint"
//!   meaningful), and the one layout declaration of every type a frame
//!   carries: its fields listed once, in wire order, drive the encoder,
//!   the strict decoder and the state digest alike.
//! * [`checkpoint`] — versioned tick-boundary
//!   [`checkpoint::EngineCheckpoint`]s: platform state, per-user RNG
//!   cursors, shard frequency caps, extension logs, and fault accounting,
//!   round-tripping through [`checkpoint::EngineCheckpoint::to_bytes`] /
//!   [`checkpoint::EngineCheckpoint::from_bytes`].
//! * [`delta`] — incremental [`delta::DeltaFrame`]s that encode only the
//!   slots mutated since the previous frame, folding back to a
//!   byte-identical full checkpoint via [`delta::fold_frames`] with a
//!   per-frame [`delta::state_digest`] integrity check. The same body,
//!   taken from the empty state, is the full checkpoint's encoding.
//! * [`ledger`] — the hash-chained [`ledger::ReceiptLedger`] of signed
//!   delivery receipts, its [`fault::DishonestFault`] tampering family,
//!   and the equivocation auditor ([`ledger::ReceiptLedger::audit`]).
//!   Chain heads are committed into checkpoints (from v4) so resumes
//!   cannot rewrite receipt history.
//!
//! # TRCK format versioning
//!
//! Every frame starts `b"TRCK"`, a little-endian `u32` version, and (from
//! v3) a frame-kind byte. The version history:
//!
//! * **v1** — full checkpoints only: config echo, run counters, fault
//!   accounting, platform state, per-shard cursors/caps/extension logs.
//! * **v2** — appends the profile store's facet sidecar (interner symbol
//!   table, facet-update counter, per-user facets) to the platform
//!   section.
//! * **v3** — inserts the frame-kind byte
//!   ([`checkpoint::FRAME_FULL`]` = 0`, [`checkpoint::FRAME_DELTA`]` =
//!   1`) and adds the delta-frame body format; full-frame bodies are
//!   otherwise unchanged from v2.
//! * **v4** — appends the receipt ledger's committed chain heads to
//!   full and delta frames, and adds the targeting-spec digest to every
//!   encoded impression.
//! * **v5** — one body for both kinds: a full frame is the delta body
//!   that takes the empty state to the checkpoint (every keyed slot an
//!   upsert, every journal at base 0), ending in its state digest.
//! * **v6** — same layout as v5; per-user cursors count events of the
//!   schedules drawn from the keyed `(user, day)` streams
//!   (`adsim_types::rng::keyed_stream`) instead of SHA-256-labelled
//!   substreams, so a v5 cursor would resume a different history.
//!
//! **Strict decoding, everywhere:** decoders reject bad magic, unknown
//! versions, unknown frame kinds, truncated input, trailing bytes, and
//! structurally impossible payloads (duplicate interner symbols, facet
//! symbols past the table, unsorted visited-ZIP lists, upsert lists not
//! strictly increasing, journal suffixes whose base length does not
//! match). Every frame carries a set-homomorphic state digest that is
//! re-derived from the resulting state after the frame is applied — a
//! base frame when it is decoded, a delta when [`delta::fold_frames`]
//! folds it — so a frame whose content disagrees with what the delta
//! tracker hashed fails resume. A dirty key the tracker never saw is
//! missing from the frame and from its rolling digest alike, so the
//! digest cannot catch it; the fold-prefix ≡ full-snapshot and resume ≡
//! uninterrupted oracles do. There is exactly one valid encoding of any
//! state, so "byte-identical checkpoint" is a meaningful oracle.
//!
//! The engine's supervisor (`treads-engine`) consumes the fault plan and
//! checkpoint types; the provider's retry loop (`treads-core`) consumes
//! the backoff policy and submission API; the serving front end
//! (`treads-serving`) consumes the fault plan and the receipt ledger.
//! This crate sits *below* all three in the dependency graph and knows
//! nothing about them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod backoff;
pub mod checkpoint;
pub mod codec;
pub mod delta;
pub mod fault;
pub mod ledger;

pub use api::{FlakyPlatform, SubmissionApi};
pub use backoff::BackoffPolicy;
pub use checkpoint::{
    ConfigEcho, EngineCheckpoint, ReportCounters, ShardCheckpoint, UserCursor, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION, FRAME_DELTA, FRAME_FULL,
};
pub use codec::DecodeError;
pub use delta::{
    fold_frames, state_digest, CheckpointFrame, DeltaFrame, DeltaHead, DeltaTracker, ShardDelta,
    ShardDeltaSource,
};
pub use fault::{
    ApiFault, DishonestFault, EngineFault, EquivocationKind, FaultPlan, FaultReport, LostWork,
};
pub use ledger::{
    pseudonym, receipts_from_impressions, AuditFinding, AuditReport, DeliveryReceipt,
    InjectedEquivocation, LedgerHead, PublishedLedger, ReceiptLedger, LEDGER_CHAINS,
};
