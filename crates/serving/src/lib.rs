//! Request-driven online ad serving over the batch engine's machinery.
//!
//! The batch engine ticks over pre-generated sessions; this crate turns
//! the same decide/apply machinery into a **request/response front end**:
//! a client submits individual impression opportunities and gets back the
//! chosen ad, while the platform behind the counter stays the exact
//! deterministic simulation the rest of the workspace proves things about.
//!
//! The workspace is offline-deps-only (no tokio), so the front end is a
//! thread-per-shard worker pool over `crossbeam` channels:
//!
//! * a [`Frontend`] handle with `submit(OpportunityRequest) -> Ticket`
//!   semantics ([`Ticket::wait`] yields the [`Response`]);
//! * a [`MicroBatcher`] per shard worker that closes a batch on either
//!   `max_batch` or `max_delay`, whichever comes first;
//! * an [`AdmissionController`] that sheds load — reject with a
//!   retry-after hint — when a shard's queue depth crosses a watermark;
//! * per-request latency (enqueue → decide → respond) feeding
//!   p50/p95/p99 histograms and a [`treads_telemetry::SloTracker`].
//!
//! ## Determinism
//!
//! Requests carry *simulated* timestamps and map onto the same tick grid
//! the batch engine uses. Within a tick every decide reads the tick's
//! frozen budget snapshot plus user-owned state (per-user RNG substream,
//! per-`(ad, user)` frequency counters bumped immediately in the owning
//! shard worker), so micro-batch composition — how `max_batch` and
//! `max_delay` happen to chop the request stream — can change *latency*
//! but never *outcomes*. At tick close each worker puts its events, already
//! in arrival order, into key order (fixing the few same-millisecond
//! ties), the batches merge in the canonical `(at, user, user_seq)` order
//! and fold through [`treads_engine::fold_tick_events`], the same
//! single-writer step the batch engine uses, and the front end is released
//! as soon as the fold and the budget refreeze are done; the tick's
//! bookkeeping follows while the next tick admits. A serving run fed a
//! fixed arrival schedule is therefore **byte-identical** to the batch
//! engine fed the same opportunity stream (proven at 1/2/8 shards in
//! `tests/serving_equivalence.rs`), provided admission control never fires
//! (shedding depends on wall-clock queue depth, the one deliberately
//! non-deterministic escape hatch).
//!
//! ## Resilience
//!
//! A [`treads_engine::ResilienceOptions`] fault plan degrades serving
//! instead of killing it: a scheduled shard crash strikes the first
//! micro-batch of its tick. Within the retry budget each failing attempt
//! replays part of the batch, and the worker then restores its whole
//! decide state — users, decider and the tick's accumulator — from one
//! clone taken at batch start, as the batch supervisor restores a
//! `ShardState`. Recovery is byte-identical: every output but the fault
//! counts equals a fault-free run's. Beyond the budget the whole shard
//! tick sheds with retry-after and exact
//! [`treads_resilience::LostWork`] accounting — shed requests are never
//! billed. API brownouts reject deterministically by request index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod applier;
pub mod batcher;
pub mod config;
pub mod frontend;
pub mod report;
pub mod request;
mod worker;

pub use admission::{Admission, AdmissionController};
pub use batcher::MicroBatcher;
pub use config::ServingConfig;
pub use frontend::{Frontend, ServingEngine};
pub use report::{ServingOutcome, ServingReport};
pub use request::{OpportunityRequest, RejectReason, Response, ServedPage, Ticket};

pub use treads_engine::ResilienceOptions;
pub use treads_telemetry::{RequestTrace, SloTarget, SloTracker, TraceConfig, TraceId};
