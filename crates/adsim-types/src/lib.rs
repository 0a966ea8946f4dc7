//! Shared substrate types for the Treads reproduction.
//!
//! This crate is the foundation layer every other crate in the workspace
//! builds on. It intentionally contains no ad-platform logic — only the
//! vocabulary the simulation speaks:
//!
//! * [`ids`] — strongly-typed identifiers for every entity in the system
//!   (users, advertisers, campaigns, ads, attributes, sites, pixels, …).
//! * [`time`] — the simulated clock. The whole workspace is driven by a
//!   deterministic discrete-event clock measured in simulated milliseconds.
//! * [`money`] — exact money arithmetic in micro-USD, with the CPM
//!   (cost-per-mille) helpers the paper's cost analysis uses.
//! * [`hash`] — a from-scratch SHA-256 implementation (validated against
//!   NIST test vectors) used for PII hashing, exactly as ad platforms
//!   require hashed email/phone uploads for custom audiences; and the one
//!   splitmix64 mixer ([`hash::mix64`]) every fast non-cryptographic
//!   hash in the workspace builds on.
//! * [`rng`] — seeded determinism helpers so every experiment is
//!   reproducible bit-for-bit.
//! * [`stats`] — the small statistics toolbox (binomial tails, chi-square,
//!   descriptive stats) used by the platform's noisy reach estimates and by
//!   the correlation-inference baseline.
//! * [`symbols`] — the deterministic string interner backing the compiled
//!   targeting evaluator (states and ZIPs become dense `u32` symbols).
//! * [`error`] — the common error type.
//!
//! Design notes: following the style of event-driven network stacks such as
//! smoltcp, this layer avoids clever type-level tricks; identifiers are
//! plain newtypes over integers, time is a plain `u64`, and money is a
//! plain `i64`, each with a small, well-documented API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod ids;
pub mod money;
pub mod rng;
pub mod stats;
pub mod symbols;
pub mod time;

pub use error::{Error, Result};
pub use ids::{
    AccountId, AdId, AdvertiserId, AttributeId, AudienceId, CampaignId, PixelId, SiteId, UserId,
};
pub use money::Money;
pub use symbols::{Symbol, SymbolTable};
pub use time::{Duration, SimClock, SimTime};
