//! A deterministic, event-driven online ad-platform simulator.
//!
//! This crate is the reproduction's stand-in for the proprietary platform
//! (Facebook in the paper's validation). Treads rely only on the platform
//! *contract*, which this simulator enforces precisely:
//!
//! 1. **Delivery iff targeting match** — a user is shown a targeted ad only
//!    if they satisfy the advertiser's targeting predicate (the property
//!    that makes a received Tread a proof about the user's own profile).
//! 2. **Aggregate-only reporting** — advertisers see impression counts,
//!    rounded reach estimates, and spend; never which users saw an ad.
//!
//! Around that contract sits everything the paper's mechanism touches:
//!
//! * [`attributes`] — the targeting-attribute catalog: 614 platform-computed
//!   attributes plus the 507 data-broker "partner categories" (the paper's
//!   early-2018 Facebook numbers), with keyword search.
//! * [`profile`] — the user store: demographics, attributes, hashed PII
//!   with provenance, page likes.
//! * [`targeting`] — boolean include/exclude targeting expressions and
//!   their evaluator.
//! * [`compiled`] — targeting specs lowered to flat short-circuit
//!   programs (bitmap probes and interned-symbol compares over a single
//!   boolean accumulator; no recursion, no strings) so the delivery hot
//!   path evaluates with zero allocation; the tree evaluator is
//!   retained as the `EvalMode::Tree` oracle.
//! * [`audience`] — saved audiences: PII-based custom audiences (with the
//!   platform's minimum-size rule), tracking-pixel visitor audiences, and
//!   page-engagement audiences; rounded reach estimation.
//! * [`pixel`] / [`pages`] — the two anonymous opt-in channels the paper
//!   describes (visiting a pixel-instrumented site; liking the provider's
//!   page).
//! * [`campaign`] — campaigns, ads, creatives, bid caps, budgets.
//! * [`clicks`] — advertiser-side click logs: what an advertiser learns
//!   about clicking users' cookies (§4), and the required disclosure back.
//! * [`dsl`] — a compact textual language for targeting expressions
//!   (`age 24-39 AND attr:'musicals' AND NOT attr:'in a relationship'`).
//! * [`auction`] — per-impression second-price auction against simulated
//!   background competition (the paper raises its bid cap 5× to win).
//! * [`index`] — the counting targeting index: signals → candidate ads,
//!   pruning on every keyable conjunct of an ad's targeting, so
//!   delivery's per-opportunity cost scales with *plausibly matching* ads
//!   instead of the whole inventory.
//! * [`delivery`] — the event loop turning browsing impressions into
//!   auctions, impressions, frequency capping, and billing.
//! * [`billing`] — CPM accounting with the small-spend waiver that makes
//!   the paper's two-user validation cost $0.
//! * [`reporting`] — advertiser-facing aggregate statistics.
//! * [`transparency`] — the platform's *own* (incomplete) transparency
//!   mechanisms: an ad-preferences page that hides partner attributes, and
//!   at-most-one-attribute ad explanations, per the findings the paper
//!   cites.
//! * [`policy`] — the ToS reviewer ("ads must not assert or imply personal
//!   attributes").
//! * [`enforcement`] — account-level detection of mass personal-attribute
//!   campaigns, for the paper's evading-shutdown discussion.
//! * [`error`] — [`PlatformError`], the fallible-API error surface
//!   (transient unavailability vs. deterministic domain rejections), used
//!   by the resilience layer's retry loops.
//! * [`state`] — [`PlatformState`], the engine-mutable slice of the
//!   platform exported for tick-boundary checkpointing.
//! * [`platform`] — the façade tying the stores together behind the
//!   advertiser- and simulation-facing API.
//!
//! The simulator is single-threaded and deterministic: all randomness comes
//! from named substreams of one experiment seed, and time is the simulated
//! clock from `adsim-types`.
//!
//! # Example
//!
//! ```
//! use adplatform::{Platform, PlatformConfig};
//! use adplatform::campaign::AdCreative;
//! use adplatform::dsl;
//! use adplatform::profile::Gender;
//! use adplatform::targeting::TargetingSpec;
//! use adsim_types::Money;
//!
//! let mut platform = Platform::us_2018(PlatformConfig::default());
//! platform.config.auction.competitor_rate = 0.0;
//!
//! // An advertiser targets salsa-interested users aged 30+.
//! let adv = platform.register_advertiser("Dance studio");
//! let account = platform.open_account(adv).unwrap();
//! let campaign = platform
//!     .create_campaign(account, "classes", Money::dollars(2), None)
//!     .unwrap();
//! let expr = dsl::parse(
//!     "age 30-120 AND attr:'Interest: salsa dancing (Music)'",
//!     &platform.attributes,
//! )
//! .unwrap();
//! let ad = platform
//!     .submit_ad(
//!         campaign,
//!         AdCreative::text("Salsa nights", "Advanced classes."),
//!         TargetingSpec::including(expr),
//!     )
//!     .unwrap();
//!
//! // Delivery contract: only a matching user receives the ad.
//! let salsa = platform.attributes.id_of("Interest: salsa dancing (Music)").unwrap();
//! let dancer = platform.register_user(34, Gender::Female, "Illinois", "60601");
//! platform.profiles.grant_attribute(dancer, salsa).unwrap();
//! let other = platform.register_user(34, Gender::Female, "Illinois", "60601");
//! platform.browse(dancer).unwrap();
//! platform.browse(other).unwrap();
//! assert_eq!(platform.log.exact_reach(ad), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attributes;
pub mod auction;
pub mod audience;
pub mod billing;
pub mod campaign;
pub mod clicks;
pub mod compiled;
pub mod delivery;
pub mod dsl;
pub mod enforcement;
pub mod error;
pub mod index;
pub mod pages;
pub mod pixel;
pub mod platform;
pub mod policy;
pub mod profile;
pub mod reporting;
pub mod state;
pub mod targeting;
pub mod transparency;

pub use attributes::{AttributeCatalog, AttributeDef, AttributeSource};
pub use audience::{Audience, AudienceKind};
pub use campaign::{Ad, AdCreative, AdStatus, Campaign};
pub use compiled::{EvalMode, ProgramArena};
pub use error::PlatformError;
pub use index::{SelectionMode, TargetingIndex};
pub use platform::{Platform, PlatformConfig};
pub use profile::{Gender, PiiProvenance, ProfileFacets, UserProfile};
pub use state::PlatformState;
pub use targeting::{TargetingExpr, TargetingSpec};
