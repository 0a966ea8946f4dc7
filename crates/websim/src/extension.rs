//! The user-side browser extension.
//!
//! The paper envisions users "potentially sav(ing) these (Treads) using a
//! browser extension", which also holds the obfuscation codebook the
//! provider shares at opt-in. The extension here is the capture half: it
//! records every ad the user's browser rendered (ad id + the creative as
//! displayed). Decoding is done by `treads-core`'s client, which consumes
//! an [`ExtensionLog`].
//!
//! The extension sees only what the user sees — it has no platform-side
//! access, which keeps the threat-model boundaries honest.

use adplatform::campaign::AdCreative;
use adsim_types::{AdId, SimTime, UserId};

/// One ad observation captured by the extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedAd {
    /// The rendered ad's id (visible in ad markup on real platforms).
    pub ad: AdId,
    /// The creative as rendered.
    pub creative: AdCreative,
    /// When it was seen.
    pub at: SimTime,
}

/// Per-user capture log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtensionLog {
    /// The user running the extension.
    pub user: Option<UserId>,
    observations: Vec<ObservedAd>,
}

impl ExtensionLog {
    /// A log for one user.
    pub fn for_user(user: UserId) -> Self {
        Self {
            user: Some(user),
            observations: Vec::new(),
        }
    }

    /// Rebuilds a log from checkpointed parts, preserving capture order.
    pub fn from_parts(user: Option<UserId>, observations: Vec<ObservedAd>) -> Self {
        Self { user, observations }
    }

    /// Records a rendered ad.
    pub fn observe(&mut self, ad: AdId, creative: AdCreative, at: SimTime) {
        self.observations.push(ObservedAd { ad, creative, at });
    }

    /// All observations, in capture order.
    pub fn observations(&self) -> &[ObservedAd] {
        &self.observations
    }

    /// Number of captured ads.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Observations of one specific ad.
    pub fn of_ad(&self, ad: AdId) -> Vec<&ObservedAd> {
        self.observations.iter().filter(|o| o.ad == ad).collect()
    }

    /// Distinct ads seen, in first-seen order.
    pub fn distinct_ads(&self) -> Vec<AdId> {
        let mut seen = Vec::new();
        for o in &self.observations {
            if !seen.contains(&o.ad) {
                seen.push(o.ad);
            }
        }
        seen
    }

    /// Cross-checks the platform's receipt claims against what the
    /// browser actually rendered.
    ///
    /// Claims and observations match as a multiset on `(ad, at)` — a user
    /// shown the same ad twice holds two observations and is owed two
    /// receipts. The audit is symmetric: `unobserved` lists deliveries
    /// the platform claims but the browser never rendered (a forged
    /// receipt), `unreceipted` lists rendered ads the platform issued no
    /// receipt for (a dropped one).
    pub fn verify_claims(&self, claims: &[ReceiptClaim]) -> ClaimAudit {
        let mut pending: Vec<(AdId, SimTime)> =
            self.observations.iter().map(|o| (o.ad, o.at)).collect();
        let mut audit = ClaimAudit::default();
        for claim in claims {
            match pending
                .iter()
                .position(|&(ad, at)| ad == claim.ad && at == claim.at)
            {
                Some(i) => {
                    pending.swap_remove(i);
                    audit.matched += 1;
                }
                None => audit.unobserved.push(*claim),
            }
        }
        pending.sort_unstable_by_key(|&(ad, at)| (at, ad));
        audit.unreceipted = pending;
        audit
    }
}

/// A delivery the platform *claims* it made to this user: an `(ad,
/// instant)` pair lifted from its published receipt ledger.
///
/// Deliberately minimal — the extension sees only what the user's browser
/// sees, so a claim is comparable exactly on the rendered ad identity and
/// instant, never on platform-internal receipt fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiptClaim {
    /// The ad the platform says it delivered.
    pub ad: AdId,
    /// When it says it delivered it.
    pub at: SimTime,
}

/// Outcome of [`ExtensionLog::verify_claims`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClaimAudit {
    /// Claims backed by a rendered observation.
    pub matched: u64,
    /// Claims the browser never rendered (forged receipts).
    pub unobserved: Vec<ReceiptClaim>,
    /// Rendered ads the platform issued no receipt for (dropped
    /// receipts), sorted by `(at, ad)`.
    pub unreceipted: Vec<(AdId, SimTime)>,
}

impl ClaimAudit {
    /// True when every claim matched an observation and vice versa.
    pub fn is_clean(&self) -> bool {
        self.unobserved.is_empty() && self.unreceipted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn creative(n: u32) -> AdCreative {
        AdCreative::text(format!("headline {n}"), "body")
    }

    #[test]
    fn capture_and_query() {
        let mut log = ExtensionLog::for_user(UserId(1));
        log.observe(AdId(10), creative(1), SimTime(5));
        log.observe(AdId(11), creative(2), SimTime(6));
        log.observe(AdId(10), creative(1), SimTime(7));
        assert_eq!(log.len(), 3);
        assert_eq!(log.of_ad(AdId(10)).len(), 2);
        assert_eq!(log.distinct_ads(), vec![AdId(10), AdId(11)]);
        assert_eq!(log.user, Some(UserId(1)));
    }

    #[test]
    fn empty_log() {
        let log = ExtensionLog::default();
        assert!(log.is_empty());
        assert!(log.distinct_ads().is_empty());
        assert!(log.of_ad(AdId(1)).is_empty());
    }

    #[test]
    fn claim_verification_is_a_multiset_match() {
        let mut log = ExtensionLog::for_user(UserId(1));
        log.observe(AdId(10), creative(1), SimTime(5));
        log.observe(AdId(10), creative(1), SimTime(5));
        log.observe(AdId(11), creative(2), SimTime(6));

        // Honest claims: one per rendered ad, duplicates included.
        let honest = vec![
            ReceiptClaim {
                ad: AdId(10),
                at: SimTime(5),
            },
            ReceiptClaim {
                ad: AdId(10),
                at: SimTime(5),
            },
            ReceiptClaim {
                ad: AdId(11),
                at: SimTime(6),
            },
        ];
        let audit = log.verify_claims(&honest);
        assert!(audit.is_clean());
        assert_eq!(audit.matched, 3);

        // A forged claim surfaces as unobserved; a withheld one as
        // unreceipted.
        let tampered = vec![
            ReceiptClaim {
                ad: AdId(10),
                at: SimTime(5),
            },
            ReceiptClaim {
                ad: AdId(10),
                at: SimTime(5),
            },
            ReceiptClaim {
                ad: AdId(99),
                at: SimTime(7),
            },
        ];
        let audit = log.verify_claims(&tampered);
        assert!(!audit.is_clean());
        assert_eq!(audit.matched, 2);
        assert_eq!(
            audit.unobserved,
            vec![ReceiptClaim {
                ad: AdId(99),
                at: SimTime(7),
            }]
        );
        assert_eq!(audit.unreceipted, vec![(AdId(11), SimTime(6))]);
    }

    #[test]
    fn observations_keep_creative_content() {
        let mut log = ExtensionLog::for_user(UserId(2));
        log.observe(AdId(1), AdCreative::text("Ref", "2,830,120"), SimTime(0));
        let obs = &log.observations()[0];
        assert_eq!(obs.creative.body, "2,830,120");
        assert_eq!(obs.at, SimTime(0));
    }
}
