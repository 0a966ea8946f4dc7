//! The broker→platform feed.
//!
//! Real partner-category integrations work by identity matching: the broker
//! and the platform compare hashed PII, and attributes from matched
//! dossiers become targetable "partner categories" on the matched platform
//! accounts. [`BrokerFeed`] holds a broker's records indexed by hashed
//! email and phone, and [`BrokerFeed::match_user`] resolves one platform
//! user's hashed identifiers against them.
//!
//! The feed never exposes raw PII — it only ever sees digests, mirroring
//! the privacy posture of real onboarding pipelines.

use crate::records::BrokerRecord;
use adsim_types::hash::Digest;
use std::collections::BTreeSet;
use std::collections::HashMap;

/// Outcome of matching one platform user against the feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome {
    /// No dossier matched either identifier.
    NoMatch,
    /// A dossier matched; these attribute names onboard onto the user.
    Matched {
        /// Attribute names asserted by the matched dossier.
        attributes: BTreeSet<String>,
        /// Which identifier matched (`"email"` or `"phone"`).
        via: &'static str,
    },
}

/// A broker's outbound feed: dossiers indexed by hashed identifiers.
#[derive(Debug, Clone, Default)]
pub struct BrokerFeed {
    by_email: HashMap<Digest, usize>,
    by_phone: HashMap<Digest, usize>,
    records: Vec<BrokerRecord>,
}

impl BrokerFeed {
    /// An empty feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a dossier. Later records for the same hashed email replace
    /// earlier ones (brokers ship full refreshes, not deltas).
    pub fn ingest(&mut self, record: BrokerRecord) {
        if let Some(&idx) = self.by_email.get(&record.hashed_email) {
            // Replace in place; re-point the phone index if it changes.
            if let Some(old_phone) = self.records[idx].hashed_phone {
                self.by_phone.remove(&old_phone);
            }
            if let Some(phone) = record.hashed_phone {
                self.by_phone.insert(phone, idx);
            }
            self.records[idx] = record;
            return;
        }
        let idx = self.records.len();
        self.by_email.insert(record.hashed_email, idx);
        if let Some(phone) = record.hashed_phone {
            self.by_phone.insert(phone, idx);
        }
        self.records.push(record);
    }

    /// Number of dossiers in the feed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the feed holds no dossiers.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Matches one platform user's hashed identifiers against the feed,
    /// email first (the stronger key), then phone.
    pub fn match_user(
        &self,
        hashed_email: Option<&Digest>,
        hashed_phone: Option<&Digest>,
    ) -> MatchOutcome {
        if let Some(email) = hashed_email {
            if let Some(&idx) = self.by_email.get(email) {
                return MatchOutcome::Matched {
                    attributes: self.records[idx].attributes.clone(),
                    via: "email",
                };
            }
        }
        if let Some(phone) = hashed_phone {
            if let Some(&idx) = self.by_phone.get(phone) {
                return MatchOutcome::Matched {
                    attributes: self.records[idx].attributes.clone(),
                    via: "phone",
                };
            }
        }
        MatchOutcome::NoMatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::hash::hash_pii;

    fn dossier(email: &str, phone: Option<&str>, attrs: &[&str]) -> BrokerRecord {
        let mut r = BrokerRecord::from_pii(email, phone);
        for a in attrs {
            r.assert_attribute(*a);
        }
        r
    }

    #[test]
    fn match_by_email() {
        let mut feed = BrokerFeed::new();
        feed.ingest(dossier("alice@example.com", None, &["Net worth: $2M+"]));
        let out = feed.match_user(Some(&hash_pii("ALICE@example.com")), None);
        match out {
            MatchOutcome::Matched { attributes, via } => {
                assert_eq!(via, "email");
                assert!(attributes.contains("Net worth: $2M+"));
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn match_by_phone_fallback() {
        let mut feed = BrokerFeed::new();
        feed.ingest(dossier(
            "bob@example.com",
            Some("+1-555-0101"),
            &["Housing: renter"],
        ));
        // Unknown email, known phone.
        let out = feed.match_user(
            Some(&hash_pii("other@example.com")),
            Some(&hash_pii("+1-555-0101")),
        );
        assert!(matches!(out, MatchOutcome::Matched { via: "phone", .. }));
    }

    #[test]
    fn no_match_for_unknown_user() {
        let feed = BrokerFeed::new();
        assert_eq!(
            feed.match_user(Some(&hash_pii("x@example.com")), None),
            MatchOutcome::NoMatch
        );
        assert_eq!(feed.match_user(None, None), MatchOutcome::NoMatch);
    }

    #[test]
    fn refresh_replaces_dossier() {
        let mut feed = BrokerFeed::new();
        feed.ingest(dossier("c@example.com", Some("+1-555-0102"), &["old"]));
        feed.ingest(dossier("c@example.com", Some("+1-555-0199"), &["new"]));
        assert_eq!(feed.len(), 1);
        // Old phone index is gone, new one resolves.
        assert_eq!(
            feed.match_user(None, Some(&hash_pii("+1-555-0102"))),
            MatchOutcome::NoMatch
        );
        match feed.match_user(None, Some(&hash_pii("+1-555-0199"))) {
            MatchOutcome::Matched { attributes, .. } => {
                assert!(attributes.contains("new") && !attributes.contains("old"));
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn email_takes_precedence_over_phone() {
        let mut feed = BrokerFeed::new();
        feed.ingest(dossier("d@example.com", None, &["via-email"]));
        feed.ingest(dossier(
            "e@example.com",
            Some("+1-555-0103"),
            &["via-phone"],
        ));
        let out = feed.match_user(
            Some(&hash_pii("d@example.com")),
            Some(&hash_pii("+1-555-0103")),
        );
        match out {
            MatchOutcome::Matched { attributes, via } => {
                assert_eq!(via, "email");
                assert!(attributes.contains("via-email"));
            }
            other => panic!("expected match, got {other:?}"),
        }
    }
}
