//! Broker person records.
//!
//! A data broker knows people by their offline identities (mailing lists,
//! loyalty programs, public records), keyed here — as in real
//! broker→platform integrations — by **hashed PII**. A record carries the
//! set of catalog attributes the broker asserts about the person.

use adsim_types::hash::{hash_pii, Digest};
use std::collections::BTreeSet;

/// One person's dossier at a data broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerRecord {
    /// Hashed email address (normalized, SHA-256), the primary match key.
    pub hashed_email: Digest,
    /// Hashed phone number, an alternate match key (optional — brokers
    /// often hold only one identifier).
    pub hashed_phone: Option<Digest>,
    /// Names of the catalog attributes this person holds. A `BTreeSet`
    /// keeps iteration order deterministic across the whole simulation.
    pub attributes: BTreeSet<String>,
}

impl BrokerRecord {
    /// Creates a record from raw (unhashed) PII. The broker normalizes and
    /// hashes exactly like the platform will, so match keys line up.
    pub fn from_pii(email: &str, phone: Option<&str>) -> Self {
        Self {
            hashed_email: hash_pii(email),
            hashed_phone: phone.map(hash_pii),
            attributes: BTreeSet::new(),
        }
    }

    /// Creates a record directly from already-hashed identifiers.
    pub fn from_hashes(hashed_email: Digest, hashed_phone: Option<Digest>) -> Self {
        Self {
            hashed_email,
            hashed_phone,
            attributes: BTreeSet::new(),
        }
    }

    /// Adds an attribute assertion to the dossier.
    pub fn assert_attribute(&mut self, name: impl Into<String>) {
        self.attributes.insert(name.into());
    }

    /// True if the dossier asserts `name`.
    pub fn has(&self, name: &str) -> bool {
        self.attributes.contains(name)
    }

    /// Number of asserted attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True if the broker asserts nothing about this person.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pii_normalizes_before_hashing() {
        let a = BrokerRecord::from_pii(" Alice@Example.COM", Some("+1-555-0100"));
        let b = BrokerRecord::from_pii("alice@example.com", Some("+1-555-0100"));
        assert_eq!(a.hashed_email, b.hashed_email);
        assert_eq!(a.hashed_phone, b.hashed_phone);
    }

    #[test]
    fn attribute_assertions() {
        let mut r = BrokerRecord::from_pii("a@example.com", None);
        assert!(r.is_empty());
        r.assert_attribute("Net worth: $2M+");
        r.assert_attribute("Net worth: $2M+"); // idempotent
        r.assert_attribute("Job role: professor / educator");
        assert_eq!(r.len(), 2);
        assert!(r.has("Net worth: $2M+"));
        assert!(!r.has("Home type: apartment"));
    }

    #[test]
    fn attributes_iterate_in_sorted_order() {
        let mut r = BrokerRecord::from_pii("a@example.com", None);
        r.assert_attribute("zeta");
        r.assert_attribute("alpha");
        let order: Vec<_> = r.attributes.iter().cloned().collect();
        assert_eq!(order, vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn phone_is_optional() {
        let r = BrokerRecord::from_pii("a@example.com", None);
        assert!(r.hashed_phone.is_none());
    }
}
