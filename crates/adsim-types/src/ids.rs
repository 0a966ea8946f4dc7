//! Strongly-typed identifiers for every entity in the simulation.
//!
//! Each identifier is a newtype over a `u64`. The newtype pattern prevents
//! the classic simulator bug of passing a user id where a campaign id was
//! expected; the ids are otherwise plain integers so they can be used as
//! map keys, stored densely, and printed cheaply.
//!
//! Identifiers are allocated by the owning store (e.g., the platform's
//! profile store allocates [`UserId`]s); this module only defines the types
//! and a small sequential [`IdAllocator`].

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// A platform user (the people who see ads).
    UserId,
    "u"
);
define_id!(
    /// An advertiser registered on the platform. A transparency provider
    /// holds one or more of these.
    AdvertiserId,
    "adv"
);
define_id!(
    /// An advertiser *account*. The paper's "evading shutdown" discussion
    /// (§4) distributes Treads across many accounts of logically one
    /// provider, so accounts are distinct from advertisers.
    AccountId,
    "acct"
);
define_id!(
    /// An advertising campaign (a budgeted group of ads).
    CampaignId,
    "camp"
);
define_id!(
    /// A single ad (creative + targeting spec) within a campaign.
    AdId,
    "ad"
);
define_id!(
    /// A targeting attribute in the platform's catalog — either
    /// platform-computed or sourced from a data broker ("partner category").
    AttributeId,
    "attr"
);
define_id!(
    /// A saved audience (attribute-, pixel-, or PII-based).
    AudienceId,
    "aud"
);
define_id!(
    /// A tracking pixel placed by an advertiser on an external website.
    PixelId,
    "px"
);
define_id!(
    /// A publisher website in the browsing simulation.
    SiteId,
    "site"
);

/// Sequential allocator for any of the identifier types.
///
/// Stores hand one of these per entity class; ids start at the configured
/// base (default 1, so that 0 can be reserved for sentinels in tests).
#[derive(Debug, Clone)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Creates an allocator whose first issued id is 1.
    pub fn new() -> Self {
        Self { next: 1 }
    }

    /// Creates an allocator whose first issued id is `base`.
    pub fn starting_at(base: u64) -> Self {
        Self { next: base }
    }

    /// Issues the next identifier, converted into the requested id type.
    #[allow(clippy::should_implement_trait)] // not an iterator: the type is chosen per call
    pub fn next<T: From<u64>>(&mut self) -> T {
        let v = self.next;
        self.next += 1;
        T::from(v)
    }

    /// Number of ids issued so far (when starting at the default base of 1).
    pub fn issued(&self) -> u64 {
        self.next.saturating_sub(1)
    }
}

impl Default for IdAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(UserId(7).to_string(), "u7");
        assert_eq!(AdvertiserId(3).to_string(), "adv3");
        assert_eq!(CampaignId(1).to_string(), "camp1");
        assert_eq!(AdId(42).to_string(), "ad42");
        assert_eq!(AttributeId(507).to_string(), "attr507");
        assert_eq!(AudienceId(9).to_string(), "aud9");
        assert_eq!(PixelId(2).to_string(), "px2");
        assert_eq!(SiteId(11).to_string(), "site11");
        assert_eq!(AccountId(5).to_string(), "acct5");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(UserId(1));
        set.insert(UserId(2));
        set.insert(UserId(1));
        assert_eq!(set.len(), 2);
        assert!(UserId(1) < UserId(2));
    }

    #[test]
    fn allocator_is_sequential_and_typed() {
        let mut alloc = IdAllocator::new();
        let a: UserId = alloc.next();
        let b: UserId = alloc.next();
        assert_eq!(a, UserId(1));
        assert_eq!(b, UserId(2));
        assert_eq!(alloc.issued(), 2);
    }

    #[test]
    fn allocator_custom_base() {
        let mut alloc = IdAllocator::starting_at(100);
        let a: AdId = alloc.next();
        assert_eq!(a, AdId(100));
    }

    #[test]
    fn raw_roundtrip() {
        let id = AttributeId::from(99);
        assert_eq!(id.raw(), 99);
    }
}
