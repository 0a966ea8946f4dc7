//! Cookie jars.
//!
//! The paper's privacy analysis (§3.1) notes the one leakage channel of
//! landing-page Treads: "the provider might also be able to associate
//! targeting information with users' cookies (that the provider places on
//! the landing pages)", and that "users can avert any possible leakage by
//! clearing out their cookies and disabling cookies before they start
//! receiving any Treads". [`CookieJar`] models exactly that: per-user
//! cookie storage with a policy switch, so experiment E4 can measure
//! linkage with cookies enabled, cleared, and disabled.

use std::collections::BTreeMap;

/// Whether the user's browser accepts cookies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CookiePolicy {
    /// Cookies are stored and replayed (the default browser posture).
    Accept,
    /// Cookies are rejected (the paper's mitigation).
    Block,
}

/// One user's cookie jar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CookieJar {
    /// Acceptance policy.
    pub policy: CookiePolicy,
    /// Stored cookies: domain → value.
    cookies: BTreeMap<String, String>,
}

impl CookieJar {
    /// A jar with the given policy.
    pub fn new(policy: CookiePolicy) -> Self {
        Self {
            policy,
            cookies: BTreeMap::new(),
        }
    }

    /// Attempts to set a cookie for `domain`. Returns whether it was
    /// stored (false under [`CookiePolicy::Block`]).
    pub fn set(&mut self, domain: impl Into<String>, value: impl Into<String>) -> bool {
        match self.policy {
            CookiePolicy::Accept => {
                self.cookies.insert(domain.into(), value.into());
                true
            }
            CookiePolicy::Block => false,
        }
    }

    /// The cookie the browser would send to `domain`, if any.
    pub fn get(&self, domain: &str) -> Option<&str> {
        self.cookies.get(domain).map(String::as_str)
    }

    /// Clears all stored cookies (the paper's "clearing out their
    /// cookies" mitigation).
    pub fn clear(&mut self) {
        self.cookies.clear();
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// True if no cookies are stored.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }
}

impl Default for CookieJar {
    fn default() -> Self {
        Self::new(CookiePolicy::Accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_policy_stores_and_replays() {
        let mut jar = CookieJar::default();
        assert!(jar.set("provider.example", "cookie-abc"));
        assert_eq!(jar.get("provider.example"), Some("cookie-abc"));
        assert_eq!(jar.get("other.example"), None);
        assert_eq!(jar.len(), 1);
    }

    #[test]
    fn block_policy_rejects() {
        let mut jar = CookieJar::new(CookiePolicy::Block);
        assert!(!jar.set("provider.example", "cookie-abc"));
        assert!(jar.is_empty());
        assert_eq!(jar.get("provider.example"), None);
    }

    #[test]
    fn clear_removes_everything() {
        let mut jar = CookieJar::default();
        jar.set("a.example", "1");
        jar.set("b.example", "2");
        jar.clear();
        assert!(jar.is_empty());
        assert_eq!(jar.get("a.example"), None);
    }

    #[test]
    fn overwrite_same_domain() {
        let mut jar = CookieJar::default();
        jar.set("a.example", "old");
        jar.set("a.example", "new");
        assert_eq!(jar.get("a.example"), Some("new"));
        assert_eq!(jar.len(), 1);
    }
}
