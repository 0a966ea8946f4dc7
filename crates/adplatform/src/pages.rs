//! Advertiser pages.
//!
//! The paper's validation signed its users up "by liking a Facebook page
//! that we as the transparency provider had created". Pages here are
//! minimal: an advertiser-owned entity users can like; likes feed
//! page-engagement audiences through the `Platform` façade.

use adsim_types::{AccountId, Error, Result};
use std::collections::BTreeMap;

/// An advertiser-created page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Page id (a bare u64; pages appear in user profiles as liked ids).
    pub id: u64,
    /// Owning advertiser account.
    pub owner: AccountId,
    /// Display name, e.g. `"Know Your Data (transparency provider)"`.
    pub name: String,
}

/// The platform's page registry.
#[derive(Debug, Clone, Default)]
pub struct PageRegistry {
    pages: BTreeMap<u64, Page>,
    next_id: u64,
}

impl PageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a page owned by `owner`.
    pub fn create(&mut self, owner: AccountId, name: impl Into<String>) -> u64 {
        self.next_id += 1;
        self.pages.insert(
            self.next_id,
            Page {
                id: self.next_id,
                owner,
                name: name.into(),
            },
        );
        self.next_id
    }

    /// Looks up a page.
    pub fn get(&self, id: u64) -> Result<&Page> {
        self.pages
            .get(&id)
            .ok_or_else(|| Error::not_found("page", id))
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no pages exist.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_get() {
        let mut reg = PageRegistry::new();
        let id = reg.create(AccountId(3), "Know Your Data");
        let page = reg.get(id).expect("page");
        assert_eq!(page.name, "Know Your Data");
        assert_eq!(page.owner, AccountId(3));
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn missing_page_errors() {
        let reg = PageRegistry::new();
        assert!(reg.get(1).is_err());
    }

    #[test]
    fn ids_are_sequential() {
        let mut reg = PageRegistry::new();
        assert_eq!(reg.create(AccountId(1), "a"), 1);
        assert_eq!(reg.create(AccountId(1), "b"), 2);
    }
}
