//! Publisher sites.
//!
//! A site is somewhere users browse. Each page view renders a number of ad
//! slots (each one an impression opportunity on the ad platform) and fires
//! any tracking pixels embedded on the site. The transparency provider's
//! opt-in website is just a [`Site`] with its pixel embedded and no ad
//! slots.

use adsim_types::{PixelId, SiteId};
use std::collections::BTreeMap;

/// A publisher website.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Registry-assigned id.
    pub id: SiteId,
    /// Display name / hostname.
    pub name: String,
    /// Ad slots rendered per page view (0 for sites that show no ads,
    /// e.g. the provider's opt-in page).
    pub ad_slots_per_view: u8,
    /// Tracking pixels embedded on the site; all fire on every page view.
    pub pixels: Vec<PixelId>,
}

/// The registry of browsable sites.
#[derive(Debug, Clone, Default)]
pub struct SiteRegistry {
    sites: BTreeMap<SiteId, Site>,
    next_id: u64,
}

impl SiteRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a site.
    pub fn create(&mut self, name: impl Into<String>, ad_slots_per_view: u8) -> SiteId {
        self.next_id += 1;
        let id = SiteId(self.next_id);
        self.sites.insert(
            id,
            Site {
                id,
                name: name.into(),
                ad_slots_per_view,
                pixels: Vec::new(),
            },
        );
        id
    }

    /// Embeds a tracking pixel on a site. Embedding twice is idempotent.
    pub fn embed_pixel(&mut self, site: SiteId, pixel: PixelId) -> bool {
        match self.sites.get_mut(&site) {
            Some(s) => {
                if !s.pixels.contains(&pixel) {
                    s.pixels.push(pixel);
                }
                true
            }
            None => false,
        }
    }

    /// Looks up a site.
    pub fn get(&self, id: SiteId) -> Option<&Site> {
        self.sites.get(&id)
    }

    /// All site ids, in order.
    pub fn ids(&self) -> Vec<SiteId> {
        self.sites.keys().copied().collect()
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if no sites exist.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_embed() {
        let mut reg = SiteRegistry::new();
        let feed = reg.create("social-feed.example", 3);
        let optin = reg.create("know-your-data.example/optin", 0);
        assert_eq!(reg.len(), 2);
        assert!(reg.embed_pixel(optin, PixelId(1)));
        assert!(reg.embed_pixel(optin, PixelId(1))); // idempotent
        let site = reg.get(optin).expect("site");
        assert_eq!(site.pixels, vec![PixelId(1)]);
        assert_eq!(site.ad_slots_per_view, 0);
        assert_eq!(reg.get(feed).expect("site").ad_slots_per_view, 3);
    }

    #[test]
    fn embed_on_missing_site_fails() {
        let mut reg = SiteRegistry::new();
        assert!(!reg.embed_pixel(SiteId(7), PixelId(1)));
        assert!(reg.get(SiteId(7)).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn ids_are_ordered() {
        let mut reg = SiteRegistry::new();
        let a = reg.create("a", 1);
        let b = reg.create("b", 1);
        assert_eq!(reg.ids(), vec![a, b]);
    }
}
