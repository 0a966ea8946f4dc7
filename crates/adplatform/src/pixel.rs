//! Tracking pixels.
//!
//! An advertiser creates a pixel, embeds it on an external website, and the
//! platform records which *platform users* loaded pages carrying it. The
//! advertiser never learns who visited — only that a visitor audience
//! exists (the anonymity property §3.1's opt-in flow depends on).
//!
//! The registry stores the full visit log platform-side; `websim` generates
//! the visits and the `Platform` façade routes them into pixel audiences.

use adsim_types::{AccountId, Error, PixelId, Result, SimTime, UserId};
use std::collections::BTreeMap;

/// A registered tracking pixel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pixel {
    /// Platform-assigned id.
    pub id: PixelId,
    /// Owning advertiser account.
    pub owner: AccountId,
    /// Free-form label the advertiser gave the pixel (e.g. which opt-in
    /// page it instruments).
    pub label: String,
}

/// One pixel fire, recorded platform-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelEvent {
    /// Which pixel fired.
    pub pixel: PixelId,
    /// Which platform user loaded the instrumented page.
    pub user: UserId,
    /// When.
    pub at: SimTime,
}

/// The platform's pixel registry and visit log.
#[derive(Debug, Clone, Default)]
pub struct PixelRegistry {
    pixels: BTreeMap<PixelId, Pixel>,
    next_id: u64,
    events: Vec<PixelEvent>,
}

impl PixelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pixel for an advertiser account.
    pub fn create(&mut self, owner: AccountId, label: impl Into<String>) -> PixelId {
        self.next_id += 1;
        let id = PixelId(self.next_id);
        self.pixels.insert(
            id,
            Pixel {
                id,
                owner,
                label: label.into(),
            },
        );
        id
    }

    /// Looks up a pixel.
    pub fn get(&self, id: PixelId) -> Result<&Pixel> {
        self.pixels
            .get(&id)
            .ok_or_else(|| Error::not_found("pixel", id))
    }

    /// Records a fire. Returns an error for unregistered pixels (a stale
    /// embed on some website).
    pub fn record(&mut self, pixel: PixelId, user: UserId, at: SimTime) -> Result<()> {
        if !self.pixels.contains_key(&pixel) {
            return Err(Error::not_found("pixel", pixel));
        }
        self.events.push(PixelEvent { pixel, user, at });
        Ok(())
    }

    /// Makes room for `additional` more fires in the journal.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Replaces the fire journal with a checkpointed event list. The
    /// registered pixels themselves are static configuration and are
    /// reconstructed by the host, not checkpointed.
    pub fn restore_events(&mut self, events: Vec<PixelEvent>) {
        self.events = events;
    }

    /// Number of registered pixels.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// True if no pixels are registered.
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Platform-internal full event log.
    pub fn events(&self) -> &[PixelEvent] {
        &self.events
    }

    /// The number of fires a pixel has recorded. This *is* advertiser
    /// visible (platforms show pixel activity counts) — but never who.
    pub fn fire_count(&self, pixel: PixelId) -> usize {
        self.events.iter().filter(|e| e.pixel == pixel).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_record() {
        let mut reg = PixelRegistry::new();
        let px = reg.create(AccountId(1), "optin-page");
        assert_eq!(reg.get(px).expect("pixel").label, "optin-page");
        reg.record(px, UserId(1), SimTime(10)).expect("record");
        reg.record(px, UserId(2), SimTime(20)).expect("record");
        assert_eq!(reg.fire_count(px), 2);
        assert_eq!(reg.events().len(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unknown_pixel_rejected() {
        let mut reg = PixelRegistry::new();
        let err = reg
            .record(PixelId(9), UserId(1), SimTime(0))
            .expect_err("no pixel");
        assert_eq!(err, Error::not_found("pixel", PixelId(9)));
        assert!(reg.get(PixelId(9)).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn fire_counts_are_per_pixel() {
        let mut reg = PixelRegistry::new();
        let a = reg.create(AccountId(1), "a");
        let b = reg.create(AccountId(1), "b");
        reg.record(a, UserId(1), SimTime(0)).expect("record");
        reg.record(b, UserId(1), SimTime(0)).expect("record");
        reg.record(b, UserId(2), SimTime(1)).expect("record");
        assert_eq!(reg.fire_count(a), 1);
        assert_eq!(reg.fire_count(b), 2);
    }
}
