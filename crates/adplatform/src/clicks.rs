//! Ad clicks and what advertisers learn from them.
//!
//! §4 of the paper: "advertisers can often learn information about users
//! who click on their ads (e.g., by associating the targeting parameters
//! of the ad with the user's cookie); advertisers could be required to
//! reveal the learnt information to users."
//!
//! The mechanics: when a user clicks an ad, their browser fetches the
//! advertiser's landing page, presenting (or receiving) an
//! advertiser-domain cookie. The advertiser's server now holds a log
//! entry *(cookie, ad)* — and since the advertiser knows its own ad's
//! targeting parameters, it has effectively attached those parameters to
//! the cookie. This module records exactly that advertiser-side
//! knowledge, so experiment E12 can (a) quantify the leak and (b) run the
//! paper's remedy: a disclosure back to the user of everything the
//! advertiser learned about their cookie.

use crate::campaign::CampaignStore;
use adsim_types::{AdId, AttributeId, SimTime};
use std::collections::BTreeMap;

/// One click as the advertiser's server sees it: a cookie fetched the
/// landing page of a known ad. No platform user id — the advertiser never
/// gets one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClickRecord {
    /// The clicked ad.
    pub ad: AdId,
    /// The advertiser-domain cookie the browser presented (None if the
    /// user blocks cookies — then the click teaches nothing durable).
    pub cookie: Option<String>,
    /// When.
    pub at: SimTime,
}

/// The advertiser-side click log and the knowledge derivable from it.
#[derive(Debug, Clone, Default)]
pub struct ClickLog {
    records: Vec<ClickRecord>,
}

impl ClickLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a click.
    pub fn record(&mut self, click: ClickRecord) {
        self.records.push(click);
    }

    /// All recorded clicks.
    pub fn records(&self) -> &[ClickRecord] {
        &self.records
    }

    /// Number of clicks recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was clicked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// What the advertiser has learned, per cookie: the union of the
    /// targeting attributes of every ad that cookie clicked. This is the
    /// §4 leak — each clicked ad's targeting parameters are facts about
    /// the cookie's owner (they satisfied the predicate, or the ad would
    /// not have been shown).
    pub fn learned_by_cookie(
        &self,
        campaigns: &CampaignStore,
    ) -> BTreeMap<String, Vec<AttributeId>> {
        let mut learned: BTreeMap<String, Vec<AttributeId>> = BTreeMap::new();
        for rec in &self.records {
            let Some(cookie) = &rec.cookie else { continue };
            let Ok(ad) = campaigns.ad(rec.ad) else {
                continue;
            };
            let entry = learned.entry(cookie.clone()).or_default();
            for attr in ad.targeting.referenced_attributes() {
                if !entry.contains(&attr) {
                    entry.push(attr);
                }
            }
        }
        learned
    }

    /// The §4 remedy: the disclosure an advertiser would be *required* to
    /// return to the holder of `cookie` — everything it learned about
    /// them from their clicks.
    pub fn disclosure_for_cookie(
        &self,
        cookie: &str,
        campaigns: &CampaignStore,
        attribute_name: impl Fn(AttributeId) -> Option<String>,
    ) -> Vec<String> {
        self.learned_by_cookie(campaigns)
            .remove(cookie)
            .unwrap_or_default()
            .into_iter()
            .filter_map(attribute_name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::AdCreative;
    use crate::targeting::{TargetingExpr, TargetingSpec};
    use adsim_types::{AccountId, Money};

    fn store_with_ads() -> (CampaignStore, AdId, AdId) {
        let mut store = CampaignStore::new();
        let mut syms = adsim_types::SymbolTable::new();
        let camp = store.create_campaign(AccountId(1), "c", Money::dollars(2), None);
        let a = store
            .create_ad(
                camp,
                AdCreative::text("a", ""),
                TargetingSpec::including(TargetingExpr::And(vec![
                    TargetingExpr::Attr(AttributeId(1)),
                    TargetingExpr::Attr(AttributeId(2)),
                ])),
                &mut syms,
            )
            .expect("ad a");
        let b = store
            .create_ad(
                camp,
                AdCreative::text("b", ""),
                TargetingSpec::including(TargetingExpr::Attr(AttributeId(3))),
                &mut syms,
            )
            .expect("ad b");
        (store, a, b)
    }

    #[test]
    fn clicks_accumulate_learned_attributes_per_cookie() {
        let (store, a, b) = store_with_ads();
        let mut log = ClickLog::new();
        log.record(ClickRecord {
            ad: a,
            cookie: Some("c-1".into()),
            at: SimTime(1),
        });
        log.record(ClickRecord {
            ad: b,
            cookie: Some("c-1".into()),
            at: SimTime(2),
        });
        log.record(ClickRecord {
            ad: b,
            cookie: Some("c-2".into()),
            at: SimTime(3),
        });
        let learned = log.learned_by_cookie(&store);
        assert_eq!(
            learned["c-1"],
            vec![AttributeId(1), AttributeId(2), AttributeId(3)]
        );
        assert_eq!(learned["c-2"], vec![AttributeId(3)]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn cookieless_clicks_teach_nothing_durable() {
        let (store, a, _) = store_with_ads();
        let mut log = ClickLog::new();
        log.record(ClickRecord {
            ad: a,
            cookie: None,
            at: SimTime(1),
        });
        assert!(log.learned_by_cookie(&store).is_empty());
        assert!(!log.is_empty());
    }

    #[test]
    fn repeated_clicks_do_not_duplicate() {
        let (store, a, _) = store_with_ads();
        let mut log = ClickLog::new();
        for t in 0..3 {
            log.record(ClickRecord {
                ad: a,
                cookie: Some("c-1".into()),
                at: SimTime(t),
            });
        }
        assert_eq!(
            log.learned_by_cookie(&store)["c-1"],
            vec![AttributeId(1), AttributeId(2)]
        );
    }

    #[test]
    fn disclosure_names_the_learned_attributes() {
        let (store, a, _) = store_with_ads();
        let mut log = ClickLog::new();
        log.record(ClickRecord {
            ad: a,
            cookie: Some("c-1".into()),
            at: SimTime(1),
        });
        let names =
            log.disclosure_for_cookie("c-1", &store, |id| Some(format!("Attribute #{}", id.raw())));
        assert_eq!(names, vec!["Attribute #1", "Attribute #2"]);
        assert!(log
            .disclosure_for_cookie("c-unknown", &store, |_| None)
            .is_empty());
    }

    #[test]
    fn clicks_on_deleted_ads_are_skipped() {
        let (store, _, _) = store_with_ads();
        let mut log = ClickLog::new();
        log.record(ClickRecord {
            ad: AdId(999),
            cookie: Some("c-1".into()),
            at: SimTime(1),
        });
        assert!(log.learned_by_cookie(&store).is_empty());
    }
}
