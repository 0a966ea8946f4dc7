//! The user-side decoder.
//!
//! Behind the browser extension sits this client: it takes the ads the
//! extension captured ([`websim::extension::ExtensionLog`]), decodes any
//! Treads among them, and reconstructs the user's **revealed profile** —
//! what the ad platform provably holds about them. "Each user sees only
//! those Treads corresponding to the targeting parameters they satisfy,
//! and therefore learns what these parameters are from the content of the
//! Treads" (§1).
//!
//! The client holds exactly what the provider shares at opt-in: the
//! [`Codebook`] for obfuscated Treads and the (public) group-member lists
//! needed to turn bit-slice Treads back into attribute values. For
//! landing-page Treads, decoding requires fetching the landing URL — the
//! caller supplies a fetch function, so tests and experiments can plug in
//! the simulated [`websim::landing::LandingServer`].

use crate::disclosure::Disclosure;
use crate::encoding::{decode, Codebook};
use crate::planner::decode_group_code;
use adplatform::attributes::AttributeCatalog;
use std::collections::{BTreeMap, BTreeSet};
use websim::extension::ExtensionLog;

/// What the user learned from the Treads they received.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RevealedProfile {
    /// Attributes the platform provably holds (positive Treads).
    pub has: BTreeSet<String>,
    /// Attributes provably false-or-missing (exclusion Treads).
    pub lacks_or_missing: BTreeSet<String>,
    /// Decoded group values: group → member attribute name. Groups with
    /// received bits that form no valid code are reported under
    /// [`RevealedProfile::corrupt_groups`].
    pub group_values: BTreeMap<String, String>,
    /// Groups whose received bits decoded to no valid member.
    pub corrupt_groups: BTreeSet<String>,
    /// ZIP codes the platform provably located the user in recently.
    pub visited_zips: BTreeSet<String>,
    /// PII batches the platform provably holds an identifier from.
    pub pii_batches: BTreeSet<String>,
    /// Captured ads that decoded as no Tread at all (ordinary ads).
    pub non_tread_ads: usize,
}

impl RevealedProfile {
    /// Total count of positively revealed facts.
    pub fn revealed_count(&self) -> usize {
        self.has.len()
            + self.lacks_or_missing.len()
            + self.group_values.len()
            + self.pii_batches.len()
            + self.visited_zips.len()
    }
}

/// The decoder configuration a user receives at opt-in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreadClient {
    /// The provider's codebook.
    pub codebook: Codebook,
    /// Group → ordered member attribute names (from the public catalog).
    pub group_members: BTreeMap<String, Vec<String>>,
}

impl TreadClient {
    /// Builds a client from the shared codebook and the platform's public
    /// attribute catalog (for group decoding).
    pub fn new(codebook: Codebook, catalog: &AttributeCatalog) -> Self {
        let mut group_members: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for def in catalog.all() {
            if let Some(group) = &def.group {
                group_members
                    .entry(group.clone())
                    .or_default()
                    .push(def.name.clone());
            }
        }
        Self {
            codebook,
            group_members,
        }
    }

    /// Decodes one piece of ad content (body + optional image).
    pub fn decode_ad(&self, body: &str, image: Option<&[u8]>) -> Option<Disclosure> {
        decode(body, image, &self.codebook).ok()
    }

    /// Decodes a full extension log into the user's revealed profile.
    ///
    /// `fetch_landing` resolves a landing URL to its page content (the
    /// user clicking through); pass `|_| None` to skip landing-page
    /// Treads (e.g. a user who never clicks ads).
    pub fn decode_log(
        &self,
        log: &ExtensionLog,
        mut fetch_landing: impl FnMut(&str) -> Option<String>,
    ) -> RevealedProfile {
        let mut profile = RevealedProfile::default();
        let mut group_bits: BTreeMap<String, BTreeSet<u8>> = BTreeMap::new();

        // Deduplicate by ad id — frequency caps mean repeat impressions.
        let mut seen_ads = BTreeSet::new();
        for obs in log.observations() {
            if !seen_ads.insert(obs.ad) {
                continue;
            }
            // In-ad channels first; fall back to the landing page.
            let disclosure = self
                .decode_ad(&obs.creative.body, obs.creative.image.as_deref())
                .or_else(|| {
                    obs.creative
                        .landing_url
                        .as_deref()
                        .and_then(&mut fetch_landing)
                        .and_then(|content| self.decode_ad(&content, None))
                });
            match disclosure {
                Some(Disclosure::HasAttribute { name }) => {
                    profile.has.insert(name);
                }
                Some(Disclosure::LacksAttribute { name }) => {
                    profile.lacks_or_missing.insert(name);
                }
                Some(Disclosure::GroupBit { group, bit }) => {
                    group_bits.entry(group).or_default().insert(bit);
                }
                Some(Disclosure::VisitedZip { zip }) => {
                    profile.visited_zips.insert(zip);
                }
                Some(Disclosure::HasPii { batch }) => {
                    profile.pii_batches.insert(batch);
                }
                None => profile.non_tread_ads += 1,
            }
        }

        // Resolve group bit sets to values.
        for (group, bits) in group_bits {
            let members = self.group_members.get(&group);
            let bits: Vec<u8> = bits.into_iter().collect();
            match members {
                Some(members) => match decode_group_code(&bits, members.len()) {
                    Some(idx) => {
                        profile.group_values.insert(group, members[idx].clone());
                    }
                    None => {
                        profile.corrupt_groups.insert(group);
                    }
                },
                None => {
                    profile.corrupt_groups.insert(group);
                }
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{encode, Encoding};
    use crate::tread::Tread;
    use adplatform::attributes::AttributeSource;
    use adplatform::campaign::AdCreative;
    use adsim_types::{AdId, SimTime, UserId};

    fn catalog() -> AttributeCatalog {
        let mut c = AttributeCatalog::new();
        for band in ["A", "B", "C"] {
            c.register(
                format!("Net worth: {band}"),
                AttributeSource::Partner {
                    broker: "NorthStar Data".into(),
                },
                Some("net_worth".into()),
                0.1,
            );
        }
        c.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        c
    }

    fn client_and_book() -> (TreadClient, Codebook) {
        let book = Codebook::new(7);
        (TreadClient::new(book.clone(), &catalog()), book)
    }

    fn observe(
        log: &mut ExtensionLog,
        ad: u64,
        disclosure: Disclosure,
        encoding: Encoding,
        book: &mut Codebook,
    ) {
        let payload = encode(&disclosure, encoding, book);
        let mut creative = AdCreative::text("h", payload.body);
        if let Some(img) = payload.image {
            creative = creative.with_image(img);
        }
        log.observe(AdId(ad), creative, SimTime(0));
    }

    #[test]
    fn decodes_positive_and_negative_disclosures() {
        let (_, mut book) = client_and_book();
        let mut log = ExtensionLog::for_user(UserId(1));
        observe(
            &mut log,
            1,
            Disclosure::HasAttribute {
                name: "Interest: coffee".into(),
            },
            Encoding::CodebookToken,
            &mut book,
        );
        observe(
            &mut log,
            2,
            Disclosure::LacksAttribute {
                name: "Net worth: A".into(),
            },
            Encoding::ZeroWidth,
            &mut book,
        );
        // Rebuild the client with the extended codebook (as shared).
        let client = TreadClient::new(book, &catalog());
        let profile = client.decode_log(&log, |_| None);
        assert!(profile.has.contains("Interest: coffee"));
        assert!(profile.lacks_or_missing.contains("Net worth: A"));
        assert_eq!(profile.revealed_count(), 2);
        assert_eq!(profile.non_tread_ads, 0);
    }

    #[test]
    fn group_bits_resolve_to_a_value() {
        let (_, mut book) = client_and_book();
        let mut log = ExtensionLog::for_user(UserId(1));
        // Member "Net worth: B" is index 1 → code 2 → bit 1 only.
        observe(
            &mut log,
            1,
            Disclosure::GroupBit {
                group: "net_worth".into(),
                bit: 1,
            },
            Encoding::CodebookToken,
            &mut book,
        );
        let client = TreadClient::new(book, &catalog());
        let profile = client.decode_log(&log, |_| None);
        assert_eq!(
            profile.group_values.get("net_worth").map(String::as_str),
            Some("Net worth: B")
        );
        assert!(profile.corrupt_groups.is_empty());
    }

    #[test]
    fn corrupt_group_codes_are_flagged() {
        let (_, mut book) = client_and_book();
        let mut log = ExtensionLog::for_user(UserId(1));
        // Bits 0+1 → code 3 = member C (valid); bits 0+1+2 → code 7 > 3.
        for bit in [0u8, 1, 2] {
            observe(
                &mut log,
                10 + bit as u64,
                Disclosure::GroupBit {
                    group: "net_worth".into(),
                    bit,
                },
                Encoding::CodebookToken,
                &mut book,
            );
        }
        let client = TreadClient::new(book, &catalog());
        let profile = client.decode_log(&log, |_| None);
        assert!(profile.group_values.is_empty());
        assert!(profile.corrupt_groups.contains("net_worth"));
    }

    #[test]
    fn ordinary_ads_count_as_non_treads() {
        let (client, _) = client_and_book();
        let mut log = ExtensionLog::for_user(UserId(1));
        log.observe(
            AdId(1),
            AdCreative::text("Buy coffee", "20% off this week"),
            SimTime(0),
        );
        let profile = client.decode_log(&log, |_| None);
        assert_eq!(profile.non_tread_ads, 1);
        assert_eq!(profile.revealed_count(), 0);
    }

    #[test]
    fn repeat_impressions_decode_once() {
        let (_, mut book) = client_and_book();
        let mut log = ExtensionLog::for_user(UserId(1));
        for _ in 0..3 {
            observe(
                &mut log,
                1, // same ad id
                Disclosure::HasAttribute {
                    name: "Interest: coffee".into(),
                },
                Encoding::CodebookToken,
                &mut book,
            );
        }
        let client = TreadClient::new(book, &catalog());
        let profile = client.decode_log(&log, |_| None);
        assert_eq!(profile.has.len(), 1);
        assert_eq!(profile.non_tread_ads, 0);
    }

    #[test]
    fn landing_page_treads_decode_via_fetch() {
        let (client, _) = client_and_book();
        let tread = Tread::via_landing_page(
            Disclosure::HasAttribute {
                name: "Net worth: A".into(),
            },
            "https://p.example/r/0",
        );
        let mut book = Codebook::new(7);
        let creative = tread.build_creative(&mut book);
        let landing_content = tread.landing_content().expect("content");
        let mut log = ExtensionLog::for_user(UserId(1));
        log.observe(AdId(1), creative, SimTime(0));
        // With a fetcher: decoded. Without: not.
        let profile = client.decode_log(&log, |url| {
            (url == "https://p.example/r/0").then(|| landing_content.clone())
        });
        assert!(profile.has.contains("Net worth: A"));
        let profile = client.decode_log(&log, |_| None);
        assert_eq!(profile.revealed_count(), 0);
        assert_eq!(profile.non_tread_ads, 1);
    }

    #[test]
    fn pii_batches_are_collected() {
        let (_, mut book) = client_and_book();
        let mut log = ExtensionLog::for_user(UserId(1));
        observe(
            &mut log,
            1,
            Disclosure::HasPii {
                batch: "phone-2fa-1".into(),
            },
            Encoding::ImageStego,
            &mut book,
        );
        let client = TreadClient::new(book, &catalog());
        let profile = client.decode_log(&log, |_| None);
        assert!(profile.pii_batches.contains("phone-2fa-1"));
    }
}
