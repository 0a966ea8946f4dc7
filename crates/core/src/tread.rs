//! The Tread itself.
//!
//! A [`Tread`] binds together the three decisions §3 lays out:
//!
//! 1. **what** is revealed — the [`Disclosure`];
//! 2. **where** it is revealed — [`DisclosureChannel::InAd`] (inside the
//!    creative) or [`DisclosureChannel::LandingPage`] (on an external page
//!    the ad links to — the ToS-compliant variant);
//! 3. **how** it is encoded — one of the four [`Encoding`] channels.
//!
//! [`Tread::build_creative`] renders the corresponding platform ad
//! creative, and [`Tread::targeting`] produces the targeting spec whose
//! delivery semantics make the disclosure *true* for every recipient: the
//! opted-in audience intersected with (or excluding) the disclosed
//! attribute.

use crate::disclosure::Disclosure;
use crate::encoding::{encode, Codebook, Encoding};
use adplatform::campaign::AdCreative;
use adplatform::targeting::{TargetingExpr, TargetingSpec};
use adsim_types::{AttributeId, AudienceId};

/// Where the disclosure is placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisclosureChannel {
    /// Inside the ad creative itself. The user never leaves the platform —
    /// "leaving no scope for leakage except via the platform" (§3.1) — but
    /// explicit encodings violate ToS here.
    InAd {
        /// How the disclosure is encoded into the creative.
        encoding: Encoding,
    },
    /// On an external landing page the ad links to. Passes ToS review
    /// (platforms do not review landing pages) but opens the cookie
    /// leakage channel the paper's privacy analysis covers.
    LandingPage {
        /// URL of the provider-hosted disclosure page.
        url: String,
    },
}

/// A transparency-enhancing advertisement, ready to submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tread {
    /// What this Tread reveals to its recipients.
    pub disclosure: Disclosure,
    /// Where and how the disclosure is carried.
    pub channel: DisclosureChannel,
    /// Headline for the creative (shared across a provider's Treads).
    pub headline: String,
}

/// Default headline a transparency provider uses.
pub const DEFAULT_HEADLINE: &str = "A message from your transparency provider";

impl Tread {
    /// A Tread carrying its disclosure in the ad, with the given encoding.
    pub fn in_ad(disclosure: Disclosure, encoding: Encoding) -> Self {
        Self {
            disclosure,
            channel: DisclosureChannel::InAd { encoding },
            headline: DEFAULT_HEADLINE.to_string(),
        }
    }

    /// A Tread whose ad is innocuous and whose disclosure lives at `url`.
    pub fn via_landing_page(disclosure: Disclosure, url: impl Into<String>) -> Self {
        Self {
            disclosure,
            channel: DisclosureChannel::LandingPage { url: url.into() },
            headline: DEFAULT_HEADLINE.to_string(),
        }
    }

    /// Overrides the headline (the crowdsourcing experiment varies
    /// headlines per account to defeat template clustering).
    pub fn with_headline(mut self, headline: impl Into<String>) -> Self {
        self.headline = headline.into();
        self
    }

    /// Renders the platform ad creative for this Tread.
    ///
    /// In-ad Treads encode the disclosure into the body (and image, for
    /// stego); landing-page Treads get a neutral body plus the landing
    /// URL.
    pub fn build_creative(&self, codebook: &mut Codebook) -> AdCreative {
        match &self.channel {
            DisclosureChannel::InAd { encoding } => {
                let payload = encode(&self.disclosure, *encoding, codebook);
                let mut creative = AdCreative::text(self.headline.clone(), payload.body);
                if let Some(image) = payload.image {
                    creative = creative.with_image(image);
                }
                creative
            }
            DisclosureChannel::LandingPage { url } => AdCreative::text(
                self.headline.clone(),
                "Curious what advertisers can know? Tap to find out.",
            )
            .with_landing(url.clone()),
        }
    }

    /// The landing-page content for a landing-page Tread (what the
    /// provider publishes at the URL). In-ad Treads have none.
    pub fn landing_content(&self) -> Option<String> {
        match &self.channel {
            DisclosureChannel::LandingPage { .. } => Some(self.disclosure.human_text()),
            DisclosureChannel::InAd { .. } => None,
        }
    }

    /// Builds the targeting spec that makes this Tread's disclosure true
    /// for every recipient.
    ///
    /// * `HasAttribute` / `GroupBit` / `HasPii` → opted-in audience ∧
    ///   predicate;
    /// * `LacksAttribute` → opted-in audience ∧ ¬attribute (the exclusion
    ///   pattern).
    ///
    /// `resolve` maps an attribute name to its platform id (the provider
    /// looks names up in the public catalog); `bit_members` lists, for
    /// `GroupBit`, the attribute ids whose (1-based) code has that bit set.
    pub fn targeting(
        &self,
        optin_audience: AudienceId,
        resolve: impl Fn(&str) -> Option<AttributeId>,
        bit_members: impl Fn(&str, u8) -> Vec<AttributeId>,
        pii_audience: impl Fn(&str) -> Option<AudienceId>,
    ) -> Option<TargetingSpec> {
        let base = TargetingExpr::InAudience(optin_audience);
        match &self.disclosure {
            Disclosure::HasAttribute { name } => {
                let attr = resolve(name)?;
                Some(TargetingSpec::including(TargetingExpr::And(vec![
                    base,
                    TargetingExpr::Attr(attr),
                ])))
            }
            Disclosure::LacksAttribute { name } => {
                let attr = resolve(name)?;
                Some(TargetingSpec::including_excluding(
                    base,
                    TargetingExpr::Attr(attr),
                ))
            }
            Disclosure::GroupBit { group, bit } => {
                let members = bit_members(group, *bit);
                if members.is_empty() {
                    return None;
                }
                Some(TargetingSpec::including(TargetingExpr::And(vec![
                    base,
                    TargetingExpr::Or(members.into_iter().map(TargetingExpr::Attr).collect()),
                ])))
            }
            Disclosure::VisitedZip { zip } => {
                Some(TargetingSpec::including(TargetingExpr::And(vec![
                    base,
                    TargetingExpr::VisitedZip(zip.clone()),
                ])))
            }
            Disclosure::HasPii { batch } => {
                let audience = pii_audience(batch)?;
                Some(TargetingSpec::including(TargetingExpr::And(vec![
                    base,
                    TargetingExpr::InAudience(audience),
                ])))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::decode;

    fn has(name: &str) -> Disclosure {
        Disclosure::HasAttribute { name: name.into() }
    }

    #[test]
    fn in_ad_creative_round_trips_through_decode() {
        for encoding in Encoding::ALL {
            let tread = Tread::in_ad(has("Net worth: $2M+"), encoding);
            let mut book = Codebook::new(1);
            let creative = tread.build_creative(&mut book);
            let decoded =
                decode(&creative.body, creative.image.as_deref(), &book).expect("decodes");
            assert_eq!(decoded, has("Net worth: $2M+"), "{}", encoding.label());
            assert!(creative.landing_url.is_none());
        }
    }

    #[test]
    fn landing_page_tread_keeps_creative_clean() {
        let tread = Tread::via_landing_page(has("Net worth: $2M+"), "https://provider.example/r/1");
        let mut book = Codebook::new(1);
        let creative = tread.build_creative(&mut book);
        // The creative must not contain the disclosure.
        assert!(!creative.visible_text().to_lowercase().contains("net worth"));
        assert_eq!(
            creative.landing_url.as_deref(),
            Some("https://provider.example/r/1")
        );
        // The disclosure text is published at the landing page instead.
        let content = tread.landing_content().expect("has landing content");
        assert!(content.contains("Net worth: $2M+"));
        // In-ad Treads have no landing content.
        assert!(Tread::in_ad(has("x"), Encoding::Explicit)
            .landing_content()
            .is_none());
    }

    #[test]
    fn targeting_for_has_attribute() {
        let tread = Tread::in_ad(has("Net worth: $2M+"), Encoding::CodebookToken);
        let spec = tread
            .targeting(
                AudienceId(1),
                |name| (name == "Net worth: $2M+").then_some(AttributeId(7)),
                |_, _| vec![],
                |_| None,
            )
            .expect("spec");
        assert_eq!(
            spec.include,
            TargetingExpr::And(vec![
                TargetingExpr::InAudience(AudienceId(1)),
                TargetingExpr::Attr(AttributeId(7)),
            ])
        );
        assert!(spec.exclude.is_none());
    }

    #[test]
    fn targeting_for_lacks_attribute_uses_exclusion() {
        let tread = Tread::in_ad(
            Disclosure::LacksAttribute {
                name: "Housing: renter".into(),
            },
            Encoding::CodebookToken,
        );
        let spec = tread
            .targeting(
                AudienceId(1),
                |_| Some(AttributeId(3)),
                |_, _| vec![],
                |_| None,
            )
            .expect("spec");
        assert_eq!(spec.include, TargetingExpr::InAudience(AudienceId(1)));
        assert_eq!(spec.exclude, Some(TargetingExpr::Attr(AttributeId(3))));
    }

    #[test]
    fn targeting_for_group_bit_is_an_or() {
        let tread = Tread::in_ad(
            Disclosure::GroupBit {
                group: "net_worth".into(),
                bit: 0,
            },
            Encoding::CodebookToken,
        );
        let spec = tread
            .targeting(
                AudienceId(1),
                |_| None,
                |group, bit| {
                    assert_eq!(group, "net_worth");
                    assert_eq!(bit, 0);
                    vec![AttributeId(10), AttributeId(12)]
                },
                |_| None,
            )
            .expect("spec");
        match spec.include {
            TargetingExpr::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(&parts[1], TargetingExpr::Or(ms) if ms.len() == 2));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn targeting_for_pii_intersects_audiences() {
        let tread = Tread::in_ad(
            Disclosure::HasPii {
                batch: "phone-2fa-2018w40".into(),
            },
            Encoding::CodebookToken,
        );
        let spec = tread
            .targeting(
                AudienceId(1),
                |_| None,
                |_, _| vec![],
                |batch| (batch == "phone-2fa-2018w40").then_some(AudienceId(9)),
            )
            .expect("spec");
        assert_eq!(
            spec.include,
            TargetingExpr::And(vec![
                TargetingExpr::InAudience(AudienceId(1)),
                TargetingExpr::InAudience(AudienceId(9)),
            ])
        );
    }

    #[test]
    fn unresolvable_targets_yield_none() {
        let tread = Tread::in_ad(has("No such attribute"), Encoding::Explicit);
        assert!(tread
            .targeting(AudienceId(1), |_| None, |_, _| vec![], |_| None)
            .is_none());
        let tread = Tread::in_ad(
            Disclosure::GroupBit {
                group: "nope".into(),
                bit: 0,
            },
            Encoding::Explicit,
        );
        assert!(tread
            .targeting(AudienceId(1), |_| None, |_, _| vec![], |_| None)
            .is_none());
    }

    #[test]
    fn custom_headline() {
        let tread = Tread::in_ad(has("x"), Encoding::Explicit).with_headline("Custom");
        let mut book = Codebook::new(1);
        assert_eq!(tread.build_creative(&mut book).headline, "Custom");
    }
}
