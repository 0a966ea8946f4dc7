//! The opt-in flows (§3.1 "User opt-in", "Supporting PII", "Supporting
//! custom attributes").
//!
//! Three ways a user joins a transparency provider's service:
//!
//! 1. **Page opt-in** — like the provider's platform page (the
//!    validation's mechanism). Not anonymous: the platform knows, and the
//!    page's engagement audience is visible to the provider only as an
//!    aggregate.
//! 2. **Pixel opt-in** — visit the provider's website, where a platform
//!    tracking pixel fires. "Users could … remain anonymous to the
//!    transparency provider"; placing pixels from several platforms on one
//!    page signs the user up with all of them at once.
//! 3. **PII opt-in** — hand the provider *hashed* identifiers
//!    ([`hash_pii_client_side`]); used to check which PII the platform
//!    holds (E7).
//!
//! Plus the per-attribute **custom opt-in** ([`CustomAttributeOptin`]):
//! a distinct pixel page per attribute a user wants checked, keeping the
//! user anonymous while scoping the Tread to volunteers only.

use crate::provider::TransparencyProvider;
use adplatform::Platform;
use adsim_types::hash::{hash_pii, Digest};
use adsim_types::{AudienceId, PixelId, Result, UserId};

/// User-side PII hashing: the provider never sees the raw identifier.
pub fn hash_pii_client_side(raw: &str) -> Digest {
    hash_pii(raw)
}

/// Page-based opt-in of a batch of users: each likes the provider's page.
pub fn optin_by_page(platform: &mut Platform, page: u64, users: &[UserId]) -> Result<()> {
    for &user in users {
        platform.user_likes_page(user, page)?;
    }
    Ok(())
}

/// Pixel-based anonymous opt-in of a batch of users: each loads the
/// provider's instrumented opt-in page once.
pub fn optin_by_pixel(platform: &mut Platform, pixel: PixelId, users: &[UserId]) -> Result<()> {
    for &user in users {
        platform.user_fires_pixel(user, pixel)?;
    }
    Ok(())
}

/// A per-attribute custom opt-in channel: one distinct pixel (and hence
/// one distinct anonymous audience) per attribute users asked about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomAttributeOptin {
    /// The attribute this channel checks.
    pub attribute: String,
    /// The distinct pixel on the attribute's opt-in page.
    pub pixel: PixelId,
    /// The pixel's visitor audience.
    pub audience: AudienceId,
}

/// Creates the per-attribute opt-in channel: "the transparency provider
/// could have users select an attribute they want to learn, and
/// accordingly redirect them to a distinct (for each attribute) web-page
/// on which they have placed a distinct tracking pixel".
pub fn setup_custom_attribute_optin(
    provider: &TransparencyProvider,
    platform: &mut Platform,
    attribute: impl Into<String>,
) -> Result<CustomAttributeOptin> {
    let attribute = attribute.into();
    let (pixel, audience) =
        provider.setup_pixel_optin(platform, format!("custom-optin:{attribute}"))?;
    Ok(CustomAttributeOptin {
        attribute,
        pixel,
        audience,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::profile::Gender;
    use adplatform::PlatformConfig;
    use adsim_types::Money;

    fn platform() -> Platform {
        let mut catalog = AttributeCatalog::new();
        catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        Platform::new(PlatformConfig::default(), catalog)
    }

    fn users(p: &mut Platform, n: usize) -> Vec<UserId> {
        (0..n)
            .map(|_| p.register_user(30, Gender::Unspecified, "Ohio", "43004"))
            .collect()
    }

    #[test]
    fn page_optin_fills_engagement_audience() {
        let mut p = platform();
        let prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let (page, audience) = prov.setup_page_optin(&mut p).expect("page");
        let us = users(&mut p, 5);
        optin_by_page(&mut p, page, &us).expect("optin");
        let aud = p.audiences.get(audience).expect("aud");
        assert_eq!(aud.exact_size(), 5);
    }

    #[test]
    fn pixel_optin_fills_visitor_audience_anonymously() {
        let mut p = platform();
        let prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let (pixel, audience) = prov.setup_pixel_optin(&mut p, "optin").expect("pixel");
        let us = users(&mut p, 3);
        optin_by_pixel(&mut p, pixel, &us).expect("optin");
        assert_eq!(p.audiences.get(audience).expect("aud").exact_size(), 3);
        // What the provider can see is only the pixel's fire count.
        assert_eq!(p.pixels.fire_count(pixel), 3);
    }

    #[test]
    fn client_side_hashing_matches_platform_normalization() {
        // The provider receives this digest from the user; the platform
        // hashed the same identifier at account level — they must agree.
        let user_digest = hash_pii_client_side(" Alice@Example.COM ");
        assert_eq!(user_digest, hash_pii("alice@example.com"));
    }

    #[test]
    fn custom_attribute_optin_gets_distinct_pixels() {
        let mut p = platform();
        let prov =
            TransparencyProvider::register(&mut p, "KYD", 1, Money::dollars(10)).expect("provider");
        let a = setup_custom_attribute_optin(&prov, &mut p, "Interest: coffee").expect("a");
        let b = setup_custom_attribute_optin(&prov, &mut p, "Interest: tea").expect("b");
        assert_ne!(a.pixel, b.pixel);
        assert_ne!(a.audience, b.audience);
        // Opting into one does not join the other.
        let us = users(&mut p, 1);
        optin_by_pixel(&mut p, a.pixel, &us).expect("optin");
        assert!(p.audiences.get(a.audience).expect("aud").contains(us[0]));
        assert!(!p.audiences.get(b.audience).expect("aud").contains(us[0]));
    }
}
