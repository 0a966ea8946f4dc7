//! The platform's **own** transparency mechanisms — the incomplete baseline
//! Treads improve on.
//!
//! Two mechanisms, each with the documented incompleteness the paper cites
//! (Andreou et al., NDSS 2018):
//!
//! * [`ad_preferences`] — the "ad preferences page": lists a user's
//!   targetable attributes, but **omits everything sourced from data
//!   brokers** ("Facebook's advertising platform was recently shown to not
//!   reveal any user information that is sourced from third parties").
//! * [`explain_ad`] — "why am I seeing this?": reveals **at most one**
//!   attribute from the ad's targeting, and chooses the *most prevalent*
//!   (least revealing) one. For PII-audience ads it says only that the
//!   advertiser uploaded a list — never which PII matched.
//!
//! Experiments E1 and E9 compare these against Treads; the completeness
//! helpers at the bottom compute the comparison numbers.

use crate::attributes::AttributeCatalog;
use crate::audience::{AudienceKind, AudienceStore};
use crate::campaign::Ad;
use crate::profile::UserProfile;
use adsim_types::AttributeId;

/// The platform-generated explanation for why a user saw an ad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Explanation {
    /// "You are in this ad's audience because you have `<attribute>`." The
    /// platform reveals at most this one attribute, regardless of how many
    /// the advertiser specified.
    OneAttribute {
        /// The single attribute disclosed (the most prevalent matching
        /// one).
        attribute: AttributeId,
        /// Rendered text shown to the user.
        text: String,
    },
    /// "The advertiser uploaded a list containing your contact info" —
    /// without saying which PII.
    CustomAudience {
        /// Rendered text shown to the user.
        text: String,
    },
    /// "You visited the advertiser's website or used their app."
    ActivityAudience {
        /// Rendered text shown to the user.
        text: String,
    },
    /// Nothing more specific to say (e.g. broad demographic targeting).
    Generic {
        /// Rendered text shown to the user.
        text: String,
    },
}

impl Explanation {
    /// The attribute ids this explanation discloses (0 or 1 — never more;
    /// that is the point).
    pub fn disclosed_attributes(&self) -> Vec<AttributeId> {
        match self {
            Explanation::OneAttribute { attribute, .. } => vec![*attribute],
            _ => Vec::new(),
        }
    }
}

/// The user-facing "ad preferences" page: every attribute the platform
/// holds about the user **except** partner categories, which real platforms
/// were shown to hide. Treads exist to close exactly this gap.
pub fn ad_preferences<'c>(
    user: &UserProfile,
    catalog: &'c AttributeCatalog,
) -> Vec<&'c crate::attributes::AttributeDef> {
    user.attributes
        .iter()
        .filter_map(|&id| catalog.get(id))
        .filter(|def| !def.source.is_partner())
        .collect()
}

/// Generates the platform's explanation for why `user` saw `ad`.
///
/// Selection rule (matching the cited audit findings): if the targeting
/// referenced attributes the user holds, disclose exactly **one** — the
/// most *prevalent* (most common in the population, hence least
/// informative). Otherwise fall back to the audience-based wording, then to
/// a generic one.
pub fn explain_ad(
    ad: &Ad,
    user: &UserProfile,
    catalog: &AttributeCatalog,
    audiences: &AudienceStore,
) -> Explanation {
    // Attributes in the spec that the user actually holds.
    let mut held: Vec<&crate::attributes::AttributeDef> = ad
        .targeting
        .referenced_attributes()
        .into_iter()
        .filter(|&a| user.has_attribute(a))
        .filter_map(|a| catalog.get(a))
        .collect();
    if !held.is_empty() {
        held.sort_by(|a, b| {
            b.prevalence
                .partial_cmp(&a.prevalence)
                .expect("prevalences are finite")
                .then(a.id.cmp(&b.id))
        });
        let chosen = held[0];
        return Explanation::OneAttribute {
            attribute: chosen.id,
            text: format!(
                "You're seeing this ad because the advertiser wants to reach people \
                 interested in \"{}\". There may be other reasons you're seeing this ad.",
                chosen.name
            ),
        };
    }

    // Audience-based targeting: custom beats pixel in specificity.
    for aud_id in ad.targeting.referenced_audiences() {
        if let Ok(aud) = audiences.get(aud_id) {
            match aud.kind {
                AudienceKind::Custom { .. } => {
                    return Explanation::CustomAudience {
                        text: "You're seeing this ad because the advertiser uploaded a contact \
                               list that includes your information."
                            .into(),
                    }
                }
                AudienceKind::PixelVisitors { .. } => {
                    return Explanation::ActivityAudience {
                        text: "You're seeing this ad because you visited the advertiser's \
                               website or used one of their apps."
                            .into(),
                    }
                }
                AudienceKind::PageEngagement { .. } => {
                    return Explanation::ActivityAudience {
                        text: "You're seeing this ad because you interacted with the \
                               advertiser's page."
                            .into(),
                    }
                }
                AudienceKind::CustomIntent { .. } => {
                    // The platform never reveals the advertiser's phrases.
                    return Explanation::ActivityAudience {
                        text: "You're seeing this ad because of your activity and \
                               interests."
                            .into(),
                    };
                }
            }
        }
    }

    Explanation::Generic {
        text: "You're seeing this ad because the advertiser wants to reach people like you.".into(),
    }
}

/// Completeness of the platform's explanation for one (ad, user) pair:
/// the fraction of targeting attributes *the user holds* that the
/// explanation disclosed. Used by E9's comparison table.
pub fn explanation_completeness(
    ad: &Ad,
    user: &UserProfile,
    catalog: &AttributeCatalog,
    audiences: &AudienceStore,
) -> f64 {
    let held: Vec<AttributeId> = ad
        .targeting
        .referenced_attributes()
        .into_iter()
        .filter(|&a| user.has_attribute(a))
        .collect();
    if held.is_empty() {
        return 1.0; // nothing to disclose
    }
    let explained = explain_ad(ad, user, catalog, audiences);
    let disclosed = explained.disclosed_attributes();
    disclosed.iter().filter(|a| held.contains(a)).count() as f64 / held.len() as f64
}

/// Completeness of the ad-preferences page for one user: the fraction of
/// the user's attributes it lists (partner attributes are hidden, so users
/// with partner data always score below 1).
pub fn preferences_completeness(user: &UserProfile, catalog: &AttributeCatalog) -> f64 {
    if user.attributes.is_empty() {
        return 1.0;
    }
    ad_preferences(user, catalog).len() as f64 / user.attributes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSource;
    use crate::campaign::AdCreative;
    use crate::profile::{Gender, ProfileStore};
    use crate::targeting::{TargetingExpr, TargetingSpec};
    use adsim_types::{AccountId, AdId, AudienceId, CampaignId, PixelId};

    fn catalog() -> AttributeCatalog {
        let mut c = AttributeCatalog::new();
        // id 1: common platform attribute; id 2: rare platform attribute;
        // id 3: partner attribute.
        c.register("Interest: coffee", AttributeSource::Platform, None, 0.30);
        c.register("Interest: falconry", AttributeSource::Platform, None, 0.01);
        c.register(
            "Net worth: $2M+",
            AttributeSource::Partner {
                broker: "NorthStar Data".into(),
            },
            None,
            0.02,
        );
        c
    }

    fn user_with(attrs: &[u64]) -> (ProfileStore, adsim_types::UserId) {
        let mut store = ProfileStore::new();
        let id = store.register(35, Gender::Female, "Vermont", "05401");
        for &a in attrs {
            store.grant_attribute(id, AttributeId(a)).expect("grant");
        }
        (store, id)
    }

    fn ad_with(spec: TargetingSpec) -> Ad {
        Ad {
            id: AdId(1),
            campaign: CampaignId(1),
            creative: AdCreative::text("h", "b"),
            targeting: spec,
            status: crate::campaign::AdStatus::Approved,
        }
    }

    #[test]
    fn preferences_hide_partner_attributes() {
        let catalog = catalog();
        let (store, id) = user_with(&[1, 2, 3]);
        let user = store.get(id).expect("user");
        let prefs = ad_preferences(user, &catalog);
        let names: Vec<&str> = prefs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["Interest: coffee", "Interest: falconry"]);
        // Completeness below 1 because the partner attribute is hidden.
        let c = preferences_completeness(user, &catalog);
        assert!((c - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn explanation_reveals_at_most_one_most_prevalent() {
        let catalog = catalog();
        let (store, id) = user_with(&[1, 2]);
        let user = store.get(id).expect("user");
        let audiences = AudienceStore::new(20, 1000, 100);
        // Ad targets BOTH attributes; explanation discloses only the most
        // prevalent (coffee, 0.30 > falconry 0.01).
        let ad = ad_with(TargetingSpec::including(TargetingExpr::And(vec![
            TargetingExpr::Attr(AttributeId(1)),
            TargetingExpr::Attr(AttributeId(2)),
        ])));
        match explain_ad(&ad, user, &catalog, &audiences) {
            Explanation::OneAttribute { attribute, text } => {
                assert_eq!(attribute, AttributeId(1));
                assert!(text.contains("coffee"));
            }
            other => panic!("expected OneAttribute, got {other:?}"),
        }
        // Completeness: 1 of 2 held targeting attributes disclosed.
        let c = explanation_completeness(&ad, user, &catalog, &audiences);
        assert!((c - 0.5).abs() < 1e-9);
    }

    #[test]
    fn custom_audience_explanation_hides_which_pii() {
        let catalog = catalog();
        let (mut store, id) = user_with(&[]);
        store
            .attach_pii(
                id,
                crate::profile::PiiKind::Email,
                "a@example.com",
                crate::profile::PiiProvenance::UserProvided,
            )
            .expect("attach");
        let mut audiences = AudienceStore::new(1, 1000, 100);
        let digest = adsim_types::hash::hash_pii("a@example.com");
        let matcher = |d: &adsim_types::hash::Digest| store.match_pii(d).to_vec();
        let aud = audiences
            .create_custom(AccountId(1), &[digest], matcher)
            .expect("audience");
        let user = store.get(id).expect("user");
        let ad = ad_with(TargetingSpec::including(TargetingExpr::InAudience(aud)));
        match explain_ad(&ad, user, &catalog, &audiences) {
            Explanation::CustomAudience { text } => {
                // The explanation must not contain the email or its hash.
                assert!(!text.contains("a@example.com"));
                assert!(!text.contains(&digest.to_hex()));
            }
            other => panic!("expected CustomAudience, got {other:?}"),
        }
    }

    #[test]
    fn pixel_and_page_audiences_get_activity_wording() {
        let catalog = catalog();
        let (store, id) = user_with(&[]);
        let user = store.get(id).expect("user");
        let mut audiences = AudienceStore::new(20, 1000, 100);
        let px = audiences.create_pixel_audience(AccountId(1), PixelId(1));
        let pg = audiences.create_page_audience(AccountId(1), 5);
        for aud in [px, pg] {
            let ad = ad_with(TargetingSpec::including(TargetingExpr::InAudience(aud)));
            assert!(matches!(
                explain_ad(&ad, user, &catalog, &audiences),
                Explanation::ActivityAudience { .. }
            ));
        }
    }

    #[test]
    fn generic_fallback() {
        let catalog = catalog();
        let (store, id) = user_with(&[]);
        let user = store.get(id).expect("user");
        let audiences = AudienceStore::new(20, 1000, 100);
        let ad = ad_with(TargetingSpec::including(TargetingExpr::AgeRange {
            min: 30,
            max: 40,
        }));
        assert!(matches!(
            explain_ad(&ad, user, &catalog, &audiences),
            Explanation::Generic { .. }
        ));
        // An unknown referenced audience also falls through to generic.
        let ad = ad_with(TargetingSpec::including(TargetingExpr::InAudience(
            AudienceId(99),
        )));
        assert!(matches!(
            explain_ad(&ad, user, &catalog, &audiences),
            Explanation::Generic { .. }
        ));
    }

    #[test]
    fn completeness_is_one_when_nothing_held() {
        let catalog = catalog();
        let (store, id) = user_with(&[]);
        let user = store.get(id).expect("user");
        let audiences = AudienceStore::new(20, 1000, 100);
        let ad = ad_with(TargetingSpec::including(TargetingExpr::Attr(AttributeId(
            1,
        ))));
        assert_eq!(
            explanation_completeness(&ad, user, &catalog, &audiences),
            1.0
        );
        assert_eq!(preferences_completeness(user, &catalog), 1.0);
    }
}
