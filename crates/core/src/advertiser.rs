//! Advertiser-driven transparency (§4).
//!
//! Beyond transparency providers, Treads "allow any *advertiser* … to
//! directly include explanations about why they are targeting a particular
//! ad". Two artifacts from the paper's discussion:
//!
//! * [`IntentExplanation`] — the advertiser's own statement: its *intent*
//!   ("experienced professional Salsa dancers") and the *actual targeting
//!   parameters* it had to settle for ("aged 30+, interested in Salsa").
//!   The two differ exactly when platform options only approximate intent.
//! * [`verify_explanation`] — the paper's verification idea: "their
//!   explanations might be verified against the corresponding explanations
//!   (independently) generated by the advertising platform". The check
//!   cross-references the advertiser's claimed parameters against the
//!   ad's real targeting spec and the platform's own explanation.
//!
//! E9 uses these to reproduce the comparison: platform explanations
//! disclose ≤1 attribute (and nothing for PII audiences), advertiser
//! explanations can disclose everything including intent.

use adplatform::transparency::Explanation;
use adplatform::Platform;
use adsim_types::{AdId, Result, UserId};

/// The advertiser's self-published explanation for one ad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentExplanation {
    /// The ad being explained.
    pub ad: AdId,
    /// Who the advertiser actually wanted to reach (free text).
    pub intent: String,
    /// The targeting attributes the advertiser claims it used (names).
    pub claimed_attributes: Vec<String>,
    /// Whether the advertiser claims to have used an uploaded PII list.
    pub claims_pii_audience: bool,
}

/// Result of cross-checking an advertiser explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verification {
    /// Claims match the ad's actual targeting (and the platform's
    /// explanation, where it says anything).
    Consistent,
    /// The advertiser omitted attributes the ad actually targets.
    Undisclosed {
        /// Attribute names the ad targets but the claim omits.
        missing: Vec<String>,
    },
    /// The advertiser claimed attributes the ad does not target
    /// (overclaiming — also a red flag).
    Overclaimed {
        /// Claimed names the ad does not actually target.
        extra: Vec<String>,
    },
    /// The platform's own explanation contradicts the claim (it disclosed
    /// an attribute the advertiser denies using).
    ContradictsPlatform {
        /// The attribute the platform disclosed.
        platform_disclosed: String,
    },
}

/// Cross-checks an advertiser's explanation against the ad's actual
/// targeting spec and the platform's explanation for `user`.
pub fn verify_explanation(
    platform: &Platform,
    explanation: &IntentExplanation,
    user: UserId,
) -> Result<Verification> {
    let ad = platform.campaigns.ad(explanation.ad)?;
    let actual: Vec<String> = ad
        .targeting
        .referenced_attributes()
        .into_iter()
        .filter_map(|id| platform.attributes.get(id).map(|d| d.name.clone()))
        .collect();

    // Platform cross-check first: the platform's (independent) explanation
    // is ground truth where it speaks.
    let platform_explanation = platform.explain(explanation.ad, user)?;
    if let Explanation::OneAttribute { attribute, .. } = &platform_explanation {
        if let Some(def) = platform.attributes.get(*attribute) {
            if !explanation.claimed_attributes.contains(&def.name) {
                return Ok(Verification::ContradictsPlatform {
                    platform_disclosed: def.name.clone(),
                });
            }
        }
    }

    let missing: Vec<String> = actual
        .iter()
        .filter(|a| !explanation.claimed_attributes.contains(a))
        .cloned()
        .collect();
    if !missing.is_empty() {
        return Ok(Verification::Undisclosed { missing });
    }
    let extra: Vec<String> = explanation
        .claimed_attributes
        .iter()
        .filter(|c| !actual.contains(c))
        .cloned()
        .collect();
    if !extra.is_empty() {
        return Ok(Verification::Overclaimed { extra });
    }
    Ok(Verification::Consistent)
}

/// The disclosure-count comparison E9 tabulates for one (ad, user) pair:
/// how many of the ad's targeting attributes each mechanism reveals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisclosureComparison {
    /// Attributes the ad actually targets.
    pub actual: usize,
    /// Attributes the platform's explanation disclosed (≤ 1 by
    /// construction).
    pub platform_disclosed: usize,
    /// Attributes the advertiser's explanation disclosed.
    pub advertiser_disclosed: usize,
    /// Whether the advertiser additionally disclosed intent (platform
    /// explanations never carry intent).
    pub intent_disclosed: bool,
}

/// Computes the comparison for one ad/user/explanation triple.
pub fn compare_disclosures(
    platform: &Platform,
    explanation: &IntentExplanation,
    user: UserId,
) -> Result<DisclosureComparison> {
    let ad = platform.campaigns.ad(explanation.ad)?;
    let actual = ad.targeting.referenced_attributes().len();
    let platform_disclosed = platform
        .explain(explanation.ad, user)?
        .disclosed_attributes()
        .len();
    Ok(DisclosureComparison {
        actual,
        platform_disclosed,
        advertiser_disclosed: explanation.claimed_attributes.len(),
        intent_disclosed: !explanation.intent.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::campaign::AdCreative;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::PlatformConfig;
    use adsim_types::{AttributeId, Money};

    /// The paper's running example: a dance studio that wants experienced
    /// professional Salsa dancers but can only target "aged 30+ and
    /// interested in Salsa".
    fn salsa_rig() -> (Platform, AdId, UserId) {
        let mut catalog = AttributeCatalog::new();
        catalog.register(
            "Interest: salsa dancing (Music)",
            AttributeSource::Platform,
            None,
            0.05,
        );
        catalog.register("Interest: travel", AttributeSource::Platform, None, 0.25);
        let mut p = Platform::new(PlatformConfig::default(), catalog);
        let adv = p.register_advertiser("Dance studio");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "salsa", Money::dollars(2), None)
            .expect("campaign");
        let salsa = p
            .attributes
            .id_of("Interest: salsa dancing (Music)")
            .expect("attr");
        let ad = p
            .submit_ad(
                camp,
                AdCreative::text("Salsa nights", "Join our advanced classes"),
                TargetingSpec::including(TargetingExpr::And(vec![
                    TargetingExpr::AgeRange { min: 30, max: 120 },
                    TargetingExpr::Attr(salsa),
                ])),
            )
            .expect("ad");
        let user = p.register_user(35, Gender::Female, "Illinois", "60601");
        p.profiles.grant_attribute(user, salsa).expect("grant");
        (p, ad, user)
    }

    #[test]
    fn honest_explanation_is_consistent() {
        let (p, ad, user) = salsa_rig();
        let explanation = IntentExplanation {
            ad,
            intent: "Experienced professional Salsa dancers".into(),
            claimed_attributes: vec!["Interest: salsa dancing (Music)".into()],
            claims_pii_audience: false,
        };
        assert_eq!(
            verify_explanation(&p, &explanation, user).expect("verify"),
            Verification::Consistent
        );
    }

    #[test]
    fn omitting_targeting_is_flagged() {
        let (p, ad, user) = salsa_rig();
        let explanation = IntentExplanation {
            ad,
            intent: "People who like dancing".into(),
            claimed_attributes: vec![], // hides the salsa attribute
            claims_pii_audience: false,
        };
        // The platform's own explanation discloses salsa — contradiction.
        match verify_explanation(&p, &explanation, user).expect("verify") {
            Verification::ContradictsPlatform { platform_disclosed } => {
                assert!(platform_disclosed.contains("salsa"));
            }
            other => panic!("expected contradiction, got {other:?}"),
        }
    }

    #[test]
    fn overclaiming_is_flagged() {
        let (p, ad, user) = salsa_rig();
        let explanation = IntentExplanation {
            ad,
            intent: "Dancers who travel".into(),
            claimed_attributes: vec![
                "Interest: salsa dancing (Music)".into(),
                "Interest: travel".into(), // not actually targeted
            ],
            claims_pii_audience: false,
        };
        match verify_explanation(&p, &explanation, user).expect("verify") {
            Verification::Overclaimed { extra } => {
                assert_eq!(extra, vec!["Interest: travel".to_string()]);
            }
            other => panic!("expected overclaim, got {other:?}"),
        }
    }

    #[test]
    fn undisclosed_without_platform_contradiction() {
        // If the user does NOT hold the targeted attribute, the platform
        // explanation is generic, so the omission is caught by the
        // actual-targeting check instead.
        let (mut p, ad, _) = salsa_rig();
        let other_user = p.register_user(40, Gender::Male, "Texas", "73301");
        let explanation = IntentExplanation {
            ad,
            intent: "".into(),
            claimed_attributes: vec![],
            claims_pii_audience: false,
        };
        match verify_explanation(&p, &explanation, other_user).expect("verify") {
            Verification::Undisclosed { missing } => {
                assert_eq!(missing.len(), 1);
                assert!(missing[0].contains("salsa"));
            }
            other => panic!("expected undisclosed, got {other:?}"),
        }
    }

    #[test]
    fn comparison_counts_the_gap() {
        let (p, ad, user) = salsa_rig();
        let explanation = IntentExplanation {
            ad,
            intent: "Experienced professional Salsa dancers".into(),
            claimed_attributes: vec!["Interest: salsa dancing (Music)".into()],
            claims_pii_audience: false,
        };
        let cmp = compare_disclosures(&p, &explanation, user).expect("compare");
        assert_eq!(cmp.actual, 1);
        assert_eq!(cmp.platform_disclosed, 1);
        assert_eq!(cmp.advertiser_disclosed, 1);
        assert!(cmp.intent_disclosed);
    }

    #[test]
    fn nonexistent_ad_errors() {
        let (p, _, user) = salsa_rig();
        let explanation = IntentExplanation {
            ad: AdId(999),
            intent: "".into(),
            claimed_attributes: vec![],
            claims_pii_audience: false,
        };
        assert!(verify_explanation(&p, &explanation, user).is_err());
        let _ = AttributeId(0); // silence unused import in some cfgs
    }
}
