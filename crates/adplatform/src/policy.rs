//! The ToS policy reviewer.
//!
//! All three platforms the paper quotes ban ads that "assert or imply
//! knowledge of personal attributes" (Facebook), "assert or imply knowledge
//! of personal information" (Twitter), or "imply knowledge of personally
//! identifiable or sensitive information within the ad" (Google). The
//! reviewer here implements that rule the way a real one plausibly does:
//! lexical detection of **second-person assertions** combined with
//! **attribute vocabulary**, applied to the *ad creative only* — platforms
//! do not review external landing pages, which is exactly the loophole the
//! paper's landing-page Treads use (§4).
//!
//! Experiment E5 measures which Tread encodings pass review: explicit
//! in-ad disclosures are rejected; obfuscated encodings (Figure 1b's
//! "2,830,120") and landing-page disclosures pass.

use crate::attributes::AttributeCatalog;
use crate::campaign::AdCreative;
use adsim_types::{Error, Result};

/// How aggressively the reviewer matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// Reject only second-person assertions of attribute vocabulary
    /// ("you are interested in salsa dancing"). The realistic setting.
    Standard,
    /// Reject any mention of attribute vocabulary at all, second person or
    /// not. Used by the E5 ablation.
    Strict,
}

/// The policy engine.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    /// Matching aggressiveness.
    pub strictness: Strictness,
    /// Lowercased attribute-core vocabulary extracted from the catalog.
    vocabulary: Vec<String>,
}

/// Phrases that always read as asserting personal knowledge, independent of
/// the attribute vocabulary.
const ASSERTION_PHRASES: [&str; 8] = [
    "according to this ad platform",
    "this platform knows",
    "the advertiser knows",
    "we know that you",
    "your net worth",
    "your income",
    "your medical",
    "data collected about you",
];

/// Second-person markers that turn an attribute mention into an assertion.
const SECOND_PERSON: [&str; 6] = [
    "you are", "you're", "your ", "you have", "you live", "you were",
];

impl PolicyEngine {
    /// Builds the engine, deriving attribute vocabulary from the catalog.
    ///
    /// Vocabulary extraction strips taxonomy prefixes ("Interest:",
    /// "Purchase behavior:", …) and category suffixes, keeping the phrase a
    /// human reviewer would recognize ("salsa dancing", "net worth: $2m+" →
    /// "salsa dancing", "$2m+").
    pub fn new(strictness: Strictness, catalog: &AttributeCatalog) -> Self {
        let mut vocabulary = Vec::with_capacity(catalog.len());
        for def in catalog.all() {
            vocabulary.push(attribute_core(&def.name));
        }
        Self {
            strictness,
            vocabulary,
        }
    }

    /// An engine with no catalog vocabulary (assertion phrases only) —
    /// for tests and minimal setups.
    pub fn without_catalog(strictness: Strictness) -> Self {
        Self {
            strictness,
            vocabulary: Vec::new(),
        }
    }

    /// Reviews a creative. `Ok(())` = approved; `Err(PolicyViolation)` with
    /// the reviewer's reason otherwise. Only the creative's visible text is
    /// inspected — images and landing pages are not (the paper's loophole).
    pub fn review(&self, creative: &AdCreative) -> Result<()> {
        let text = creative.visible_text().to_lowercase();

        for phrase in ASSERTION_PHRASES {
            if text.contains(phrase) {
                return Err(Error::PolicyViolation {
                    reason: format!("asserts personal knowledge: contains \"{phrase}\""),
                });
            }
        }

        // Under `Standard`, vocabulary rejects only second-person phrasing:
        // without a marker no word can, so the vocabulary is not searched.
        if self.strictness == Strictness::Standard
            && !SECOND_PERSON.iter().any(|m| text.contains(m))
        {
            return Ok(());
        }
        for word in &self.vocabulary {
            if word.len() < 4 {
                // Tiny cores ("ios") would false-positive everywhere.
                continue;
            }
            if text.contains(word.as_str()) {
                let reason = match self.strictness {
                    Strictness::Strict => {
                        format!("mentions targeting-attribute vocabulary: \"{word}\"")
                    }
                    Strictness::Standard => format!(
                        "asserts or implies a personal attribute: second-person \
                         phrasing with \"{word}\""
                    ),
                };
                return Err(Error::PolicyViolation { reason });
            }
        }
        Ok(())
    }
}

/// Strips taxonomy prefix and category suffix from an attribute name,
/// lowercased: `"Interest: salsa dancing (Music)"` → `"salsa dancing"`.
pub fn attribute_core(name: &str) -> String {
    let mut core = name;
    if let Some(idx) = core.find(": ") {
        core = &core[idx + 2..];
    }
    if let Some(idx) = core.rfind(" (") {
        if core.ends_with(')') {
            core = &core[..idx];
        }
    }
    core.to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSource;

    fn engine(strictness: Strictness) -> PolicyEngine {
        let mut catalog = AttributeCatalog::new();
        catalog.register(
            "Interest: salsa dancing (Music)",
            AttributeSource::Platform,
            None,
            0.05,
        );
        catalog.register(
            "Net worth: $2M+",
            AttributeSource::Partner {
                broker: "NorthStar Data".into(),
            },
            None,
            0.02,
        );
        PolicyEngine::new(strictness, &catalog)
    }

    #[test]
    fn attribute_core_extraction() {
        assert_eq!(
            attribute_core("Interest: salsa dancing (Music)"),
            "salsa dancing"
        );
        assert_eq!(attribute_core("Net worth: $2M+"), "$2m+");
        assert_eq!(attribute_core("plain"), "plain");
    }

    #[test]
    fn explicit_tread_is_rejected() {
        // The paper's explicit example: "You are interested in Salsa
        // dancing according to this ad platform".
        let e = engine(Strictness::Standard);
        let creative = AdCreative::text(
            "About you",
            "You are interested in Salsa dancing according to this ad platform",
        );
        let err = e.review(&creative).expect_err("must reject");
        assert!(matches!(err, Error::PolicyViolation { .. }));
    }

    #[test]
    fn second_person_plus_attribute_is_rejected() {
        let e = engine(Strictness::Standard);
        let creative = AdCreative::text("Hello", "You are into salsa dancing, right?");
        assert!(e.review(&creative).is_err());
    }

    #[test]
    fn attribute_mention_without_second_person_passes_standard() {
        let e = engine(Strictness::Standard);
        // Third-person mention: an ordinary dance-studio ad.
        let creative = AdCreative::text("Salsa dancing classes", "New classes every Tuesday!");
        assert!(e.review(&creative).is_ok());
    }

    #[test]
    fn strict_mode_rejects_any_attribute_mention() {
        let e = engine(Strictness::Strict);
        let creative = AdCreative::text("Salsa dancing classes", "New classes every Tuesday!");
        assert!(e.review(&creative).is_err());
    }

    #[test]
    fn obfuscated_tread_passes() {
        // Figure 1b: the targeting parameter encoded as "2,830,120" —
        // innocuous to a reviewer.
        let e = engine(Strictness::Standard);
        let creative = AdCreative::text("A message from Know Your Data", "Ref: 2,830,120");
        assert!(e.review(&creative).is_ok());
        // Even strict mode passes: no attribute vocabulary appears.
        let strict = engine(Strictness::Strict);
        assert!(strict.review(&creative).is_ok());
    }

    #[test]
    fn landing_page_disclosure_is_not_reviewed() {
        // The creative is innocuous; the disclosure lives on the landing
        // page, which the reviewer does not fetch.
        let e = engine(Strictness::Standard);
        let creative = AdCreative::text("Curious what advertisers know?", "Tap to find out.")
            .with_landing("https://provider.example/reveal?attr=net-worth-2m");
        assert!(e.review(&creative).is_ok());
    }

    #[test]
    fn assertion_phrases_reject_without_vocabulary() {
        let e = PolicyEngine::without_catalog(Strictness::Standard);
        let creative = AdCreative::text("!", "We know that you shop online");
        assert!(e.review(&creative).is_err());
        let creative = AdCreative::text("!", "Your net worth may surprise you");
        assert!(e.review(&creative).is_err());
    }

    #[test]
    fn benign_ads_pass() {
        let e = engine(Strictness::Standard);
        for (h, b) in [
            (
                "Fresh coffee, delivered",
                "Try our beans. 20% off this week.",
            ),
            ("Sneaker sale", "All sizes. Free returns."),
            ("Local news app", "Stay informed about what matters."),
        ] {
            assert!(e.review(&AdCreative::text(h, b)).is_ok(), "rejected: {h}");
        }
    }

    /// `review` before the `Standard` early return: every vocabulary
    /// word is searched whatever the strictness.
    fn review_searching_every_word(e: &PolicyEngine, creative: &AdCreative) -> Result<()> {
        let text = creative.visible_text().to_lowercase();
        for phrase in ASSERTION_PHRASES {
            if text.contains(phrase) {
                return Err(Error::PolicyViolation {
                    reason: format!("asserts personal knowledge: contains \"{phrase}\""),
                });
            }
        }
        let second_person = SECOND_PERSON.iter().any(|m| text.contains(m));
        for word in &e.vocabulary {
            if word.len() < 4 {
                continue;
            }
            if text.contains(word.as_str()) {
                match e.strictness {
                    Strictness::Strict => {
                        return Err(Error::PolicyViolation {
                            reason: format!("mentions targeting-attribute vocabulary: \"{word}\""),
                        });
                    }
                    Strictness::Standard if second_person => {
                        return Err(Error::PolicyViolation {
                            reason: format!(
                                "asserts or implies a personal attribute: second-person \
                                 phrasing with \"{word}\""
                            ),
                        });
                    }
                    Strictness::Standard => {}
                }
            }
        }
        Ok(())
    }

    #[test]
    fn skipping_the_vocabulary_without_a_marker_changes_no_verdict() {
        let partner = treads_broker::PartnerCatalog::us();
        let catalog = AttributeCatalog::us_2018(&partner);
        let standard = PolicyEngine::new(Strictness::Standard, &catalog);
        let strict = PolicyEngine::new(Strictness::Strict, &catalog);
        let long: Vec<&str> = standard
            .vocabulary
            .iter()
            .map(String::as_str)
            .filter(|w| w.len() >= 4)
            .step_by(97)
            .collect();
        let short = standard
            .vocabulary
            .iter()
            .find(|w| w.len() < 4)
            .expect("the catalog has a short core");
        let mut words = vec!["", short.as_str()];
        words.extend(long);
        let markers = [
            "", "you are", "You're", "YOUR ", "you have", "you live", "you were",
            // Near misses that are not markers.
            "you", "yours", "young",
        ];
        let tails = ["", "this platform knows", "20% off this week"];
        // Doubled spaces break every marker apart.
        let double_spaced = |s: &str| s.replace(' ', "  ");
        let cases: [fn(&str) -> String; 3] = [str::to_string, str::to_uppercase, double_spaced];
        let mut rejected = [0usize; 2];
        for word in &words {
            for marker in markers {
                for tail in tails {
                    for case in cases {
                        let body = case(&format!("{marker} into {word}, {tail}"));
                        let creative = AdCreative::text(case(word), body);
                        for (i, e) in [&standard, &strict].into_iter().enumerate() {
                            let got = e.review(&creative);
                            assert_eq!(
                                got,
                                review_searching_every_word(e, &creative),
                                "{:?}: {creative:?}",
                                e.strictness
                            );
                            rejected[i] += usize::from(got.is_err());
                        }
                    }
                }
            }
        }
        // Both verdicts occur under both strictness levels.
        let total = words.len() * markers.len() * tails.len() * cases.len();
        assert!(rejected.iter().all(|&r| r > 0 && r < total), "{rejected:?}");
    }

    #[test]
    fn review_is_case_insensitive() {
        let e = engine(Strictness::Standard);
        let creative = AdCreative::text("", "YOU ARE INTERESTED IN SALSA DANCING");
        assert!(e.review(&creative).is_err());
    }
}
