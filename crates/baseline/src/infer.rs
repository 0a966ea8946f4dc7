//! Differential-correlation inference.
//!
//! For each (ad, candidate attribute) pair, build the 2×2 contingency
//! table over control accounts —
//!
//! |              | saw ad | did not |
//! |--------------|--------|---------|
//! | has attr     |   a    |    b    |
//! | lacks attr   |   c    |    d    |
//!
//! — test for association (Pearson chi-square), then control for the
//! multiple hypotheses across all pairs (Bonferroni, or Benjamini–Hochberg
//! as Sunlight argues). Surviving associations are the inferred targeting.
//!
//! Precision/recall against ground truth (which attribute each ad really
//! targeted) is what E10 reports as a function of population size.

use crate::controls::ControlPopulation;
use crate::observe::ExposureMatrix;
use adsim_types::stats::{benjamini_hochberg, bonferroni, chi_square_2x2};
use adsim_types::{AdId, AttributeId};
use std::collections::BTreeMap;

/// Multiple-testing correction to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Correction {
    /// Family-wise error control at level `alpha`.
    Bonferroni {
        /// Significance level.
        alpha: f64,
    },
    /// False-discovery-rate control at rate `q` (Sunlight's choice).
    BenjaminiHochberg {
        /// Target FDR.
        q: f64,
    },
}

/// One inferred (ad → attribute) association.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredTargeting {
    /// The ad.
    pub ad: AdId,
    /// The attribute inferred to drive its targeting.
    pub attribute: AttributeId,
    /// Raw (uncorrected) p-value of the association.
    pub p_value: f64,
}

/// Runs the full inference over an exposure matrix.
///
/// Returns the surviving associations sorted by (ad, attribute). Ads no
/// control account saw produce nothing (you cannot correlate what you
/// never observed — one of the deployment weaknesses the paper notes).
pub fn infer_targeting(
    matrix: &ExposureMatrix,
    population: &ControlPopulation,
    correction: Correction,
) -> Vec<InferredTargeting> {
    // Build all hypothesis tests first.
    let mut tests: Vec<(AdId, AttributeId, f64)> = Vec::new();
    for ad in matrix.ads() {
        for &attr in &population.candidates {
            let mut a = 0f64; // has & saw
            let mut b = 0f64; // has & not
            let mut c = 0f64; // lacks & saw
            let mut d = 0f64; // lacks & not
            for &account in &population.accounts {
                let has = population.has(account, attr);
                let saw = matrix.saw(account, ad);
                match (has, saw) {
                    (true, true) => a += 1.0,
                    (true, false) => b += 1.0,
                    (false, true) => c += 1.0,
                    (false, false) => d += 1.0,
                }
            }
            // Only positive association counts as targeting: seeing the ad
            // must be *more* likely with the attribute.
            let positively_associated = a * d > b * c;
            let (_stat, p) = chi_square_2x2(a, b, c, d);
            let p = if positively_associated { p } else { 1.0 };
            tests.push((ad, attr, p));
        }
    }

    let p_values: Vec<f64> = tests.iter().map(|t| t.2).collect();
    let keep: Vec<bool> = match correction {
        Correction::Bonferroni { alpha } => bonferroni(&p_values)
            .into_iter()
            .map(|p| p <= alpha)
            .collect(),
        Correction::BenjaminiHochberg { q } => benjamini_hochberg(&p_values, q),
    };

    let mut out: Vec<InferredTargeting> = tests
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|((ad, attribute, p_value), _)| InferredTargeting {
            ad,
            attribute,
            p_value,
        })
        .collect();
    out.sort_by_key(|i| (i.ad, i.attribute));
    out
}

/// Precision/recall of inferred associations against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Correct inferences.
    pub true_positives: usize,
    /// Spurious inferences.
    pub false_positives: usize,
    /// Ground-truth associations missed.
    pub false_negatives: usize,
}

impl Accuracy {
    /// Precision (1.0 when nothing was inferred).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall (1.0 when there was nothing to find).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Scores inferences against the true ad → attribute map.
pub fn score(inferred: &[InferredTargeting], truth: &BTreeMap<AdId, AttributeId>) -> Accuracy {
    let mut tp = 0;
    let mut fp = 0;
    for inf in inferred {
        if truth.get(&inf.ad) == Some(&inf.attribute) {
            tp += 1;
        } else {
            fp += 1;
        }
    }
    let found: std::collections::BTreeSet<(AdId, AttributeId)> =
        inferred.iter().map(|i| (i.ad, i.attribute)).collect();
    let fnn = truth
        .iter()
        .filter(|(&ad, &attr)| !found.contains(&(ad, attr)))
        .count();
    Accuracy {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fnn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controls::{spawn_controls, ControlDesign};
    use crate::observe::collect_exposures;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::campaign::AdCreative;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::{Platform, PlatformConfig};
    use adsim_types::rng::substream;
    use adsim_types::Money;

    /// Full pipeline on a platform with `n_attrs` candidates, one targeted
    /// ad per attribute.
    fn pipeline(
        n_attrs: usize,
        n_accounts: usize,
        correction: Correction,
        seed: u64,
    ) -> (Vec<InferredTargeting>, BTreeMap<AdId, AttributeId>) {
        let mut catalog = AttributeCatalog::new();
        let attrs: Vec<AttributeId> = (0..n_attrs)
            .map(|i| catalog.register(format!("Cand {i}"), AttributeSource::Platform, None, 0.1))
            .collect();
        let mut p = Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                frequency_cap: 5,
                ..PlatformConfig::default()
            },
            catalog,
        );
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(10), None)
            .expect("campaign");
        let mut truth = BTreeMap::new();
        for &attr in &attrs {
            let ad = p
                .submit_ad(
                    camp,
                    AdCreative::text(format!("ad for {attr}"), "b"),
                    TargetingSpec::including(TargetingExpr::Attr(attr)),
                )
                .expect("ad");
            truth.insert(ad, attr);
        }
        let mut rng = substream(seed, "baseline-test");
        let pop = spawn_controls(
            &mut p,
            &attrs,
            &ControlDesign {
                accounts: n_accounts,
                assignment_probability: 0.5,
            },
            &mut rng,
        );
        let matrix = collect_exposures(&mut p, &pop.accounts, 2 * n_attrs);
        (infer_targeting(&matrix, &pop, correction), truth)
    }

    #[test]
    fn enough_controls_recover_targeting() {
        let (inferred, truth) = pipeline(4, 48, Correction::Bonferroni { alpha: 0.05 }, 1);
        let acc = score(&inferred, &truth);
        assert_eq!(acc.false_positives, 0, "{inferred:?}");
        assert!(
            acc.recall() >= 0.75,
            "recall {} with {inferred:?}",
            acc.recall()
        );
    }

    #[test]
    fn too_few_controls_lack_power() {
        // With 6 accounts the chi-square tests cannot reach Bonferroni
        // significance across 4x4 hypotheses.
        let (inferred, truth) = pipeline(4, 6, Correction::Bonferroni { alpha: 0.05 }, 2);
        let acc = score(&inferred, &truth);
        assert!(
            acc.recall() < 0.5,
            "expected low recall with tiny population, got {}",
            acc.recall()
        );
    }

    #[test]
    fn bh_is_no_stricter_than_bonferroni() {
        let (bonf, _) = pipeline(4, 48, Correction::Bonferroni { alpha: 0.05 }, 3);
        let (bh, _) = pipeline(4, 48, Correction::BenjaminiHochberg { q: 0.05 }, 3);
        assert!(bh.len() >= bonf.len());
    }

    #[test]
    fn unseen_ads_produce_no_inferences() {
        // No browsing: empty matrix, nothing inferred.
        let mut catalog = AttributeCatalog::new();
        let attr = catalog.register("Cand", AttributeSource::Platform, None, 0.1);
        let mut p = Platform::new(PlatformConfig::default(), catalog);
        let mut rng = substream(4, "baseline-test");
        let pop = spawn_controls(
            &mut p,
            &[attr],
            &ControlDesign {
                accounts: 8,
                assignment_probability: 0.5,
            },
            &mut rng,
        );
        let matrix = collect_exposures(&mut p, &pop.accounts, 0);
        assert!(infer_targeting(&matrix, &pop, Correction::Bonferroni { alpha: 0.05 }).is_empty());
    }

    #[test]
    fn accuracy_scoring() {
        let truth: BTreeMap<AdId, AttributeId> =
            [(AdId(1), AttributeId(10)), (AdId(2), AttributeId(20))]
                .into_iter()
                .collect();
        let inferred = vec![
            InferredTargeting {
                ad: AdId(1),
                attribute: AttributeId(10),
                p_value: 0.001,
            },
            InferredTargeting {
                ad: AdId(1),
                attribute: AttributeId(99),
                p_value: 0.01,
            },
        ];
        let acc = score(&inferred, &truth);
        assert_eq!(acc.true_positives, 1);
        assert_eq!(acc.false_positives, 1);
        assert_eq!(acc.false_negatives, 1);
        assert!((acc.precision() - 0.5).abs() < 1e-12);
        assert!((acc.recall() - 0.5).abs() < 1e-12);
        // Degenerate cases.
        let empty = score(&[], &BTreeMap::new());
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }
}
