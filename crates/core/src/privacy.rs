//! The threat-model analyzer (§3.1 "Privacy analysis").
//!
//! The paper's threat model: anonymously opted-in users; a provider that
//! sees (a) the platform's aggregate performance statistics and (b) its
//! own landing-page access logs. The claims to check:
//!
//! 1. the provider can estimate **how many** opted-in users have an
//!    attribute, but not **which** — provided the platform reports
//!    aggregates coarsely ([`count_inference`], [`linkage_risk`]);
//! 2. in-ad Treads leave "no scope for leakage except via the platform";
//!    landing-page Treads leak via cookies unless users clear/block them
//!    (analyzed against `websim::landing::LandingServer` logs in E4).
//!
//! [`linkage_risk`] quantifies claim 1's failure mode: with exact
//! reporting and a small cohort, a reach of exactly 1 pins the attribute
//! on *somebody*, and with a cohort of 1 it deanonymizes them. That is
//! the E4 ablation (platform privacy floor disabled).

use crate::provider::ProviderView;

/// What the provider can infer about one Tread's attribute from the
/// platform's aggregate report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountInference {
    /// Plan index of the Tread.
    pub index: usize,
    /// Human label of the disclosure.
    pub disclosure: String,
    /// The provider's best estimate of how many opted-in users hold the
    /// attribute: `None` when the platform said only "below floor".
    pub estimated_holders: Option<u64>,
    /// True if the platform reported below-floor (the provider learns
    /// almost nothing).
    pub below_floor: bool,
}

/// Risk classification for the linkage attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkageRisk {
    /// Aggregate reporting is coarse: the provider cannot even bound the
    /// holder set usefully.
    Safe,
    /// Exact counts visible but the cohort is large: the provider learns
    /// prevalence, not identities.
    PrevalenceOnly,
    /// Exact count of 1..k in a small cohort: the holder set is narrowed
    /// to a small set of candidates.
    NarrowedTo {
        /// Number of candidate users the holder set is narrowed to.
        candidates: usize,
    },
    /// Cohort of one with a positive exact count: full deanonymization.
    Deanonymized,
}

/// Derives the provider's count inferences from its view — this is the
/// *entirety* of what the §3.1 threat model allows it to learn from the
/// platform.
pub fn count_inference(view: &ProviderView) -> Vec<CountInference> {
    view.stats
        .iter()
        .map(|s| CountInference {
            index: s.index,
            disclosure: s.tread.disclosure.human_text(),
            estimated_holders: if s.report.below_reach_floor {
                None
            } else {
                Some(s.report.estimated_reach)
            },
            below_floor: s.report.below_reach_floor,
        })
        .collect()
}

/// Classifies the linkage risk of one Tread's report against an opted-in
/// cohort of `optin_size` users.
///
/// `exact_reporting` says whether the platform reports exact reach
/// (the E4 ablation); with coarse reporting the answer is always
/// [`LinkageRisk::Safe`] unless the cohort itself is degenerate.
pub fn linkage_risk(
    reported_reach: u64,
    below_floor: bool,
    exact_reporting: bool,
    optin_size: usize,
) -> LinkageRisk {
    if optin_size == 0 {
        return LinkageRisk::Safe;
    }
    if !exact_reporting {
        // Coarse reporting: a below-floor report reveals only "fewer than
        // floor"; a rounded report reveals a wide band. Either way no
        // individual is implicated — unless the cohort is a single user
        // and the ad demonstrably delivered (billing > 0), which coarse
        // reach floors also mask. Treat as safe.
        return LinkageRisk::Safe;
    }
    if below_floor {
        return LinkageRisk::Safe;
    }
    match (reported_reach, optin_size) {
        (0, _) => LinkageRisk::Safe,
        (r, 1) if r >= 1 => LinkageRisk::Deanonymized,
        (r, n) if (r as usize) < n && n <= 20 => LinkageRisk::NarrowedTo { candidates: n },
        _ => LinkageRisk::PrevalenceOnly,
    }
}

/// Assessment of a full view against a cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewAssessment {
    /// Per-Tread linkage risks.
    pub risks: Vec<(usize, LinkageRisk)>,
    /// The worst risk across the view.
    pub worst: LinkageRisk,
}

/// Assesses every Tread in a provider view.
pub fn assess_view(
    view: &ProviderView,
    exact_reporting: bool,
    optin_size: usize,
) -> ViewAssessment {
    let mut risks = Vec::with_capacity(view.stats.len());
    let mut worst = LinkageRisk::Safe;
    for s in &view.stats {
        let risk = linkage_risk(
            s.report.estimated_reach,
            s.report.below_reach_floor,
            exact_reporting,
            optin_size,
        );
        if severity(risk) > severity(worst) {
            worst = risk;
        }
        risks.push((s.index, risk));
    }
    ViewAssessment { risks, worst }
}

fn severity(r: LinkageRisk) -> u8 {
    match r {
        LinkageRisk::Safe => 0,
        LinkageRisk::PrevalenceOnly => 1,
        LinkageRisk::NarrowedTo { .. } => 2,
        LinkageRisk::Deanonymized => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::Disclosure;
    use crate::encoding::Encoding;
    use crate::provider::{ProviderView, TreadStats};
    use crate::tread::Tread;
    use adplatform::billing::Invoice;
    use adplatform::reporting::AdReport;
    use adsim_types::{AccountId, AdId, Money};

    fn view_with(reach: u64, below_floor: bool) -> ProviderView {
        ProviderView {
            stats: vec![TreadStats {
                index: 0,
                tread: Tread::in_ad(
                    Disclosure::HasAttribute {
                        name: "Net worth: $2M+".into(),
                    },
                    Encoding::CodebookToken,
                ),
                report: AdReport {
                    ad: AdId(1),
                    impressions: reach,
                    estimated_reach: reach,
                    below_reach_floor: below_floor,
                    spend: Money::ZERO,
                },
            }],
            control_report: None,
            invoice: Invoice {
                account: AccountId(1),
                gross: Money::ZERO,
                waived: Money::ZERO,
                due: Money::ZERO,
            },
        }
    }

    #[test]
    fn count_inference_reports_only_aggregates() {
        let inferences = count_inference(&view_with(0, true));
        assert_eq!(inferences.len(), 1);
        assert!(inferences[0].below_floor);
        assert_eq!(inferences[0].estimated_holders, None);
        let inferences = count_inference(&view_with(1200, false));
        assert_eq!(inferences[0].estimated_holders, Some(1200));
    }

    #[test]
    fn coarse_reporting_is_safe() {
        // The paper's validation shape: 2-user cohort, below-floor reports.
        assert_eq!(linkage_risk(0, true, false, 2), LinkageRisk::Safe);
        // Even a large cohort with rounded reach: safe.
        assert_eq!(linkage_risk(1200, false, false, 10_000), LinkageRisk::Safe);
    }

    #[test]
    fn exact_reporting_escalates() {
        // Cohort of 1: deanonymized.
        assert_eq!(linkage_risk(1, false, true, 1), LinkageRisk::Deanonymized);
        // Small cohort, partial reach: narrowed.
        assert_eq!(
            linkage_risk(1, false, true, 2),
            LinkageRisk::NarrowedTo { candidates: 2 }
        );
        // Large cohort: prevalence only.
        assert_eq!(
            linkage_risk(512, false, true, 10_000),
            LinkageRisk::PrevalenceOnly
        );
        // Zero reach: nothing learned about anyone.
        assert_eq!(linkage_risk(0, false, true, 1), LinkageRisk::Safe);
    }

    #[test]
    fn assess_view_takes_worst() {
        let assessment = assess_view(&view_with(1, false), true, 1);
        assert_eq!(assessment.worst, LinkageRisk::Deanonymized);
        let assessment = assess_view(&view_with(1, false), false, 1);
        assert_eq!(assessment.worst, LinkageRisk::Safe);
        assert_eq!(assessment.risks.len(), 1);
    }

    #[test]
    fn empty_cohort_is_trivially_safe() {
        assert_eq!(linkage_risk(5, false, true, 0), LinkageRisk::Safe);
    }
}
