//! The sparse-coverage model: which people have broker dossiers, and what
//! is in them.
//!
//! Data brokers compile dossiers from offline footprints — credit activity,
//! property records, loyalty programs. Coverage is therefore *sparse and
//! biased*: long-time residents with purchase histories are richly covered,
//! while (as the paper observes of its second author, a graduate student
//! in the U.S. for about a year) recent arrivals may have **no** dossier at
//! all. That asymmetry is exactly what the paper's validation surfaced —
//! one author received eleven partner-attribute Treads, the other only the
//! control ad — so the model makes "years of U.S. footprint" the primary
//! coverage driver.

use crate::catalog::PartnerCatalog;
use crate::records::BrokerRecord;
use rand::Rng;

/// A person's offline footprint, the input to the coverage model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// Years of U.S. residence / economic activity.
    pub years_resident: f64,
    /// Relative affluence in [0, 1]; scales financial-segment coverage.
    pub affluence: f64,
    /// Relative purchase activity in [0, 1]; scales purchase-segment
    /// coverage.
    pub purchase_activity: f64,
}

impl Footprint {
    /// A typical long-time resident with moderate affluence.
    pub fn typical() -> Self {
        Self {
            years_resident: 15.0,
            affluence: 0.5,
            purchase_activity: 0.5,
        }
    }

    /// A recent arrival with essentially no offline footprint — the
    /// paper's second author.
    pub fn recent_arrival() -> Self {
        Self {
            years_resident: 1.0,
            affluence: 0.2,
            purchase_activity: 0.2,
        }
    }
}

/// Parameters of the coverage model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageModel {
    /// Years of residence at which the probability of having *any* dossier
    /// reaches one half (logistic midpoint).
    pub dossier_midpoint_years: f64,
    /// Steepness of the dossier-probability logistic.
    pub dossier_steepness: f64,
    /// Global multiplier on per-attribute assignment probability.
    pub attribute_density: f64,
}

impl Default for CoverageModel {
    fn default() -> Self {
        Self {
            dossier_midpoint_years: 3.0,
            dossier_steepness: 1.2,
            attribute_density: 1.0,
        }
    }
}

impl CoverageModel {
    /// Probability that a person with this footprint has a broker dossier
    /// at all.
    pub fn dossier_probability(&self, fp: &Footprint) -> f64 {
        let x = self.dossier_steepness * (fp.years_resident - self.dossier_midpoint_years);
        1.0 / (1.0 + (-x).exp())
    }

    /// Samples a dossier for a person: `None` if the broker has never heard
    /// of them, otherwise a record populated by per-attribute Bernoulli
    /// draws scaled by the footprint.
    ///
    /// Mutually-exclusive groups are respected: at most one attribute per
    /// group is asserted (chosen uniformly among the group when the group
    /// fires at all).
    pub fn sample_dossier<R: Rng>(
        &self,
        catalog: &PartnerCatalog,
        fp: &Footprint,
        email: &str,
        phone: Option<&str>,
        rng: &mut R,
    ) -> Option<BrokerRecord> {
        if rng.gen::<f64>() >= self.dossier_probability(fp) {
            return None;
        }
        let mut record = BrokerRecord::from_pii(email, phone);

        // Group attributes: one draw per group, then a uniform band choice.
        for group in catalog.group_names() {
            let members = catalog.group(group);
            let rate = members.iter().map(|a| a.base_rate).sum::<f64>() / members.len() as f64;
            let p = (rate * self.segment_scale(fp, members[0].segment) * self.attribute_density)
                .clamp(0.0, 1.0);
            if rng.gen::<f64>() < p {
                let pick = rng.gen_range(0..members.len());
                record.assert_attribute(members[pick].name.clone());
            }
        }
        // Ungrouped attributes: independent Bernoulli draws.
        for attr in catalog.attributes().iter().filter(|a| a.group.is_none()) {
            let p =
                (attr.base_rate * self.segment_scale(fp, attr.segment) * self.attribute_density)
                    .clamp(0.0, 1.0);
            if rng.gen::<f64>() < p {
                record.assert_attribute(attr.name.clone());
            }
        }
        Some(record)
    }

    /// Footprint-dependent scaling of a segment's assignment probability.
    fn segment_scale(&self, fp: &Footprint, segment: crate::catalog::Segment) -> f64 {
        use crate::catalog::Segment::*;
        let tenure = (fp.years_resident / 10.0).min(1.5);
        match segment {
            Financial => tenure * (0.5 + fp.affluence),
            Purchase => tenure * (0.5 + fp.purchase_activity),
            Housing | Automotive => tenure * (0.4 + 0.6 * fp.affluence),
            _ => tenure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::rng::substream;

    #[test]
    fn recent_arrivals_rarely_have_dossiers() {
        let model = CoverageModel::default();
        let p_recent = model.dossier_probability(&Footprint::recent_arrival());
        let p_typical = model.dossier_probability(&Footprint::typical());
        assert!(p_recent < 0.1, "recent arrival dossier p = {p_recent}");
        assert!(p_typical > 0.99, "typical resident dossier p = {p_typical}");
    }

    #[test]
    fn sampled_dossiers_respect_group_exclusivity() {
        let catalog = PartnerCatalog::us();
        let model = CoverageModel::default();
        let mut rng = substream(7, "coverage-test");
        let mut sampled = 0;
        for i in 0..200 {
            let email = format!("person{i}@example.com");
            if let Some(rec) =
                model.sample_dossier(&catalog, &Footprint::typical(), &email, None, &mut rng)
            {
                sampled += 1;
                for group in catalog.group_names() {
                    let members = catalog.group(group);
                    let held = members.iter().filter(|a| rec.has(&a.name)).count();
                    assert!(held <= 1, "group {group} violated exclusivity: {held} held");
                }
            }
        }
        assert!(sampled > 150, "typical residents should mostly be covered");
    }

    #[test]
    fn typical_dossiers_are_nonempty_and_plausible() {
        let catalog = PartnerCatalog::us();
        let model = CoverageModel::default();
        let mut rng = substream(11, "coverage-size");
        let mut sizes = Vec::new();
        for i in 0..100 {
            let email = format!("p{i}@example.com");
            if let Some(rec) =
                model.sample_dossier(&catalog, &Footprint::typical(), &email, None, &mut rng)
            {
                sizes.push(rec.len() as f64);
            }
        }
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        // A covered person should hold a few dozen partner attributes —
        // the same order of magnitude as the "98 data points" press
        // coverage the paper cites — and never all 507.
        assert!(mean > 10.0 && mean < 200.0, "mean dossier size {mean}");
        assert!(sizes.iter().all(|&s| s < 400.0));
    }

    #[test]
    fn density_knob_scales_coverage() {
        let catalog = PartnerCatalog::us();
        let sparse = CoverageModel {
            attribute_density: 0.1,
            ..CoverageModel::default()
        };
        let dense = CoverageModel {
            attribute_density: 1.0,
            ..CoverageModel::default()
        };
        let mut rng_a = substream(3, "density-a");
        let mut rng_b = substream(3, "density-b");
        let mut total_sparse = 0usize;
        let mut total_dense = 0usize;
        for i in 0..50 {
            let email = format!("q{i}@example.com");
            if let Some(r) =
                sparse.sample_dossier(&catalog, &Footprint::typical(), &email, None, &mut rng_a)
            {
                total_sparse += r.len();
            }
            if let Some(r) =
                dense.sample_dossier(&catalog, &Footprint::typical(), &email, None, &mut rng_b)
            {
                total_dense += r.len();
            }
        }
        assert!(
            total_dense > total_sparse * 3,
            "density knob ineffective: dense={total_dense} sparse={total_sparse}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let catalog = PartnerCatalog::us();
        let model = CoverageModel::default();
        let sample = |seed| {
            let mut rng = substream(seed, "determinism");
            model.sample_dossier(
                &catalog,
                &Footprint::typical(),
                "same@example.com",
                None,
                &mut rng,
            )
        };
        assert_eq!(sample(5), sample(5));
    }
}
