//! Control-account population design.
//!
//! XRay-style systems create fake accounts whose profiles differ in
//! controlled ways: each candidate attribute is assigned to each control
//! account independently (probability ½ by default), so that any
//! ad↔attribute correlation in the exposure matrix is attributable to
//! targeting rather than chance. The paper calls out exactly this cost:
//! "a large number of (fake) control accounts to be created in order to
//! make statistically significant claims".

use adplatform::profile::Gender;
use adplatform::Platform;
use adsim_types::{AttributeId, UserId};
use rand::Rng;
use std::collections::BTreeMap;

/// Parameters of the control population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlDesign {
    /// Number of fake accounts to create.
    pub accounts: usize,
    /// Probability each candidate attribute is assigned to each account.
    pub assignment_probability: f64,
}

impl Default for ControlDesign {
    fn default() -> Self {
        Self {
            accounts: 32,
            assignment_probability: 0.5,
        }
    }
}

/// The spawned control population with its ground-truth assignments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlPopulation {
    /// The fake accounts, in creation order.
    pub accounts: Vec<UserId>,
    /// Ground truth: account → attributes assigned.
    pub assignments: BTreeMap<UserId, Vec<AttributeId>>,
    /// The candidate attributes under study.
    pub candidates: Vec<AttributeId>,
}

impl ControlPopulation {
    /// True if `account` was assigned `attr`.
    pub fn has(&self, account: UserId, attr: AttributeId) -> bool {
        self.assignments
            .get(&account)
            .map(|v| v.contains(&attr))
            .unwrap_or(false)
    }

    /// Accounts assigned a given attribute.
    pub fn holders(&self, attr: AttributeId) -> Vec<UserId> {
        self.accounts
            .iter()
            .filter(|&&a| self.has(a, attr))
            .copied()
            .collect()
    }
}

/// Registers `design.accounts` fake users on the platform and assigns each
/// candidate attribute independently with the design probability.
pub fn spawn_controls<R: Rng>(
    platform: &mut Platform,
    candidates: &[AttributeId],
    design: &ControlDesign,
    rng: &mut R,
) -> ControlPopulation {
    let mut population = ControlPopulation {
        candidates: candidates.to_vec(),
        ..ControlPopulation::default()
    };
    for i in 0..design.accounts {
        let user = platform.register_user(
            25 + (i % 40) as u8,
            if i % 2 == 0 {
                Gender::Female
            } else {
                Gender::Male
            },
            "California",
            "94103",
        );
        let mut assigned = Vec::new();
        for &attr in candidates {
            if rng.gen::<f64>() < design.assignment_probability {
                platform
                    .profiles
                    .grant_attribute(user, attr)
                    .expect("control user exists");
                assigned.push(attr);
            }
        }
        population.accounts.push(user);
        population.assignments.insert(user, assigned);
    }
    population
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::PlatformConfig;
    use adsim_types::rng::substream;

    fn platform_with(n: usize) -> (Platform, Vec<AttributeId>) {
        let mut catalog = AttributeCatalog::new();
        let ids: Vec<AttributeId> = (0..n)
            .map(|i| {
                catalog.register(
                    format!("Candidate {i}"),
                    AttributeSource::Platform,
                    None,
                    0.1,
                )
            })
            .collect();
        (Platform::new(PlatformConfig::default(), catalog), ids)
    }

    #[test]
    fn spawns_requested_population() {
        let (mut p, candidates) = platform_with(8);
        let mut rng = substream(1, "controls");
        let pop = spawn_controls(&mut p, &candidates, &ControlDesign::default(), &mut rng);
        assert_eq!(pop.accounts.len(), 32);
        assert_eq!(p.profiles.len(), 32);
        // Assignments match platform profiles.
        for &account in &pop.accounts {
            let profile = p.profile(account).expect("exists");
            for &attr in &candidates {
                assert_eq!(pop.has(account, attr), profile.has_attribute(attr));
            }
        }
    }

    #[test]
    fn assignment_rate_is_near_design_probability() {
        let (mut p, candidates) = platform_with(10);
        let mut rng = substream(2, "controls");
        let design = ControlDesign {
            accounts: 200,
            assignment_probability: 0.5,
        };
        let pop = spawn_controls(&mut p, &candidates, &design, &mut rng);
        let total: usize = pop.assignments.values().map(Vec::len).sum();
        let rate = total as f64 / (200.0 * 10.0);
        assert!((rate - 0.5).abs() < 0.05, "assignment rate {rate}");
    }

    #[test]
    fn holders_enumerates_ground_truth() {
        let (mut p, candidates) = platform_with(2);
        let mut rng = substream(3, "controls");
        let design = ControlDesign {
            accounts: 50,
            assignment_probability: 0.5,
        };
        let pop = spawn_controls(&mut p, &candidates, &design, &mut rng);
        let holders = pop.holders(candidates[0]);
        assert!(!holders.is_empty() && holders.len() < 50);
        for h in &holders {
            assert!(pop.has(*h, candidates[0]));
        }
    }

    #[test]
    fn zero_probability_assigns_nothing() {
        let (mut p, candidates) = platform_with(3);
        let mut rng = substream(4, "controls");
        let design = ControlDesign {
            accounts: 10,
            assignment_probability: 0.0,
        };
        let pop = spawn_controls(&mut p, &candidates, &design, &mut rng);
        assert!(pop.assignments.values().all(Vec::is_empty));
    }
}
