//! Synthetic user populations.
//!
//! Generates platform users end to end, through the same interfaces real
//! data flows through:
//!
//! 1. register the user with demographics (ages, genders, states drawn
//!    deterministically);
//! 2. attach PII (email always; phone for most, sometimes with 2FA or
//!    contact-sync provenance — the PETS 2019 finding E7 builds on);
//! 3. grant **platform attributes** by catalog prevalence;
//! 4. build a **broker dossier** from the user's footprint (sparse, per
//!    `treads_broker::CoverageModel`), ship all dossiers as a
//!    [`treads_broker::BrokerFeed`], and onboard the feed — partner
//!    attributes arrive on profiles only via hashed-PII matching, exactly
//!    like production partner integrations.

use crate::names;
use adplatform::attributes::US_STATES;
use adplatform::profile::{Gender, PiiKind, PiiProvenance};
use adplatform::Platform;
use adsim_types::rng::SeedSource;
use adsim_types::UserId;
use rand::Rng;
use treads_broker::coverage::Footprint;
use treads_broker::{BrokerFeed, CoverageModel};

/// A hand-specified persona (used by the validation scenario for the two
/// authors).
#[derive(Debug, Clone, PartialEq)]
pub struct Persona {
    /// Display label.
    pub label: String,
    /// Age.
    pub age: u8,
    /// Gender.
    pub gender: Gender,
    /// U.S. state.
    pub state: String,
    /// ZIP code.
    pub zip: String,
    /// Email (PII).
    pub email: String,
    /// Exact partner attributes this persona's broker dossier asserts
    /// (empty = no dossier at all).
    pub partner_attributes: Vec<String>,
    /// Platform attribute names to grant directly.
    pub platform_attributes: Vec<String>,
}

/// Population generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of users to generate.
    pub size: usize,
    /// Fraction of users who attach a phone number.
    pub phone_rate: f64,
    /// Of phone-attachers, fraction whose phone arrived via 2FA.
    pub two_factor_rate: f64,
    /// Scale on platform-attribute prevalences.
    pub platform_attribute_scale: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            size: 1_000,
            phone_rate: 0.7,
            two_factor_rate: 0.3,
            platform_attribute_scale: 1.0,
        }
    }
}

/// What population generation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationReport {
    /// The generated users, in creation order.
    pub users: Vec<UserId>,
    /// Users whose broker dossier matched (have ≥1 partner attribute).
    pub broker_covered: usize,
    /// Total partner-attribute grants from feed onboarding.
    pub partner_grants: usize,
}

/// Generates a population onto the platform (see module docs for the
/// pipeline). Deterministic per `(platform seed-independent) seeds` value.
pub fn generate(
    platform: &mut Platform,
    config: &PopulationConfig,
    coverage: &CoverageModel,
    seeds: SeedSource,
) -> PopulationReport {
    let mut rng = seeds.rng("population");
    let mut feed = BrokerFeed::new();
    let mut users = Vec::with_capacity(config.size);
    let partner_names: std::collections::BTreeSet<String> = platform
        .attributes
        .partner_attributes()
        .iter()
        .map(|d| d.name.clone())
        .collect();
    // Broker catalog for dossier sampling (same construction as the
    // platform's partner side).
    let broker_catalog = treads_broker::PartnerCatalog::us();

    for i in 0..config.size {
        let age = rng.gen_range(18..80);
        let gender = match i % 3 {
            0 => Gender::Female,
            1 => Gender::Male,
            _ => Gender::Unspecified,
        };
        let state = US_STATES[rng.gen_range(0..US_STATES.len())];
        let zip = format!("{:05}", 10_000 + rng.gen_range(0..80_000));
        let user = platform.register_user(age, gender, state, &zip);
        users.push(user);

        // PII.
        let email = names::email(i);
        platform
            .attach_user_pii(user, PiiKind::Email, &email, PiiProvenance::UserProvided)
            .expect("fresh user");
        let mut phone = None;
        if rng.gen::<f64>() < config.phone_rate {
            let raw = names::phone(i);
            let provenance = if rng.gen::<f64>() < config.two_factor_rate {
                PiiProvenance::TwoFactor
            } else {
                PiiProvenance::UserProvided
            };
            platform
                .attach_user_pii(user, PiiKind::Phone, &raw, provenance)
                .expect("fresh user");
            phone = Some(raw);
        }

        // Platform attributes by prevalence.
        let grants: Vec<_> = platform
            .attributes
            .platform_attributes()
            .iter()
            .filter(|d| {
                rng.gen::<f64>() < (d.prevalence * config.platform_attribute_scale).min(1.0)
            })
            .map(|d| d.id)
            .collect();
        for id in grants {
            platform
                .profiles
                .grant_attribute(user, id)
                .expect("fresh user");
        }

        // Broker dossier from a sampled footprint.
        let footprint = Footprint {
            years_resident: rng.gen_range(0.0..40.0),
            affluence: rng.gen::<f64>(),
            purchase_activity: rng.gen::<f64>(),
        };
        if let Some(dossier) = coverage.sample_dossier(
            &broker_catalog,
            &footprint,
            &email,
            phone.as_deref(),
            &mut rng,
        ) {
            feed.ingest(dossier);
        }
    }

    let partner_grants = platform.onboard_broker_feed(&feed);
    let broker_covered = users
        .iter()
        .filter(|&&u| {
            platform
                .profile(u)
                .expect("generated user")
                .attributes
                .iter()
                .any(|id| {
                    platform
                        .attributes
                        .get(*id)
                        .map(|d| partner_names.contains(&d.name))
                        .unwrap_or(false)
                })
        })
        .count();

    PopulationReport {
        users,
        broker_covered,
        partner_grants,
    }
}

/// Installs a hand-specified persona: registers the user, attaches PII,
/// grants platform attributes, and (if the persona has partner
/// attributes) ships a one-dossier broker feed and onboards it.
pub fn install_persona(platform: &mut Platform, persona: &Persona) -> UserId {
    let user = platform.register_user(persona.age, persona.gender, &persona.state, &persona.zip);
    platform
        .attach_user_pii(
            user,
            PiiKind::Email,
            &persona.email,
            PiiProvenance::UserProvided,
        )
        .expect("fresh persona user");
    for name in &persona.platform_attributes {
        let id = platform
            .attributes
            .id_of(name)
            .unwrap_or_else(|| panic!("persona references unknown platform attribute {name:?}"));
        platform
            .profiles
            .grant_attribute(user, id)
            .expect("fresh persona user");
    }
    if !persona.partner_attributes.is_empty() {
        let mut record = treads_broker::BrokerRecord::from_pii(&persona.email, None);
        for name in &persona.partner_attributes {
            record.assert_attribute(name.clone());
        }
        let mut feed = BrokerFeed::new();
        feed.ingest(record);
        platform.onboard_broker_feed(&feed);
    }
    user
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::PlatformConfig;

    fn small_platform() -> Platform {
        Platform::us_2018(PlatformConfig::default())
    }

    #[test]
    fn generate_produces_full_profiles() {
        let mut p = small_platform();
        let config = PopulationConfig {
            size: 60,
            ..PopulationConfig::default()
        };
        let report = generate(
            &mut p,
            &config,
            &CoverageModel::default(),
            SeedSource::new(42),
        );
        assert_eq!(report.users.len(), 60);
        assert_eq!(p.profiles.len(), 60);
        // Everyone has an email; most have attributes.
        let with_attrs = report
            .users
            .iter()
            .filter(|&&u| !p.profile(u).expect("u").attributes.is_empty())
            .count();
        assert!(with_attrs > 50);
        // Broker coverage is partial, not total (sparse by design).
        assert!(report.broker_covered > 0);
        assert!(report.broker_covered < 60);
        assert!(report.partner_grants > 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = small_platform();
            let config = PopulationConfig {
                size: 30,
                ..PopulationConfig::default()
            };
            let report = generate(
                &mut p,
                &config,
                &CoverageModel::default(),
                SeedSource::new(seed),
            );
            let sizes: Vec<usize> = report
                .users
                .iter()
                .map(|&u| p.profile(u).expect("u").attributes.len())
                .collect();
            (report.partner_grants, sizes)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn persona_installation() {
        let mut p = small_platform();
        let persona = Persona {
            label: "author A".into(),
            age: 45,
            gender: Gender::Male,
            state: "Massachusetts".into(),
            zip: "02115".into(),
            email: "authorA@example.com".into(),
            partner_attributes: vec!["Net worth: $2M+".into()],
            platform_attributes: vec!["Interest: musicals (Music)".into()],
        };
        let user = install_persona(&mut p, &persona);
        let profile = p.profile(user).expect("installed");
        let nw = p.attributes.id_of("Net worth: $2M+").expect("attr");
        let musicals = p
            .attributes
            .id_of("Interest: musicals (Music)")
            .expect("attr");
        assert!(profile.has_attribute(nw));
        assert!(profile.has_attribute(musicals));
    }

    #[test]
    #[should_panic(expected = "unknown platform attribute")]
    fn persona_with_bad_attribute_panics() {
        let mut p = small_platform();
        let persona = Persona {
            label: "bad".into(),
            age: 30,
            gender: Gender::Female,
            state: "Ohio".into(),
            zip: "43004".into(),
            email: "x@example.com".into(),
            partner_attributes: vec![],
            platform_attributes: vec!["No such".into()],
        };
        install_persona(&mut p, &persona);
    }
}
