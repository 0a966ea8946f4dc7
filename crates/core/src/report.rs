//! The user-facing transparency report.
//!
//! The end product of the whole mechanism, from the user's point of view:
//! a readable statement of what the ad platform provably holds about
//! them, assembled from their decoded [`RevealedProfile`]. The paper's
//! goal — "users will have their platform-collected information revealed
//! to them" — lands here.
//!
//! The report is plain markdown so a browser extension could render it
//! directly; it carefully distinguishes the four epistemic classes a
//! Tread run produces: *proven present*, *proven false-or-missing*,
//! *proven value* (for groups and locations), and *no evidence* (absence
//! of a Tread is not proof of absence unless an exclusion Tread ran).

use crate::client::RevealedProfile;

/// Metadata stamped onto a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportContext {
    /// The ad platform the findings concern (e.g. `"BlueBook"`).
    pub platform_name: String,
    /// The transparency provider that ran the Treads.
    pub provider_name: String,
    /// Simulated timestamp of the report (milliseconds).
    pub generated_at_ms: u64,
}

/// Renders the markdown transparency report for one user.
pub fn render_markdown(profile: &RevealedProfile, ctx: &ReportContext) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# What {} provably knows about you\n\n",
        ctx.platform_name
    ));
    out.push_str(&format!(
        "Assembled by {} from the transparency ads you received \
         (report time t+{}ms).\n\n",
        ctx.provider_name, ctx.generated_at_ms
    ));
    out.push_str(
        "Every line below is *proof*, not inference: the ad platform only \
         delivers a targeted ad to people who match its data, so receiving \
         each ad demonstrates the corresponding fact.\n\n",
    );

    if profile.revealed_count() == 0 {
        out.push_str(
            "## Nothing revealed\n\nYou received no transparency ads. Either \
             the platform holds none of the probed attributes for you, or \
             you have not browsed enough for the ads to be delivered yet.\n",
        );
        return out;
    }

    if !profile.has.is_empty() {
        out.push_str("## Attributes the platform holds\n\n");
        for name in &profile.has {
            out.push_str(&format!("- {name}\n"));
        }
        out.push('\n');
    }
    if !profile.group_values.is_empty() {
        out.push_str("## Exact values the platform assigns you\n\n");
        for (group, value) in &profile.group_values {
            out.push_str(&format!("- {group}: **{value}**\n"));
        }
        out.push('\n');
    }
    if !profile.visited_zips.is_empty() {
        out.push_str("## Places the platform located you recently\n\n");
        for zip in &profile.visited_zips {
            out.push_str(&format!("- ZIP code {zip}\n"));
        }
        out.push('\n');
    }
    if !profile.pii_batches.is_empty() {
        out.push_str("## Contact identifiers the platform can target you by\n\n");
        for batch in &profile.pii_batches {
            out.push_str(&format!(
                "- the identifier you submitted in batch \"{batch}\"\n"
            ));
        }
        out.push('\n');
    }
    if !profile.lacks_or_missing.is_empty() {
        out.push_str("## Attributes proven false or missing\n\n");
        for name in &profile.lacks_or_missing {
            out.push_str(&format!(
                "- {name} (false, or absent from the platform's data)\n"
            ));
        }
        out.push('\n');
    }
    if !profile.corrupt_groups.is_empty() {
        out.push_str("## Inconclusive\n\n");
        for group in &profile.corrupt_groups {
            out.push_str(&format!(
                "- {group}: the received ads decoded to no valid value \
                 (possible delivery gap — keep browsing)\n"
            ));
        }
        out.push('\n');
    }
    if profile.non_tread_ads > 0 {
        out.push_str(&format!(
            "_({} ordinary ads were also captured and ignored.)_\n",
            profile.non_tread_ads
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn ctx() -> ReportContext {
        ReportContext {
            platform_name: "BlueBook".into(),
            provider_name: "Know Your Data".into(),
            generated_at_ms: 1234,
        }
    }

    #[test]
    fn empty_profile_reports_nothing_revealed() {
        let report = render_markdown(&RevealedProfile::default(), &ctx());
        assert!(report.contains("Nothing revealed"));
        assert!(report.contains("BlueBook"));
        assert!(!report.contains("## Attributes the platform holds"));
    }

    #[test]
    fn full_profile_renders_every_section() {
        let profile = RevealedProfile {
            has: BTreeSet::from(["Net worth: $2M+".to_string()]),
            lacks_or_missing: BTreeSet::from(["Housing: renter".to_string()]),
            group_values: BTreeMap::from([(
                "net_worth".to_string(),
                "Net worth: $2M+".to_string(),
            )]),
            corrupt_groups: BTreeSet::from(["job_role".to_string()]),
            visited_zips: BTreeSet::from(["02139".to_string()]),
            pii_batches: BTreeSet::from(["phone-2fa-1".to_string()]),
            non_tread_ads: 7,
        };
        let report = render_markdown(&profile, &ctx());
        for needle in [
            "## Attributes the platform holds",
            "- Net worth: $2M+",
            "## Exact values the platform assigns you",
            "## Places the platform located you recently",
            "- ZIP code 02139",
            "## Contact identifiers the platform can target you by",
            "phone-2fa-1",
            "## Attributes proven false or missing",
            "Housing: renter",
            "## Inconclusive",
            "job_role",
            "7 ordinary ads",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn report_distinguishes_proof_from_absence() {
        // A profile that only lacks things must not claim positive holds.
        let profile = RevealedProfile {
            lacks_or_missing: BTreeSet::from(["X".to_string()]),
            ..RevealedProfile::default()
        };
        let report = render_markdown(&profile, &ctx());
        assert!(report.contains("proven false or missing"));
        assert!(!report.contains("## Attributes the platform holds"));
    }
}
