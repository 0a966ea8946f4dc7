//! Campaign planning: turning a transparency goal into a set of Treads.
//!
//! The provider "selects a set of attributes (potentially the pre-selected
//! set of attributes that the advertising platform offers advertisers), and
//! pays to run one Tread corresponding to each attribute" (§3.1). Plans:
//!
//! * [`CampaignPlan::binary_in_ad`] / [`CampaignPlan::binary_landing`] —
//!   one positive Tread per binary attribute (the validation's 507-ad
//!   plan).
//! * [`CampaignPlan::exclusion_in_ad`] — one exclusion Tread per
//!   attribute, revealing false-or-missing.
//! * [`CampaignPlan::group_bits_in_ad`] — the §3.1 "Scale" construction:
//!   an m-valued attribute group needs only ~log₂(m) Treads, one per bit
//!   of the value's code, because "each Tread can represent one of the
//!   log₂(m) bits to be learnt".
//!
//! ### Bit-slice coding detail
//!
//! Members of a group are coded 1..=m in catalog order (1-based). A user
//! holding member *i* receives exactly the Treads for the set bits of
//! code *i*; a user holding **no** member receives none. The 1-based
//! coding is what disambiguates "holds member 0" from "holds nothing" —
//! with 0-based codes the two would look identical. The price is
//! ⌈log₂(m+1)⌉ Treads instead of the paper's idealized ⌈log₂ m⌉ (equal
//! for all m except powers of two); EXPERIMENTS.md notes the deviation.

use crate::disclosure::Disclosure;
use crate::encoding::Encoding;
use crate::tread::Tread;
use adsim_types::AttributeId;
use adsim_types::Money;

/// One Tread within a plan, with its stable index (used for landing-page
/// URLs and reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTread {
    /// Position within the plan.
    pub index: usize,
    /// The Tread itself.
    pub tread: Tread,
}

/// An ordered set of Treads the provider will run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Plan label (used in campaign names).
    pub name: String,
    /// The planned Treads, in order.
    pub treads: Vec<PlannedTread>,
}

impl CampaignPlan {
    fn from_treads(name: impl Into<String>, treads: Vec<Tread>) -> Self {
        Self {
            name: name.into(),
            treads: treads
                .into_iter()
                .enumerate()
                .map(|(index, tread)| PlannedTread { index, tread })
                .collect(),
        }
    }

    /// One positive in-ad Tread per attribute name.
    pub fn binary_in_ad<S: AsRef<str>>(
        name: impl Into<String>,
        attributes: &[S],
        encoding: Encoding,
    ) -> Self {
        let treads = attributes
            .iter()
            .map(|a| {
                Tread::in_ad(
                    Disclosure::HasAttribute {
                        name: a.as_ref().to_string(),
                    },
                    encoding,
                )
            })
            .collect();
        Self::from_treads(name, treads)
    }

    /// One positive landing-page Tread per attribute; URLs are
    /// `{url_base}/{index}`.
    pub fn binary_landing<S: AsRef<str>>(
        name: impl Into<String>,
        attributes: &[S],
        url_base: &str,
    ) -> Self {
        let treads = attributes
            .iter()
            .enumerate()
            .map(|(i, a)| {
                Tread::via_landing_page(
                    Disclosure::HasAttribute {
                        name: a.as_ref().to_string(),
                    },
                    format!("{url_base}/{i}"),
                )
            })
            .collect();
        Self::from_treads(name, treads)
    }

    /// One exclusion Tread per attribute (reveals false-or-missing).
    pub fn exclusion_in_ad<S: AsRef<str>>(
        name: impl Into<String>,
        attributes: &[S],
        encoding: Encoding,
    ) -> Self {
        let treads = attributes
            .iter()
            .map(|a| {
                Tread::in_ad(
                    Disclosure::LacksAttribute {
                        name: a.as_ref().to_string(),
                    },
                    encoding,
                )
            })
            .collect();
        Self::from_treads(name, treads)
    }

    /// One location Tread per candidate ZIP code: the per-value plan for
    /// the paper's non-binary location attribute. Each user pays for at
    /// most as many impressions as ZIPs they actually visited.
    pub fn location_sweep_in_ad<S: AsRef<str>>(
        name: impl Into<String>,
        zips: &[S],
        encoding: Encoding,
    ) -> Self {
        let treads = zips
            .iter()
            .map(|z| {
                Tread::in_ad(
                    Disclosure::VisitedZip {
                        zip: z.as_ref().to_string(),
                    },
                    encoding,
                )
            })
            .collect();
        Self::from_treads(name, treads)
    }

    /// Bit-slice plan for an m-member group: ⌈log₂(m+1)⌉ Treads.
    pub fn group_bits_in_ad(
        name: impl Into<String>,
        group: &str,
        member_count: usize,
        encoding: Encoding,
    ) -> Self {
        let treads = (0..bits_needed(member_count))
            .map(|bit| {
                Tread::in_ad(
                    Disclosure::GroupBit {
                        group: group.to_string(),
                        bit,
                    },
                    encoding,
                )
            })
            .collect();
        Self::from_treads(name, treads)
    }

    /// Concatenates another plan onto this one (re-indexing its Treads).
    pub fn extend(&mut self, other: CampaignPlan) {
        for planned in other.treads {
            let index = self.treads.len();
            self.treads.push(PlannedTread {
                index,
                tread: planned.tread,
            });
        }
    }

    /// Number of Treads in the plan.
    pub fn len(&self) -> usize {
        self.treads.len()
    }

    /// True if the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.treads.is_empty()
    }

    /// Splits the plan into `n` contiguous slices of near-equal size, for
    /// the crowdsourced provider (§4 "Evading shutdown"). Slices keep
    /// their Treads' original indices.
    pub fn split(&self, n: usize) -> Vec<CampaignPlan> {
        assert!(n > 0, "cannot split into zero slices");
        let per = self.treads.len().div_ceil(n);
        self.treads
            .chunks(per.max(1))
            .enumerate()
            .map(|(i, chunk)| CampaignPlan {
                name: format!("{}-slice{}", self.name, i),
                treads: chunk.to_vec(),
            })
            .collect()
    }

    /// Expected cost for one user holding `attributes_held` of this plan's
    /// attributes, billed at `cpm` per impression shown (the paper's
    /// model: "there is zero per-user cost for … targeting parameters that
    /// a user does not have").
    pub fn expected_user_cost(attributes_held: usize, cpm: Money) -> Money {
        cpm.cpm_cost_of(attributes_held as u64)
    }
}

/// Treads needed to reveal an m-valued group with the bit-slice plan:
/// ⌈log₂(m+1)⌉ (1-based codes; see the module docs).
pub fn bits_needed(member_count: usize) -> u8 {
    let mut bits = 0u8;
    let mut capacity = 0usize;
    while capacity < member_count {
        capacity = capacity * 2 + 1; // with b bits we can code 2^b - 1 members
        bits += 1;
    }
    bits
}

/// The 1-based code assigned to each group member, in member order.
pub fn group_codes(members: &[AttributeId]) -> Vec<(AttributeId, usize)> {
    members
        .iter()
        .enumerate()
        .map(|(i, &attr)| (attr, i + 1))
        .collect()
}

/// The members whose code has `bit` set — the OR-targeting set for the
/// bit's Tread.
pub fn group_bit_members(members: &[AttributeId], bit: u8) -> Vec<AttributeId> {
    members
        .iter()
        .enumerate()
        .filter(|(i, _)| (i + 1) >> bit & 1 == 1)
        .map(|(_, &attr)| attr)
        .collect()
}

/// Reconstructs the member index (0-based) from the set of received bits;
/// `None` when no bits were received (the user holds no member) or the
/// code is out of range.
pub fn decode_group_code(bits: &[u8], member_count: usize) -> Option<usize> {
    if bits.is_empty() {
        return None;
    }
    let mut code = 0usize;
    for &bit in bits {
        code |= 1usize << bit;
    }
    if code >= 1 && code <= member_count {
        Some(code - 1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_plan_is_one_tread_per_attribute() {
        let attrs = ["A", "B", "C"];
        let plan = CampaignPlan::binary_in_ad("test", &attrs, Encoding::CodebookToken);
        assert_eq!(plan.len(), 3);
        for (i, planned) in plan.treads.iter().enumerate() {
            assert_eq!(planned.index, i);
            assert_eq!(
                planned.tread.disclosure,
                Disclosure::HasAttribute {
                    name: attrs[i].to_string()
                }
            );
        }
    }

    #[test]
    fn landing_plan_has_distinct_urls() {
        let attrs = ["A", "B"];
        let plan = CampaignPlan::binary_landing("test", &attrs, "https://p.example/r");
        let urls: Vec<_> = plan
            .treads
            .iter()
            .map(|p| match &p.tread.channel {
                crate::tread::DisclosureChannel::LandingPage { url } => url.clone(),
                other => panic!("expected landing channel, got {other:?}"),
            })
            .collect();
        assert_eq!(urls, vec!["https://p.example/r/0", "https://p.example/r/1"]);
    }

    #[test]
    fn exclusion_plan_uses_lacks() {
        let plan = CampaignPlan::exclusion_in_ad("test", &["A"], Encoding::Explicit);
        assert_eq!(
            plan.treads[0].tread.disclosure,
            Disclosure::LacksAttribute { name: "A".into() }
        );
    }

    #[test]
    fn location_sweep_is_one_tread_per_zip() {
        let plan =
            CampaignPlan::location_sweep_in_ad("loc", &["10001", "60601"], Encoding::CodebookToken);
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.treads[1].tread.disclosure,
            Disclosure::VisitedZip {
                zip: "60601".into()
            }
        );
    }

    #[test]
    fn bits_needed_matches_formula() {
        // b bits code 2^b - 1 members (1-based).
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 3);
        assert_eq!(bits_needed(7), 3);
        assert_eq!(bits_needed(8), 4);
        assert_eq!(bits_needed(9), 4); // the paper's 9 net-worth bands: 4 Treads vs 9
        assert_eq!(bits_needed(15), 4);
        assert_eq!(bits_needed(16), 5);
        assert_eq!(bits_needed(507), 9); // whole partner catalog as one group
    }

    #[test]
    fn group_plan_size_is_logarithmic() {
        let plan = CampaignPlan::group_bits_in_ad("nw", "net_worth", 9, Encoding::CodebookToken);
        assert_eq!(plan.len(), 4);
        for (i, planned) in plan.treads.iter().enumerate() {
            assert_eq!(
                planned.tread.disclosure,
                Disclosure::GroupBit {
                    group: "net_worth".into(),
                    bit: i as u8
                }
            );
        }
    }

    #[test]
    fn bit_members_and_decode_are_inverse() {
        let members: Vec<AttributeId> = (10..19).map(AttributeId).collect(); // 9 members
        let n_bits = bits_needed(members.len());
        for (held_idx, _) in members.iter().enumerate() {
            // Which bit-Treads does a holder of member `held_idx` receive?
            let mut received = Vec::new();
            for bit in 0..n_bits {
                if group_bit_members(&members, bit).contains(&members[held_idx]) {
                    received.push(bit);
                }
            }
            assert_eq!(
                decode_group_code(&received, members.len()),
                Some(held_idx),
                "member {held_idx} failed to round trip"
            );
        }
        // A user holding nothing receives nothing and decodes to None.
        assert_eq!(decode_group_code(&[], members.len()), None);
    }

    #[test]
    fn decode_rejects_out_of_range_codes() {
        // Bits forming code 15 with only 9 members: corrupt.
        assert_eq!(decode_group_code(&[0, 1, 2, 3], 9), None);
        // Code 9 (bits 0 and 3) is the last valid member.
        assert_eq!(decode_group_code(&[0, 3], 9), Some(8));
    }

    #[test]
    fn split_partitions_preserving_indices() {
        let attrs: Vec<String> = (0..507).map(|i| format!("attr{i}")).collect();
        let plan = CampaignPlan::binary_in_ad("us", &attrs, Encoding::CodebookToken);
        let slices = plan.split(10);
        assert_eq!(slices.len(), 10);
        let total: usize = slices.iter().map(CampaignPlan::len).sum();
        assert_eq!(total, 507);
        // Indices are globally unique across slices.
        let mut seen = std::collections::BTreeSet::new();
        for slice in &slices {
            for p in &slice.treads {
                assert!(seen.insert(p.index));
            }
        }
        // Even split: each slice has at most ceil(507/10) = 51.
        assert!(slices.iter().all(|s| s.len() <= 51));
    }

    #[test]
    fn extend_reindexes() {
        let mut a = CampaignPlan::binary_in_ad("a", &["X"], Encoding::Explicit);
        let b = CampaignPlan::binary_in_ad("b", &["Y"], Encoding::Explicit);
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.treads[1].index, 1);
    }

    #[test]
    fn expected_user_cost_matches_paper() {
        // 50 attributes at $2 CPM → $0.10.
        assert_eq!(
            CampaignPlan::expected_user_cost(50, Money::dollars(2)),
            Money::cents(10)
        );
        // 0 attributes → $0 ("zero per-user cost" for unheld parameters).
        assert_eq!(
            CampaignPlan::expected_user_cost(0, Money::dollars(2)),
            Money::ZERO
        );
    }
}
