//! What a Tread reveals.
//!
//! Each Tread carries exactly one [`Disclosure`] — "one bit of information
//! to the users that it reaches" (§3.1). The four forms cover everything
//! the paper describes:
//!
//! * [`Disclosure::HasAttribute`] — the basic positive reveal: the ad
//!   platform holds attribute A for you.
//! * [`Disclosure::LacksAttribute`] — the *exclusion* Tread: "an ad that
//!   excludes users who satisfy that attribute can reveal to the users that
//!   the attribute is either set to false, or is missing".
//! * [`Disclosure::GroupBit`] — one bit of a bit-slice plan for an
//!   m-valued attribute group (§3.1 "Scale").
//! * [`Disclosure::HasPii`] — the platform holds a specific hashed
//!   identifier of yours (§3.1 "Supporting PII").
//!
//! Disclosures have a canonical wire form ([`Disclosure::to_wire`] /
//! [`Disclosure::from_wire`]) that every encoding channel carries; the
//! round-trip property is what the encoding proptests check.

use adsim_types::{Error, Result};

/// The single piece of targeting information one Tread reveals.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Disclosure {
    /// The platform holds this attribute for you.
    HasAttribute {
        /// Attribute name as it appears in the platform catalog.
        name: String,
    },
    /// The platform's value for this attribute is false — or the platform
    /// has no value at all (the two are indistinguishable to an exclusion
    /// Tread, exactly as the paper notes).
    LacksAttribute {
        /// Attribute name as it appears in the platform catalog.
        name: String,
    },
    /// Bit `bit` of your (1-based) code for attribute group `group` is 1.
    GroupBit {
        /// The mutually-exclusive attribute group (e.g. `"net_worth"`).
        group: String,
        /// Which bit of the code this Tread represents (0 = LSB).
        bit: u8,
    },
    /// The platform has recently located you in this ZIP code — the
    /// paper's non-binary location example ("whether a user is determined
    /// to have recently visited a particular ZIP code as per the
    /// advertising platform").
    VisitedZip {
        /// The ZIP code.
        zip: String,
    },
    /// The platform holds the (hashed) identifier you submitted to the
    /// provider in the named batch. Each user knows which of their own
    /// identifiers went into which batch, so one Tread per batch gives
    /// per-identifier granularity to each recipient while respecting the
    /// platform's minimum custom-audience size.
    HasPii {
        /// Provider-assigned batch label, e.g. `"phone-2fa-2018w40"`.
        batch: String,
    },
}

impl Disclosure {
    /// Human-readable rendering — what an *explicit* Tread prints in the
    /// ad body (Figure 1a's style).
    pub fn human_text(&self) -> String {
        match self {
            Disclosure::HasAttribute { name } => {
                format!("According to this ad platform, you have the attribute: \"{name}\".")
            }
            Disclosure::LacksAttribute { name } => format!(
                "According to this ad platform, the attribute \"{name}\" is false or \
                 missing for you."
            ),
            Disclosure::GroupBit { group, bit } => {
                format!("According to this ad platform, bit {bit} of your \"{group}\" value is 1.")
            }
            Disclosure::VisitedZip { zip } => {
                format!("According to this ad platform, you recently visited ZIP code {zip}.")
            }
            Disclosure::HasPii { batch } => format!(
                "This ad platform holds the contact identifier you submitted in batch \"{batch}\"."
            ),
        }
    }

    /// Canonical wire form carried (possibly obfuscated) by every encoding.
    ///
    /// The form is line-safe and unambiguous: `KIND|field[|field]`. Field
    /// values never contain `|` (attribute names and groups come from the
    /// platform catalog, which has none).
    pub fn to_wire(&self) -> String {
        match self {
            Disclosure::HasAttribute { name } => format!("HAS|{name}"),
            Disclosure::LacksAttribute { name } => format!("LACKS|{name}"),
            Disclosure::GroupBit { group, bit } => format!("GBIT|{group}|{bit}"),
            Disclosure::VisitedZip { zip } => format!("ZIP|{zip}"),
            Disclosure::HasPii { batch } => format!("PII|{batch}"),
        }
    }

    /// Parses the wire form.
    pub fn from_wire(wire: &str) -> Result<Self> {
        let mut parts = wire.splitn(3, '|');
        let kind = parts.next().unwrap_or_default();
        match kind {
            "HAS" => {
                let name =
                    parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| Error::DecodeFailure {
                            reason: "HAS without attribute name".into(),
                        })?;
                Ok(Disclosure::HasAttribute { name: name.into() })
            }
            "LACKS" => {
                let name =
                    parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| Error::DecodeFailure {
                            reason: "LACKS without attribute name".into(),
                        })?;
                Ok(Disclosure::LacksAttribute { name: name.into() })
            }
            "GBIT" => {
                let group =
                    parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| Error::DecodeFailure {
                            reason: "GBIT without group".into(),
                        })?;
                let bit = parts
                    .next()
                    .and_then(|s| s.parse::<u8>().ok())
                    .ok_or_else(|| Error::DecodeFailure {
                        reason: "GBIT without valid bit index".into(),
                    })?;
                Ok(Disclosure::GroupBit {
                    group: group.into(),
                    bit,
                })
            }
            "ZIP" => {
                let zip =
                    parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| Error::DecodeFailure {
                            reason: "ZIP without code".into(),
                        })?;
                Ok(Disclosure::VisitedZip { zip: zip.into() })
            }
            "PII" => {
                let prefix =
                    parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| Error::DecodeFailure {
                            reason: "PII without digest prefix".into(),
                        })?;
                Ok(Disclosure::HasPii {
                    batch: prefix.into(),
                })
            }
            other => Err(Error::DecodeFailure {
                reason: format!("unknown disclosure kind: {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Disclosure> {
        vec![
            Disclosure::HasAttribute {
                name: "Net worth: $2M+".into(),
            },
            Disclosure::LacksAttribute {
                name: "Housing: renter".into(),
            },
            Disclosure::GroupBit {
                group: "net_worth".into(),
                bit: 3,
            },
            Disclosure::VisitedZip {
                zip: "10001".into(),
            },
            Disclosure::HasPii {
                batch: "phone-2fa-2018w40".into(),
            },
        ]
    }

    #[test]
    fn wire_round_trip() {
        for d in samples() {
            let wire = d.to_wire();
            let back = Disclosure::from_wire(&wire).expect("parses");
            assert_eq!(back, d, "round trip failed for {wire}");
        }
    }

    #[test]
    fn wire_forms_are_stable() {
        assert_eq!(
            Disclosure::HasAttribute {
                name: "Net worth: $2M+".into()
            }
            .to_wire(),
            "HAS|Net worth: $2M+"
        );
        assert_eq!(
            Disclosure::GroupBit {
                group: "net_worth".into(),
                bit: 3
            }
            .to_wire(),
            "GBIT|net_worth|3"
        );
    }

    #[test]
    fn malformed_wire_is_rejected() {
        for bad in [
            "",
            "HAS",
            "HAS|",
            "LACKS",
            "GBIT|net_worth",
            "GBIT|net_worth|notanumber",
            "GBIT||3",
            "PII",
            "ZIP",
            "ZIP|",
            "WAT|x",
        ] {
            assert!(Disclosure::from_wire(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn human_text_mentions_the_payload() {
        let d = Disclosure::HasAttribute {
            name: "Net worth: $2M+".into(),
        };
        assert!(d.human_text().contains("Net worth: $2M+"));
        let d = Disclosure::LacksAttribute {
            name: "Housing: renter".into(),
        };
        assert!(d.human_text().contains("false or"));
        let d = Disclosure::GroupBit {
            group: "net_worth".into(),
            bit: 2,
        };
        assert!(d.human_text().contains("bit 2"));
    }

    #[test]
    fn attribute_names_with_colons_survive() {
        // Catalog names contain ": " — the wire format must not split on
        // them.
        let d = Disclosure::HasAttribute {
            name: "Interest: salsa dancing (Music)".into(),
        };
        assert_eq!(Disclosure::from_wire(&d.to_wire()).expect("parses"), d);
    }
}
