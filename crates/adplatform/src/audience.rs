//! Saved audiences: custom (PII-based), pixel-visitor, and page-engagement.
//!
//! These are the three opt-in channels the paper builds on:
//!
//! * **Custom / PII audiences** — the advertiser uploads hashed PII; the
//!   platform matches digests against user records and materializes the
//!   audience. Platforms impose a *minimum audience size* at creation
//!   (Facebook's is 20), which the simulator enforces and the opt-in flows
//!   in `treads-core` must respect.
//! * **Pixel audiences** — everyone who fired the advertiser's tracking
//!   pixel. This is the paper's anonymous opt-in channel: "the identity of
//!   users who browse a site with a tracking pixel is not revealed to
//!   advertisers; the advertisers are simply allowed to place ads to this
//!   group".
//! * **Page-engagement audiences** — everyone who liked a given page; the
//!   paper's validation signed its two users up this way.
//!
//! Advertisers never see membership — only a **rounded reach estimate**
//! ([`ReachEstimate`]); that rounding is part of the privacy contract the
//! Treads threat model (§3.1) relies on, and experiment E4 measures it.

use adsim_types::hash::Digest;
use adsim_types::{AudienceId, Error, Result, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// What kind of audience this is and where its members come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AudienceKind {
    /// Materialized from an advertiser's hashed-PII upload.
    Custom {
        /// Number of digests uploaded (matched or not) — advertisers see
        /// this, it is their own data.
        uploaded: usize,
    },
    /// Users who fired the given tracking pixel.
    PixelVisitors {
        /// The source pixel.
        pixel: adsim_types::PixelId,
    },
    /// Users who liked the given page.
    PageEngagement {
        /// The source page.
        page: u64,
    },
    /// A Google-style *custom intent* audience: the advertiser supplies
    /// descriptive phrases and the platform internally materializes the
    /// matching users (§2.1: "advertisers can specify a series of phrases
    /// or URLs that describe the users they want to target, which are then
    /// internally used … to create an audience of matching users").
    CustomIntent {
        /// The advertiser's descriptive phrases.
        phrases: Vec<String>,
    },
}

/// A saved audience.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audience {
    /// Platform-assigned id.
    pub id: AudienceId,
    /// Owning advertiser account.
    pub owner: adsim_types::AccountId,
    /// Kind and provenance.
    pub kind: AudienceKind,
    /// Materialized membership. Private to the platform — advertisers only
    /// ever see [`ReachEstimate`]s.
    members: BTreeSet<UserId>,
}

impl Audience {
    /// True if `user` belongs to this audience.
    pub fn contains(&self, user: UserId) -> bool {
        self.members.contains(&user)
    }

    /// Exact membership count. Platform-internal; advertisers get
    /// [`AudienceStore::estimate_reach`].
    pub fn exact_size(&self) -> usize {
        self.members.len()
    }

    /// Platform-internal iteration over members (delivery needs it).
    pub fn members(&self) -> impl Iterator<Item = UserId> + '_ {
        self.members.iter().copied()
    }
}

/// Resolves audience membership during targeting evaluation.
pub trait AudienceResolver {
    /// True if `user` is a member of `audience`.
    fn contains(&self, audience: AudienceId, user: UserId) -> bool;
}

/// The advertiser-visible reach estimate for an audience.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachEstimate {
    /// The audience is below the platform's reporting floor; the platform
    /// reveals only that ("fewer than `floor` people").
    BelowFloor {
        /// The floor value.
        floor: usize,
    },
    /// Approximate reach, rounded to the platform's granularity.
    Approximately {
        /// Rounded member count.
        rounded: usize,
    },
}

/// Store of all saved audiences.
#[derive(Debug, Clone, Default)]
pub struct AudienceStore {
    audiences: BTreeMap<AudienceId, Audience>,
    next_id: u64,
    /// Minimum matched size for creating a custom audience.
    pub min_custom_size: usize,
    /// Reach estimates below this are reported as [`ReachEstimate::BelowFloor`].
    pub reach_floor: usize,
    /// Reach estimates are rounded to a multiple of this.
    pub reach_granularity: usize,
}

impl AudienceStore {
    /// A store with the given platform limits.
    pub fn new(min_custom_size: usize, reach_floor: usize, reach_granularity: usize) -> Self {
        Self {
            audiences: BTreeMap::new(),
            next_id: 0,
            min_custom_size,
            reach_floor,
            reach_granularity,
        }
    }

    fn allocate(&mut self) -> AudienceId {
        self.next_id += 1;
        AudienceId(self.next_id)
    }

    /// Creates a custom audience from uploaded hashed PII, using `matcher`
    /// to resolve each digest to platform users (the profile store's
    /// `match_pii`). Fails with [`Error::AudienceTooSmall`] if fewer than
    /// `min_custom_size` distinct users match — the platform's rule.
    pub fn create_custom<M>(
        &mut self,
        owner: adsim_types::AccountId,
        digests: &[Digest],
        matcher: M,
    ) -> Result<AudienceId>
    where
        M: Fn(&Digest) -> Vec<UserId>,
    {
        if digests.is_empty() {
            return Err(Error::invalid("empty PII upload"));
        }
        let mut members = BTreeSet::new();
        for d in digests {
            for u in matcher(d) {
                members.insert(u);
            }
        }
        if members.len() < self.min_custom_size {
            return Err(Error::AudienceTooSmall {
                matched: members.len(),
                minimum: self.min_custom_size,
            });
        }
        let id = self.allocate();
        self.audiences.insert(
            id,
            Audience {
                id,
                owner,
                kind: AudienceKind::Custom {
                    uploaded: digests.len(),
                },
                members,
            },
        );
        Ok(id)
    }

    /// Creates an (initially empty) pixel-visitor audience. Membership
    /// grows as the platform routes pixel events via
    /// [`AudienceStore::record_pixel_visit`].
    pub fn create_pixel_audience(
        &mut self,
        owner: adsim_types::AccountId,
        pixel: adsim_types::PixelId,
    ) -> AudienceId {
        let id = self.allocate();
        self.audiences.insert(
            id,
            Audience {
                id,
                owner,
                kind: AudienceKind::PixelVisitors { pixel },
                members: BTreeSet::new(),
            },
        );
        id
    }

    /// Creates an (initially empty) page-engagement audience. Membership
    /// grows as users like the page via [`AudienceStore::record_page_like`].
    pub fn create_page_audience(&mut self, owner: adsim_types::AccountId, page: u64) -> AudienceId {
        let id = self.allocate();
        self.audiences.insert(
            id,
            Audience {
                id,
                owner,
                kind: AudienceKind::PageEngagement { page },
                members: BTreeSet::new(),
            },
        );
        id
    }

    /// Creates a custom-intent audience: membership is materialized by the
    /// platform from the advertiser's phrases via `matcher` (the platform
    /// passes a closure that scans user attribute names). The advertiser
    /// never sees the membership — same contract as every other audience.
    pub fn create_intent_audience<M>(
        &mut self,
        owner: adsim_types::AccountId,
        phrases: Vec<String>,
        matcher: M,
    ) -> Result<AudienceId>
    where
        M: Fn(&[String]) -> Vec<UserId>,
    {
        if phrases.is_empty() {
            return Err(Error::invalid("custom intent audience needs phrases"));
        }
        let members: BTreeSet<UserId> = matcher(&phrases).into_iter().collect();
        let id = self.allocate();
        self.audiences.insert(
            id,
            Audience {
                id,
                owner,
                kind: AudienceKind::CustomIntent { phrases },
                members,
            },
        );
        Ok(id)
    }

    /// Routes a pixel fire into every audience sourced from that pixel.
    pub fn record_pixel_visit(&mut self, pixel: adsim_types::PixelId, user: UserId) {
        for aud in self.audiences.values_mut() {
            if matches!(aud.kind, AudienceKind::PixelVisitors { pixel: p } if p == pixel) {
                aud.members.insert(user);
            }
        }
    }

    /// Routes a page like into every audience sourced from that page.
    pub fn record_page_like(&mut self, page: u64, user: UserId) {
        for aud in self.audiences.values_mut() {
            if matches!(aud.kind, AudienceKind::PageEngagement { page: p } if p == page) {
                aud.members.insert(user);
            }
        }
    }

    /// Every audience, in id order (platform-internal: membership is
    /// private to the platform).
    pub fn iter(&self) -> impl Iterator<Item = &Audience> {
        self.audiences.values()
    }

    /// Exports every audience's membership, sorted by audience id.
    ///
    /// Pixel- and page-sourced audiences grow *during* an engine run, so
    /// memberships are dynamic state a checkpoint must carry; the audience
    /// definitions themselves are host configuration.
    pub fn memberships(&self) -> Vec<(AudienceId, Vec<UserId>)> {
        self.audiences
            .iter()
            .map(|(id, aud)| (*id, aud.members.iter().copied().collect()))
            .collect()
    }

    /// Restores memberships exported by [`AudienceStore::memberships`].
    /// Audiences absent from the snapshot are left untouched (they did not
    /// exist when the checkpoint was taken, so they must be empty or
    /// host-recreated).
    pub fn restore_memberships(&mut self, memberships: &[(AudienceId, Vec<UserId>)]) {
        for (id, members) in memberships {
            if let Some(aud) = self.audiences.get_mut(id) {
                aud.members = members.iter().copied().collect();
            }
        }
    }

    /// Looks up an audience (platform-internal).
    pub fn get(&self, id: AudienceId) -> Result<&Audience> {
        self.audiences
            .get(&id)
            .ok_or_else(|| Error::not_found("audience", id))
    }

    /// Number of saved audiences.
    pub fn len(&self) -> usize {
        self.audiences.len()
    }

    /// True if no audiences exist.
    pub fn is_empty(&self) -> bool {
        self.audiences.is_empty()
    }

    /// The advertiser-visible reach estimate: exact counts are never
    /// revealed; sizes below the floor collapse to "below floor", larger
    /// ones are rounded to the configured granularity.
    pub fn estimate_reach(&self, id: AudienceId) -> Result<ReachEstimate> {
        let aud = self.get(id)?;
        let n = aud.exact_size();
        if n < self.reach_floor {
            Ok(ReachEstimate::BelowFloor {
                floor: self.reach_floor,
            })
        } else {
            let g = self.reach_granularity.max(1);
            Ok(ReachEstimate::Approximately {
                rounded: (n / g) * g,
            })
        }
    }
}

impl AudienceResolver for AudienceStore {
    fn contains(&self, audience: AudienceId, user: UserId) -> bool {
        self.audiences
            .get(&audience)
            .map(|a| a.contains(user))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::hash::hash_pii;
    use adsim_types::{AccountId, PixelId};

    fn store() -> AudienceStore {
        AudienceStore::new(20, 1000, 100)
    }

    /// A matcher over a fixed digest→users table.
    fn table_matcher(
        table: &BTreeMap<Digest, Vec<UserId>>,
    ) -> impl Fn(&Digest) -> Vec<UserId> + '_ {
        move |d| table.get(d).cloned().unwrap_or_default()
    }

    #[test]
    fn custom_audience_enforces_minimum() {
        let mut s = store();
        let mut table = BTreeMap::new();
        // Only two users match — below the minimum of 20.
        table.insert(hash_pii("a@example.com"), vec![UserId(1)]);
        table.insert(hash_pii("b@example.com"), vec![UserId(2)]);
        let digests: Vec<Digest> = table.keys().copied().collect();
        let err = s
            .create_custom(AccountId(1), &digests, table_matcher(&table))
            .expect_err("too small");
        assert_eq!(
            err,
            Error::AudienceTooSmall {
                matched: 2,
                minimum: 20
            }
        );
        assert!(s.is_empty());
    }

    #[test]
    fn custom_audience_materializes_matches() {
        let mut s = store();
        let mut table = BTreeMap::new();
        let mut digests = Vec::new();
        for i in 0..25u64 {
            let d = hash_pii(&format!("user{i}@example.com"));
            table.insert(d, vec![UserId(i + 1)]);
            digests.push(d);
        }
        // Some uploaded digests match nobody.
        digests.push(hash_pii("stranger@example.com"));
        let id = s
            .create_custom(AccountId(1), &digests, table_matcher(&table))
            .expect("created");
        let aud = s.get(id).expect("exists");
        assert_eq!(aud.exact_size(), 25);
        assert!(aud.contains(UserId(3)));
        assert!(!aud.contains(UserId(99)));
        assert_eq!(aud.kind, AudienceKind::Custom { uploaded: 26 });
    }

    #[test]
    fn empty_upload_is_rejected() {
        let mut s = store();
        let table = BTreeMap::new();
        let err = s
            .create_custom(AccountId(1), &[], table_matcher(&table))
            .expect_err("empty");
        assert!(matches!(err, Error::InvalidInput { .. }));
    }

    #[test]
    fn pixel_audience_grows_with_visits() {
        let mut s = store();
        let id = s.create_pixel_audience(AccountId(1), PixelId(7));
        assert_eq!(s.get(id).expect("aud").exact_size(), 0);
        s.record_pixel_visit(PixelId(7), UserId(1));
        s.record_pixel_visit(PixelId(7), UserId(2));
        s.record_pixel_visit(PixelId(7), UserId(1)); // repeat visit
        s.record_pixel_visit(PixelId(8), UserId(3)); // other pixel
        let aud = s.get(id).expect("aud");
        assert_eq!(aud.exact_size(), 2);
        assert!(aud.contains(UserId(1)) && aud.contains(UserId(2)));
        assert!(!aud.contains(UserId(3)));
    }

    #[test]
    fn page_audience_grows_with_likes() {
        let mut s = store();
        let id = s.create_page_audience(AccountId(1), 42);
        s.record_page_like(42, UserId(5));
        s.record_page_like(41, UserId(6));
        let aud = s.get(id).expect("aud");
        assert!(aud.contains(UserId(5)));
        assert!(!aud.contains(UserId(6)));
    }

    #[test]
    fn two_audiences_same_pixel_both_update() {
        let mut s = store();
        let a = s.create_pixel_audience(AccountId(1), PixelId(1));
        let b = s.create_pixel_audience(AccountId(2), PixelId(1));
        s.record_pixel_visit(PixelId(1), UserId(9));
        assert!(s.get(a).expect("a").contains(UserId(9)));
        assert!(s.get(b).expect("b").contains(UserId(9)));
    }

    #[test]
    fn reach_estimates_round_and_floor() {
        let mut s = store();
        let id = s.create_pixel_audience(AccountId(1), PixelId(1));
        // 2 members → below the 1000 floor.
        s.record_pixel_visit(PixelId(1), UserId(1));
        s.record_pixel_visit(PixelId(1), UserId(2));
        assert_eq!(
            s.estimate_reach(id).expect("est"),
            ReachEstimate::BelowFloor { floor: 1000 }
        );
        // 1234 members → rounded down to 1200.
        for i in 3..=1234u64 {
            s.record_pixel_visit(PixelId(1), UserId(i));
        }
        assert_eq!(
            s.estimate_reach(id).expect("est"),
            ReachEstimate::Approximately { rounded: 1200 }
        );
    }

    #[test]
    fn intent_audience_materializes_from_matcher() {
        let mut s = store();
        let id = s
            .create_intent_audience(AccountId(1), vec!["salsa".into()], |phrases| {
                assert_eq!(phrases, &["salsa".to_string()]);
                vec![UserId(3), UserId(9)]
            })
            .expect("created");
        let aud = s.get(id).expect("aud");
        assert_eq!(aud.exact_size(), 2);
        assert!(aud.contains(UserId(3)));
        assert!(matches!(aud.kind, AudienceKind::CustomIntent { .. }));
        // Empty phrase lists are rejected.
        assert!(s
            .create_intent_audience(AccountId(1), vec![], |_| vec![])
            .is_err());
    }

    #[test]
    fn resolver_handles_unknown_audience() {
        let s = store();
        assert!(!s.contains(AudienceId(99), UserId(1)));
        assert!(s.get(AudienceId(99)).is_err());
    }
}
