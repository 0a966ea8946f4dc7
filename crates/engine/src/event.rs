//! Timestamped events emitted by shard threads.
//!
//! Shards never mutate shared platform state. Everything with a global
//! effect — a pixel fire that grows a visitor audience, a won auction that
//! charges a campaign — is recorded as a [`ShardEvent`] and folded into the
//! platform later, in the canonical order defined by [`ShardEvent::key`].

use adplatform::delivery::PendingImpression;
use adsim_types::{PixelId, SimTime, UserId};

/// One globally-visible effect produced inside a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEvent {
    /// A user loaded a page carrying a tracking pixel.
    PixelFire {
        /// Simulated instant of the page view.
        at: SimTime,
        /// The browsing user.
        user: UserId,
        /// The user's event sequence number (see [`ShardEvent::key`]).
        user_seq: u64,
        /// The pixel that fired.
        pixel: PixelId,
    },
    /// An auction was won; the impression must be billed and logged.
    Impression {
        /// Simulated instant of the impression.
        at: SimTime,
        /// The viewing user.
        user: UserId,
        /// The user's event sequence number (see [`ShardEvent::key`]).
        user_seq: u64,
        /// Everything needed to charge and log the impression.
        pending: PendingImpression,
    },
}

impl ShardEvent {
    /// The canonical merge key: `(at, user, user_seq)`.
    ///
    /// `user_seq` is a per-user counter incremented for every event the
    /// user produces, so the key is unique per event and — because every
    /// component is a function of the *user's* own deterministic stream —
    /// identical no matter which shard (or how many shards) produced it.
    /// Sorting any partition of a tick's events by this key therefore
    /// yields one canonical order.
    pub fn key(&self) -> (SimTime, UserId, u64) {
        match *self {
            ShardEvent::PixelFire {
                at, user, user_seq, ..
            }
            | ShardEvent::Impression {
                at, user, user_seq, ..
            } => (at, user, user_seq),
        }
    }

    /// The user who produced the event.
    pub fn user(&self) -> UserId {
        self.key().1
    }

    /// The simulated instant of the event.
    pub fn at(&self) -> SimTime {
        self.key().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::{AccountId, AdId, CampaignId, Money};

    fn fire(at: u64, user: u64, seq: u64) -> ShardEvent {
        ShardEvent::PixelFire {
            at: SimTime(at),
            user: UserId(user),
            user_seq: seq,
            pixel: PixelId(1),
        }
    }

    #[test]
    fn key_orders_time_then_user_then_seq() {
        let early = fire(1, 9, 0);
        let late_small_user = fire(2, 1, 5);
        let late_big_user = fire(2, 2, 0);
        let mut events = vec![late_big_user, late_small_user, early];
        events.sort_by_key(ShardEvent::key);
        assert_eq!(events, vec![early, late_small_user, late_big_user]);
    }

    #[test]
    fn impression_and_pixel_share_one_key_space() {
        let imp = ShardEvent::Impression {
            at: SimTime(5),
            user: UserId(3),
            user_seq: 2,
            pending: PendingImpression {
                ad: AdId(1),
                campaign: CampaignId(1),
                account: AccountId(1),
                user: UserId(3),
                at: SimTime(5),
                clearing_cpm: Money::dollars(1),
                spec_digest: 0,
            },
        };
        assert_eq!(imp.key(), (SimTime(5), UserId(3), 2));
        assert!(fire(5, 3, 1).key() < imp.key());
    }
}
