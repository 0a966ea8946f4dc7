//! The per-impression ad auction.
//!
//! Each impression opportunity runs a sealed-bid **second-price auction**
//! among the eligible advertiser ads and simulated background competition.
//! The winner pays the second-highest bid (floored at the reserve), per
//! thousand impressions — standard display-auction mechanics.
//!
//! Background competition is why the paper raises its bid cap to $10 CPM,
//! "five times its default value of $2 CPM for U.S. users, to increase the
//! chances of these ads winning the ad auction": competitor bids are drawn
//! from a log-normal CPM distribution with median near the platform's
//! recommended bid, so a $2 bid wins roughly half its auctions against a
//! single competitor while a $10 bid almost always wins. The
//! `delivery_rate_vs_bid` bench sweeps exactly this curve.

use adsim_types::{AdId, Money};
use rand::Rng;

/// Auction environment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionConfig {
    /// Reserve price: the minimum clearing CPM.
    pub reserve_cpm: Money,
    /// Mean number of background competitors per opportunity
    /// (Poisson-distributed).
    pub competitor_rate: f64,
    /// Median of the log-normal background-competitor CPM distribution.
    pub competitor_cpm_median: Money,
    /// Log-space standard deviation of the competitor CPM distribution.
    pub competitor_sigma: f64,
}

impl Default for AuctionConfig {
    /// Defaults matched to the paper's numbers: a $2 CPM recommended bid
    /// environment with moderate competition.
    fn default() -> Self {
        Self {
            reserve_cpm: Money::cents(10),
            competitor_rate: 1.0,
            competitor_cpm_median: Money::dollars(2),
            competitor_sigma: 0.5,
        }
    }
}

/// A bid entered by one of our advertiser ads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bid {
    /// The bidding ad.
    pub ad: AdId,
    /// Its bid cap as CPM.
    pub cpm: Money,
}

/// Result of one auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuctionOutcome {
    /// One of our advertiser ads won; it pays `clearing_cpm` per mille.
    Won {
        /// The winning ad.
        ad: AdId,
        /// Second-price clearing CPM (≥ reserve).
        clearing_cpm: Money,
    },
    /// A background competitor outbid every advertiser ad (the user sees
    /// some unrelated ad).
    LostToBackground,
    /// Nobody bid above the reserve; the slot goes unfilled.
    Unfilled,
}

/// How one auction unfolded — the observability counterpart of
/// [`AuctionOutcome`].
///
/// Produced by [`run_auction_traced`] from exactly the same computation
/// (and RNG draws) as [`run_auction`]; callers that don't need the trace
/// pay nothing extra by using the untraced form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuctionTrace {
    /// Advertiser bids that entered the auction.
    pub advertiser_bids: u32,
    /// Background competitors sampled for this opportunity.
    pub background_competitors: u32,
    /// The strongest background CPM (zero when no competitor bid).
    pub best_background_cpm: Money,
}

/// Samples a log-normal value with the given median and log-space sigma,
/// via the Box–Muller transform (no external distribution crate).
fn sample_lognormal<R: Rng>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    // Box–Muller: two uniforms → one standard normal.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Runs one second-price auction.
///
/// `bids` are the eligible advertiser ads (already filtered for targeting,
/// budget, status). Background competitors are sampled from `config`.
/// Deterministic given the RNG state; ties between our bids break toward
/// the lowest [`AdId`] so reruns are stable.
pub fn run_auction<R: Rng>(bids: &[Bid], config: &AuctionConfig, rng: &mut R) -> AuctionOutcome {
    run_auction_traced(bids, config, rng).0
}

/// [`run_auction`] plus an [`AuctionTrace`] describing the competitive
/// environment. Consumes the RNG identically to the untraced form, so
/// swapping one for the other never perturbs a simulation.
pub fn run_auction_traced<R: Rng>(
    bids: &[Bid],
    config: &AuctionConfig,
    rng: &mut R,
) -> (AuctionOutcome, AuctionTrace) {
    // Sample the background competition (Knuth Poisson; rates are small).
    let n_competitors = sample_poisson(rng, config.competitor_rate);
    let mut best_bg = Money::ZERO;
    for _ in 0..n_competitors {
        let cpm = sample_lognormal(
            rng,
            config.competitor_cpm_median.as_micros() as f64,
            config.competitor_sigma,
        );
        let cpm = Money::micros(cpm as i64);
        if cpm > best_bg {
            best_bg = cpm;
        }
    }

    // Our best bid, deterministic tie-break by ad id.
    let our_best = bids
        .iter()
        .filter(|b| b.cpm >= config.reserve_cpm)
        .max_by(|a, b| a.cpm.cmp(&b.cpm).then(b.ad.cmp(&a.ad)));

    let outcome = match our_best {
        Some(best) if best.cpm >= best_bg => {
            // Second price: max of (best background bid, our runner-up,
            // reserve).
            let runner_up = bids
                .iter()
                .filter(|b| b.ad != best.ad)
                .map(|b| b.cpm)
                .max()
                .unwrap_or(Money::ZERO);
            let clearing = best_bg.max(runner_up).max(config.reserve_cpm);
            AuctionOutcome::Won {
                ad: best.ad,
                clearing_cpm: clearing.min(best.cpm),
            }
        }
        Some(_) => AuctionOutcome::LostToBackground,
        None => {
            if best_bg >= config.reserve_cpm {
                AuctionOutcome::LostToBackground
            } else {
                AuctionOutcome::Unfilled
            }
        }
    };
    let trace = AuctionTrace {
        advertiser_bids: bids.len() as u32,
        background_competitors: n_competitors,
        best_background_cpm: best_bg,
    };
    (outcome, trace)
}

/// Knuth's Poisson sampler (adequate for the small rates used here).
fn sample_poisson<R: Rng>(rng: &mut R, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        // Hard stop to keep pathological configs from spinning.
        if k > 10_000 {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::rng::substream;

    fn quiet_config() -> AuctionConfig {
        // No background competition: outcomes are fully determined by bids.
        AuctionConfig {
            competitor_rate: 0.0,
            ..AuctionConfig::default()
        }
    }

    #[test]
    fn sole_bidder_pays_reserve() {
        let mut rng = substream(1, "auction");
        let bids = [Bid {
            ad: AdId(1),
            cpm: Money::dollars(10),
        }];
        match run_auction(&bids, &quiet_config(), &mut rng) {
            AuctionOutcome::Won { ad, clearing_cpm } => {
                assert_eq!(ad, AdId(1));
                assert_eq!(clearing_cpm, Money::cents(10)); // reserve
            }
            other => panic!("expected win, got {other:?}"),
        }
    }

    #[test]
    fn second_price_between_our_bids() {
        let mut rng = substream(2, "auction");
        let bids = [
            Bid {
                ad: AdId(1),
                cpm: Money::dollars(10),
            },
            Bid {
                ad: AdId(2),
                cpm: Money::dollars(4),
            },
        ];
        match run_auction(&bids, &quiet_config(), &mut rng) {
            AuctionOutcome::Won { ad, clearing_cpm } => {
                assert_eq!(ad, AdId(1));
                assert_eq!(clearing_cpm, Money::dollars(4));
            }
            other => panic!("expected win, got {other:?}"),
        }
    }

    #[test]
    fn below_reserve_bids_are_ignored() {
        let mut rng = substream(3, "auction");
        let bids = [Bid {
            ad: AdId(1),
            cpm: Money::cents(1), // below the 10¢ reserve
        }];
        assert_eq!(
            run_auction(&bids, &quiet_config(), &mut rng),
            AuctionOutcome::Unfilled
        );
    }

    #[test]
    fn no_bids_is_unfilled_without_competition() {
        let mut rng = substream(4, "auction");
        assert_eq!(
            run_auction(&[], &quiet_config(), &mut rng),
            AuctionOutcome::Unfilled
        );
    }

    #[test]
    fn tie_breaks_toward_lowest_ad_id() {
        let mut rng = substream(5, "auction");
        let bids = [
            Bid {
                ad: AdId(7),
                cpm: Money::dollars(5),
            },
            Bid {
                ad: AdId(3),
                cpm: Money::dollars(5),
            },
        ];
        match run_auction(&bids, &quiet_config(), &mut rng) {
            AuctionOutcome::Won { ad, .. } => assert_eq!(ad, AdId(3)),
            other => panic!("expected win, got {other:?}"),
        }
    }

    #[test]
    fn clearing_price_never_exceeds_bid_cap() {
        // Against heavy competition, a winning clearing price is capped at
        // the winner's own bid.
        let config = AuctionConfig {
            competitor_rate: 3.0,
            ..AuctionConfig::default()
        };
        let mut rng = substream(6, "auction");
        let bids = [Bid {
            ad: AdId(1),
            cpm: Money::dollars(3),
        }];
        for _ in 0..500 {
            if let AuctionOutcome::Won { clearing_cpm, .. } = run_auction(&bids, &config, &mut rng)
            {
                assert!(clearing_cpm <= Money::dollars(3));
                assert!(clearing_cpm >= config.reserve_cpm);
            }
        }
    }

    #[test]
    fn higher_bid_wins_more_often() {
        // The paper's rationale for the 5x bid: $10 CPM wins far more
        // auctions than $2 CPM against the same background.
        let config = AuctionConfig::default();
        let win_rate = |cpm: Money, seed: u64| {
            let mut rng = substream(seed, "auction-rate");
            let bids = [Bid { ad: AdId(1), cpm }];
            let mut wins = 0;
            for _ in 0..2_000 {
                if matches!(
                    run_auction(&bids, &config, &mut rng),
                    AuctionOutcome::Won { .. }
                ) {
                    wins += 1;
                }
            }
            wins as f64 / 2_000.0
        };
        let low = win_rate(Money::dollars(2), 7);
        let high = win_rate(Money::dollars(10), 7);
        assert!(high > low + 0.15, "high={high} low={low}");
        assert!(high > 0.9, "a 5x bid should nearly always win: {high}");
    }

    #[test]
    fn traced_auction_matches_untraced_and_counts_competition() {
        let config = AuctionConfig::default();
        let bids = [
            Bid {
                ad: AdId(1),
                cpm: Money::dollars(10),
            },
            Bid {
                ad: AdId(2),
                cpm: Money::dollars(4),
            },
        ];
        for seed in 0..50 {
            // Identical RNG state for both forms → identical outcomes.
            let mut a = substream(seed, "auction-traced");
            let mut b = substream(seed, "auction-traced");
            let plain = run_auction(&bids, &config, &mut a);
            let (traced, trace) = run_auction_traced(&bids, &config, &mut b);
            assert_eq!(plain, traced);
            assert_eq!(trace.advertiser_bids, 2);
            if trace.background_competitors == 0 {
                assert_eq!(trace.best_background_cpm, Money::ZERO);
            }
        }
    }

    #[test]
    fn poisson_sampler_mean_is_close() {
        let mut rng = substream(8, "poisson");
        let n = 20_000;
        let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, 1.5) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.05, "poisson mean {mean}");
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = substream(9, "lognormal");
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| sample_lognormal(&mut rng, 2.0, 0.5))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = xs[n / 2];
        assert!((median - 2.0).abs() < 0.1, "lognormal median {median}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use adsim_types::rng::substream;
    use proptest::prelude::*;

    /// One bid per ad id — the invariant the eligibility filter chain
    /// guarantees (an ad enters each auction at most once).
    fn arb_bids() -> impl Strategy<Value = Vec<Bid>> {
        prop::collection::btree_map(1u64..100, 1i64..20_000_000, 0..12).prop_map(|m| {
            m.into_iter()
                .map(|(ad, micros)| Bid {
                    ad: AdId(ad),
                    cpm: Money::micros(micros),
                })
                .collect()
        })
    }

    proptest! {
        /// Auction invariants, for arbitrary bids and environments:
        /// a winner's clearing price never exceeds its own bid, never
        /// drops below the reserve, and the winner always bid at least
        /// the reserve.
        #[test]
        fn clearing_price_invariants(
            bids in arb_bids(),
            rate in 0.0f64..3.0,
            seed in 0u64..500,
        ) {
            let config = AuctionConfig {
                competitor_rate: rate,
                ..AuctionConfig::default()
            };
            let mut rng = substream(seed, "auction-prop");
            match run_auction(&bids, &config, &mut rng) {
                AuctionOutcome::Won { ad, clearing_cpm } => {
                    let winner = bids.iter().find(|b| b.ad == ad).expect("winner bid");
                    prop_assert!(clearing_cpm <= winner.cpm);
                    prop_assert!(clearing_cpm >= config.reserve_cpm);
                    prop_assert!(winner.cpm >= config.reserve_cpm);
                    // Nobody else bid strictly more than the winner.
                    for b in &bids {
                        prop_assert!(b.cpm <= winner.cpm || b.ad == ad || b.cpm < config.reserve_cpm);
                    }
                }
                AuctionOutcome::Unfilled => {
                    // Unfilled only when no bid reaches the reserve.
                    prop_assert!(bids.iter().all(|b| b.cpm < config.reserve_cpm));
                }
                AuctionOutcome::LostToBackground => {}
            }
        }

        /// With zero background competition, outcomes are a pure function
        /// of the bids (replays agree).
        #[test]
        fn quiet_auctions_are_deterministic(bids in arb_bids(), seed in 0u64..100) {
            let config = AuctionConfig {
                competitor_rate: 0.0,
                ..AuctionConfig::default()
            };
            let mut a = substream(seed, "auction-det-a");
            let mut b = substream(seed ^ 0xdead, "auction-det-b");
            prop_assert_eq!(
                run_auction(&bids, &config, &mut a),
                run_auction(&bids, &config, &mut b)
            );
        }
    }
}
