//! Seeded-determinism helpers.
//!
//! Every stochastic component of the simulation (population generation,
//! background auction competition, browsing sessions, reporting noise)
//! derives its randomness from a single experiment seed, so that a given
//! `(seed, scenario)` pair reproduces bit-for-bit. Components must never
//! share one RNG stream — interleaving would make one component's draw
//! count perturb another's — so this module derives *independent
//! substreams* from the experiment seed, in two ways:
//!
//! * [`substream`] names a component with a string label. It hashes the
//!   label with SHA-256, which is fine for the handful of components a run
//!   derives once (population, fault plans, load generators).
//! * [`keyed_stream`] keys an entity with 64-bit words under a domain
//!   constant. It is allocation-free and costs a few `mix64` rounds,
//!   which is what per-user and per-user-day streams need: a run derives
//!   tens of thousands of them, on the tick's hot path and again on
//!   resume.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hash::{mix64, sha256};

/// Derives an independent RNG for a named component from the experiment
/// seed.
///
/// The substream seed is `SHA-256(seed_le || label)`, so distinct labels
/// give statistically independent streams and adding a new component never
/// disturbs existing ones.
pub fn substream(seed: u64, label: &str) -> StdRng {
    let mut buf = Vec::with_capacity(8 + label.len());
    buf.extend_from_slice(&seed.to_le_bytes());
    buf.extend_from_slice(label.as_bytes());
    let digest = sha256(&buf);
    StdRng::from_seed(*digest.as_bytes())
}

/// Derives an independent RNG for one entity of a keyed family — a user,
/// a `(user, day)` pair — from the experiment seed.
///
/// Folds `seed`, then `domain`, then each key in order through
/// [`mix64`] (`h = mix64(h ^ word)`) and seeds the generator with
/// [`StdRng::seed_from_u64`]. Every fold step is a bijection of the
/// running state and of the folded word, so changing the seed, the domain
/// or any one key always changes the stream; reordering keys changes it
/// with overwhelming probability. Each family picks its own `domain`
/// constant beside its call site, so two families keyed alike still draw
/// different streams.
pub fn keyed_stream(seed: u64, domain: u64, keys: &[u64]) -> StdRng {
    let h = keys
        .iter()
        .fold(mix64(mix64(seed) ^ domain), |h, &key| mix64(h ^ key));
    StdRng::seed_from_u64(h)
}

/// A convenience bundle carrying the experiment seed, from which components
/// draw their named substreams.
#[derive(Debug, Clone, Copy)]
pub struct SeedSource {
    seed: u64,
}

impl SeedSource {
    /// Creates a source from the experiment seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The raw experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// An independent RNG for the component named `label`.
    pub fn rng(&self, label: &str) -> StdRng {
        substream(self.seed, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let mut a = substream(42, "population");
        let mut b = substream(42, "population");
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_differ() {
        let mut a = substream(42, "population");
        let mut b = substream(42, "auction");
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = substream(1, "population");
        let mut b = substream(2, "population");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    fn first_draws(seed: u64, domain: u64, keys: &[u64]) -> [u64; 4] {
        let mut rng = keyed_stream(seed, domain, keys);
        [rng.gen(), rng.gen(), rng.gen(), rng.gen()]
    }

    #[test]
    fn keyed_streams_are_deterministic_and_separate_every_input() {
        let base = first_draws(42, 7, &[3, 5]);
        assert_eq!(base, first_draws(42, 7, &[3, 5]));
        assert_ne!(base, first_draws(43, 7, &[3, 5]), "seed");
        assert_ne!(base, first_draws(42, 8, &[3, 5]), "domain");
        assert_ne!(base, first_draws(42, 7, &[4, 5]), "first key");
        assert_ne!(base, first_draws(42, 7, &[3, 6]), "second key");
        assert_ne!(base, first_draws(42, 7, &[5, 3]), "key order");
        assert_ne!(base, first_draws(42, 7, &[3]), "key count");
    }

    #[test]
    fn user_day_streams_start_pairwise_distinct() {
        // 100k (user, day) streams of one seed and domain: no two share a
        // first draw, so no two users browse in lockstep.
        let mut firsts: Vec<u64> = (0..20_000u64)
            .flat_map(|user| (0..5u64).map(move |day| (user, day)))
            .map(|(user, day)| keyed_stream(42, 7, &[user, day]).gen())
            .collect();
        assert_eq!(firsts.len(), 100_000);
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 100_000);
    }

    #[test]
    fn seed_source_is_copyable_and_consistent() {
        let src = SeedSource::new(7);
        let src2 = src;
        assert_eq!(src.seed(), 7);
        let mut r1 = src.rng("x");
        let mut r2 = src2.rng("x");
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }
}
