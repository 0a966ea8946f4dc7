//! The open-loop load generator of `serve-open`.
//!
//! Independent users make an open loop: requests are sent on a schedule
//! whether or not earlier ones were answered, so a stall in the server
//! delays later requests instead of thinning the load. Each request is
//! timed from when it was *due*, which counts the wait a stall imposes on
//! the requests queued behind it. The generator is one sender (the
//! calling thread) and one response collector.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::since;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Wall-clock due time, in ns after the run starts.
    pub due_ns: u64,
    /// Index into the population.
    pub user: u32,
    /// Index into the site list.
    pub site: u32,
    /// Simulated instant: `due_ns` mapped onto the sim clock.
    pub at_ms: u64,
}

/// Arrival-process parameters. Simulated time runs `tick_ms` per
/// `tick_wall_ns` of wall time.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub rate_per_s: f64,
    pub duration_ns: u64,
    pub tick_ms: u64,
    pub tick_wall_ns: u64,
}

impl Pace {
    /// The exact sim instant of a wall-clock due time (floor of
    /// `due_ns · tick_ms / tick_wall_ns`, in integer arithmetic), so tick
    /// boundaries in wall time and sim time coincide.
    pub fn sim_ms(&self, due_ns: u64) -> u64 {
        (u128::from(due_ns) * u128::from(self.tick_ms) / u128::from(self.tick_wall_ns)) as u64
    }

    /// Sim ticks the schedule spans.
    pub fn ticks(&self) -> u64 {
        self.duration_ns.div_ceil(self.tick_wall_ns)
    }
}

/// A flat Poisson schedule over `[0, pace.duration_ns)`: exponential gaps
/// at `pace.rate_per_s`, uniformly chosen users and sites. Same seed,
/// same schedule.
pub fn schedule(pace: &Pace, users: u32, sites: u32, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / pace.rate_per_s;
    let mut out = Vec::with_capacity((pace.rate_per_s * pace.duration_ns as f64 / 1e9) as usize);
    let mut t = 0.0f64;
    loop {
        // 1 - u lies in (0, 1], so the log is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() * mean_gap_ns;
        let due_ns = t as u64;
        if due_ns >= pace.duration_ns {
            return out;
        }
        out.push(Arrival {
            due_ns,
            user: rng.gen_range(0..users),
            site: rng.gen_range(0..sites),
            at_ms: pace.sim_ms(due_ns),
        });
    }
}

/// What the generator drives: anything that accepts a request and hands
/// back a claim on its response.
pub trait Target: Sync {
    type Ticket: Send;
    fn submit(&self, arrival: &Arrival) -> Self::Ticket;
    /// Blocks for the response; true if the request was served.
    fn wait(ticket: Self::Ticket) -> bool;
}

/// Per-request observations, indexed like the schedule.
#[derive(Debug, Default)]
pub struct Observed {
    /// Due time to response, in ns.
    pub latency_ns: Vec<u64>,
    pub served: Vec<bool>,
    /// How late the sender started each submit (empty unless recorded).
    pub gen_lag_ns: Vec<u64>,
    /// Time spent inside each submit call (empty unless recorded).
    pub submit_ns: Vec<u64>,
    /// From the first due time to the last response.
    pub elapsed_ns: u64,
}

/// Below this much slack the sender yields instead of sleeping: a sleep
/// overshoots by the kernel's timer slack.
const SPIN_NS: u64 = 200_000;

fn wait_until(start: Instant, due_ns: u64) {
    loop {
        let now = since(start);
        if now >= due_ns {
            return;
        }
        let ahead = due_ns - now;
        if ahead > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(ahead - SPIN_NS / 2));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends every arrival when due and collects every response.
/// `record_submits` adds the per-request generator lag and submit time
/// (the traced run); the untraced run leaves them out.
pub fn drive<T: Target>(target: &T, arrivals: &[Arrival], record_submits: bool) -> Observed {
    let n = arrivals.len();
    let start = Instant::now();
    let mut gen_lag_ns = Vec::with_capacity(if record_submits { n } else { 0 });
    let mut submit_ns = Vec::with_capacity(gen_lag_ns.capacity());
    let (latency_ns, served) = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, T::Ticket)>();
        let collector = s.spawn(move || {
            let mut latency = vec![0u64; n];
            let mut served = vec![false; n];
            for (i, ticket) in rx {
                let ok = T::wait(ticket);
                latency[i] = since(start).saturating_sub(arrivals[i].due_ns);
                served[i] = ok;
            }
            (latency, served)
        });
        for (i, arrival) in arrivals.iter().enumerate() {
            wait_until(start, arrival.due_ns);
            let sent = since(start);
            let ticket = target.submit(arrival);
            if record_submits {
                gen_lag_ns.push(sent - arrival.due_ns);
                submit_ns.push(since(start) - sent);
            }
            tx.send((i, ticket))
                .expect("the collector outlives the sender");
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    Observed {
        latency_ns,
        served,
        gen_lag_ns,
        submit_ns,
        elapsed_ns: since(start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PACE: Pace = Pace {
        rate_per_s: 20_000.0,
        duration_ns: 2_000_000_000,
        tick_ms: 600_000,
        tick_wall_ns: 500_000_000,
    };

    #[test]
    fn due_times_are_monotone_and_the_sim_mapping_is_exact() {
        let arrivals = schedule(&PACE, 1_000, 2, 7);
        assert_eq!(
            arrivals,
            schedule(&PACE, 1_000, 2, 7),
            "same seed, same inputs"
        );
        let expected = PACE.rate_per_s * 2.0;
        assert!((arrivals.len() as f64 - expected).abs() < expected * 0.05);
        for pair in arrivals.windows(2) {
            assert!(pair[0].due_ns <= pair[1].due_ns);
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
        for a in &arrivals {
            assert!(a.due_ns < PACE.duration_ns && a.user < 1_000 && a.site < 2);
            assert_eq!(a.at_ms, PACE.sim_ms(a.due_ns));
        }
        // Wall tick boundaries land exactly on sim tick boundaries.
        for k in 0..4 {
            assert_eq!(PACE.sim_ms(k * PACE.tick_wall_ns), k * PACE.tick_ms);
            assert_eq!(PACE.sim_ms(k * PACE.tick_wall_ns + 1), k * PACE.tick_ms);
            assert!(PACE.sim_ms((k + 1) * PACE.tick_wall_ns - 1) < (k + 1) * PACE.tick_ms);
        }
        assert_eq!(PACE.ticks(), 4);
    }

    /// Answers instantly, but stalls inside one submit.
    struct Stalling {
        stall_at: usize,
        stall: Duration,
    }

    impl Target for Stalling {
        type Ticket = bool;
        fn submit(&self, arrival: &Arrival) -> bool {
            if arrival.user as usize == self.stall_at {
                std::thread::sleep(self.stall);
            }
            true
        }
        fn wait(ticket: bool) -> bool {
            ticket
        }
    }

    #[test]
    fn a_stall_in_submit_shows_in_later_latency_and_is_counted_apart_from_lag() {
        const GAP_NS: u64 = 1_000_000;
        let arrivals: Vec<Arrival> = (0..40u32)
            .map(|i| Arrival {
                due_ns: u64::from(i) * GAP_NS,
                user: i,
                site: 0,
                at_ms: 0,
            })
            .collect();
        let stall = Duration::from_millis(30);
        let target = Stalling {
            stall_at: 10,
            stall,
        };
        let obs = drive(&target, &arrivals, true);
        assert!(obs.served.iter().all(|&s| s));
        let stall_ns = stall.as_nanos() as u64;
        // The stalled call is counted as time blocked in submit…
        assert!(obs.submit_ns[10] >= stall_ns);
        // …and every request due during the stall waits for it: its
        // latency and its generator lag include the rest of the stall.
        for i in 11..35 {
            let remaining = stall_ns - (i as u64 - 10) * GAP_NS;
            assert!(obs.latency_ns[i] >= remaining, "request {i}");
            assert!(obs.gen_lag_ns[i] >= remaining, "request {i}");
            assert!(
                obs.submit_ns[i] < stall_ns,
                "request {i} did not stall itself"
            );
        }
    }
}
