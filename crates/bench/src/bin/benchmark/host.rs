//! What the host itself contributes to a measurement: its momentary
//! speed and the process's peak memory.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes as neighbours load the cores and the shared
//! cache, which would swamp any change a commit makes. So every run times
//! a fixed reference computation, written here and independent of the
//! simulator, while the simulator is idle: a batch run after every job,
//! the serving run before each set-up and around the run. Times dominated
//! by computation are reported scaled to the speed at which that probe
//! takes [`REFERENCE_PROBE_S`]. The timed part of the probe runs on tables
//! an untimed pass has just brought into cache, so the cache state a
//! commit leaves behind does not reach the probe; the ignored test below
//! measures that.

use std::sync::OnceLock;
use std::time::Instant;

/// The probe's median duration on the quiet reference host (2 hardware
/// threads); the unit scaled timings are expressed against.
pub const REFERENCE_PROBE_S: f64 = 0.008;

/// Entries of each probe lane's table: 4 MiB of `u32`, beyond the
/// per-core caches, so the probe feels contention for the shared cache
/// and memory as the simulator does, not only for the cores.
const TABLE_LEN: usize = 1 << 20;
/// Dependent loads per lane: a latency-bound walk.
const CHASE_STEPS: usize = 100_000;

/// One table per lane, each a single random cycle (Sattolo's shuffle)
/// so the walk visits slots in an order no prefetcher predicts. Built
/// once per process, outside any timed probe.
fn tables() -> &'static [Vec<u32>; 2] {
    static TABLES: OnceLock<[Vec<u32>; 2]> = OnceLock::new();
    TABLES.get_or_init(|| {
        [0u64, 1].map(|lane| {
            let mut next: Vec<u32> = (0..TABLE_LEN as u32).collect();
            let mut x = splitmix(lane);
            for i in (1..TABLE_LEN).rev() {
                x = splitmix(x);
                next.swap(i, (x % i as u64) as usize);
            }
            next
        })
    })
}

/// Runs the reference computation on two threads (the simulator's shard
/// count) and returns the wall time of its timed pass in seconds. A pass
/// hashes each lane's table in order (compute and streaming reads) and
/// then walks it (dependent random reads). An untimed pass first reloads
/// whatever the simulator evicted, so the timed pass finds the 8 MiB of
/// tables in the shared cache however much of it the simulator used:
/// it feels the cores' speed and the neighbours' contention for that
/// cache, not the commit's working set.
pub fn probe() -> f64 {
    let tables = tables();
    let both_lanes = || {
        std::thread::scope(|s| {
            for table in tables {
                s.spawn(move || pass(table));
            }
        })
    };
    both_lanes();
    let start = Instant::now();
    both_lanes();
    start.elapsed().as_secs_f64()
}

fn pass(table: &[u32]) {
    let mut acc = 0u64;
    for &slot in table {
        acc = splitmix(acc ^ u64::from(slot));
    }
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = table[at as usize];
    }
    std::hint::black_box((acc, at));
}

/// splitmix64's finalizer, also used to decorrelate derived seeds.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The factor that turns a time measured next to a probe that took
/// `probe_s` into reference time. Below 1 when the host ran slow.
pub fn speed_factor(probe_s: f64) -> f64 {
    REFERENCE_PROBE_S / probe_s
}

/// The process's peak resident set, from `/proc/self/status` (`VmHWM`).
/// Zero where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn a_slow_host_shrinks_the_factor() {
        assert_eq!(speed_factor(REFERENCE_PROBE_S), 1.0);
        assert_eq!(speed_factor(2.0 * REFERENCE_PROBE_S), 0.5);
    }

    #[test]
    fn each_table_is_one_cycle_through_every_slot() {
        for table in tables() {
            let (mut at, mut steps) = (0u32, 0usize);
            loop {
                at = table[at as usize];
                steps += 1;
                if at == 0 {
                    break;
                }
            }
            assert_eq!(steps, TABLE_LEN);
        }
        assert!(probe() > 0.0);
    }

    /// Two threads write and then randomly read `words` of their buffer,
    /// making the same number of writes whatever `words` is: a stand-in
    /// for a job with that working set.
    fn touch(bufs: &mut [Vec<u64>; 2], words: usize) {
        std::thread::scope(|s| {
            for buf in bufs.iter_mut() {
                s.spawn(move || {
                    let mut x = words as u64;
                    for _ in 0..buf.len() / words {
                        for w in &mut buf[..words] {
                            x = splitmix(x);
                            *w ^= x;
                        }
                    }
                    for _ in 0..200_000 {
                        x = splitmix(x ^ buf[x as usize % words]);
                    }
                    std::hint::black_box(x);
                });
            }
        });
    }

    /// The factor must not depend on the working set the simulator leaves
    /// behind. Per round, the probe runs once after a 0.5 MiB and once
    /// after a 96 MiB footprint, in alternating order; the median ratio of
    /// the two stays near 1. It takes about 20 s, so it runs on request:
    ///
    /// `cargo test --release -p treads-bench --bin benchmark -- --ignored --nocapture working_set`
    #[test]
    #[ignore]
    fn the_probe_ignores_the_working_set_left_before_it() {
        const ROUNDS: usize = 60;
        const SMALL: usize = 1 << 15;
        let mut bufs = [vec![0u64; 6 << 20], vec![0u64; 6 << 20]];
        let big = bufs[0].len();
        let ratios: Vec<f64> = (0..ROUNDS)
            .map(|r| {
                let mut after = |words| {
                    touch(&mut bufs, words);
                    probe()
                };
                if r % 2 == 0 {
                    let small = after(SMALL);
                    after(big) / small
                } else {
                    let big = after(big);
                    big / after(SMALL)
                }
            })
            .collect();
        let ratio = median(&ratios);
        println!("probe after 96 MiB / after 0.5 MiB, median of {ROUNDS} rounds: {ratio:.4}");
        assert!((0.95..=1.05).contains(&ratio), "{ratio}");
    }
}
