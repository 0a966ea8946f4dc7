//! The four workloads: what each runs, how it is timed, and the
//! correctness gate every run passes before it reports a number.
//!
//! A batch workload repeats one *job* — a fresh platform simulated from
//! tick 0 under a new engine seed — until it has run `Scale::min_jobs`
//! jobs and the measured job time reaches `--seconds`. Building the platform is set-up and is timed apart, so
//! work moved into platform construction shows in `setup_s`. The serving
//! workload plays one open-loop schedule lasting `--seconds` (plus one
//! excluded warm-up tick) against one front end.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host;
use crate::loadgen::{self, Pace};
use crate::stats::{interquartile_mean, median, quantile_sorted, sorted};
use crate::sut::{self, BatchOutput, BatchSpec, Population, ServeSpec};
use crate::trace::{Replay, Spans};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchBroad,
    BatchInventory,
    BatchPersist,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchBroad,
        Workload::BatchInventory,
        Workload::BatchPersist,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchBroad => "batch-broad",
            Workload::BatchInventory => "batch-inventory",
            Workload::BatchPersist => "batch-persist",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Engine shards and serving workers: one per hardware thread of the
/// reference host.
const SHARDS: usize = 2;
/// Frames per delta chain in `batch-persist`: a full base every 8th.
const BASE_EVERY: u64 = 8;
/// Frames folded before resuming: the base plus two deltas.
const RESUME_FRAMES: usize = 3;
/// Impressions tree-evaluated against the delivery contract per run.
const CONTRACT_SAMPLES: usize = 10_000;
/// Per job, so the sample spreads over many jobs.
const CONTRACT_SAMPLES_PER_JOB: usize = 500;
/// The job-makespan quantile reported as a batch workload's tail: a
/// full-size run holds at least 100 jobs (`Scale::min_jobs`), so ten or
/// more lie beyond it.
const BATCH_TAIL_Q: f64 = 0.9;
/// Users whose page views the traced run replays per tick.
const REPLAY_USERS: usize = 16;
/// Serving arrivals replayed through the decide sublayers after the run.
const SERVE_REPLAY_VIEWS: usize = 2_000;
/// The serving latency objective (`ServingConfig`'s p99 target).
const SLO_NS: u64 = 20_000_000;
/// Ten simulated minutes per tick…
const SERVE_TICK_MS: u64 = 10 * 60 * 1_000;
/// …played every half second of wall time.
const SERVE_TICK_WALL_NS: u64 = 500_000_000;
/// How the serving tail follows host speed: across 35 runs its log
/// regressed on the log of the probes' speed factor with slope -0.51.
/// Only part of the barrier is computation (arrivals and ticks are paced
/// in wall time), so the tail is scaled by the factor to this power.
const SERVE_TAIL_ELASTICITY: f64 = 0.5;

/// The run sizes. `full` is what the benchmark measures; `smoke` is about
/// 1/500 of its work, for the debug-build tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    broad_users: u64,
    inventory_users: u64,
    inventory_ads: u64,
    persist_users: u64,
    serve_users: u64,
    serve_rate: f64,
    min_jobs: usize,
    /// Set-ups timed per serving run (the last one is kept).
    serve_setups: usize,
    /// Host-speed probes taken back to back before the serving run, and
    /// as many after it.
    serve_probes: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            broad_users: 5_000,
            inventory_users: 300,
            inventory_ads: 2_000,
            persist_users: 2_500,
            serve_users: 100_000,
            serve_rate: 25_000.0,
            min_jobs: 100,
            serve_setups: 15,
            serve_probes: 16,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            broad_users: 12,
            inventory_users: 4,
            inventory_ads: 40,
            persist_users: 8,
            serve_users: 200,
            serve_rate: 2_000.0,
            min_jobs: 2,
            serve_setups: 2,
            serve_probes: 1,
        }
    }
}

/// What a run that passed the correctness gate reports: operation
/// counts and metrics by name, in catalog units.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// The metrics this run scaled to reference host speed, as measured,
    /// and the median `host_speed_factor` it applied.
    pub unscaled: Vec<(&'static str, f64)>,
}

/// Runs one workload. `Err` means the correctness gate failed.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    match workload {
        Workload::ServeOpen => run_serve(seed, seconds, traced, scale),
        _ => {
            let batch = Batch::of(workload, scale);
            if traced {
                run_batch_traced(&batch, seed, seconds, scale)
            } else {
                run_batch(&batch, seed, seconds, scale)
            }
        }
    }
}

/// A batch workload's shape.
struct Batch {
    population: Population,
    views_per_day: f64,
    days: u64,
    persist: bool,
}

impl Batch {
    fn of(workload: Workload, s: Scale) -> Batch {
        match workload {
            Workload::BatchBroad => Batch {
                population: Population::Broad {
                    users: s.broad_users,
                },
                views_per_day: 4.0,
                days: 6,
                persist: false,
            },
            Workload::BatchInventory => Batch {
                population: Population::Inventory {
                    users: s.inventory_users,
                    ads: s.inventory_ads,
                },
                views_per_day: 2.0,
                days: 3,
                persist: false,
            },
            Workload::BatchPersist => Batch {
                population: Population::Broad {
                    users: s.persist_users,
                },
                views_per_day: 4.0,
                days: 8,
                persist: true,
            },
            Workload::ServeOpen => unreachable!("serve-open is not a batch workload"),
        }
    }

    /// Job `j` of a run: the same population, a fresh engine seed.
    fn spec(&self, seed: u64, j: u64) -> BatchSpec {
        BatchSpec {
            shards: SHARDS,
            views_per_day: self.views_per_day,
            days: self.days,
            seed: host::splitmix(seed ^ host::splitmix(j + 1)),
        }
    }

    /// The job's host, plus a second fresh one to resume on.
    fn hosts(&self, seed: u64) -> (sut::Host, Option<sut::Host>) {
        (
            sut::build_host(self.population, seed),
            self.persist.then(|| sut::build_host(self.population, seed)),
        )
    }
}

/// One timed job's results.
struct Job {
    output: BatchOutput,
    resumed: Option<BatchOutput>,
    frames: Vec<Vec<u8>>,
}

#[cfg(test)]
thread_local! {
    /// Set by the gate's own test: flip the digest of the first delta
    /// frame before resuming, as a corrupted checkpoint store would.
    pub static TAMPER_DIGEST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The timed part of a batch job. For `batch-persist` that is the run
/// with a frame every tick, encoding every frame, decoding the first
/// three, and resuming from them on the fresh host.
fn run_job(
    host: &mut sut::Host,
    fresh: Option<&mut sut::Host>,
    spec: &BatchSpec,
) -> Result<Job, String> {
    let Some(fresh) = fresh else {
        return Ok(Job {
            output: sut::engine_run(host, spec),
            resumed: None,
            frames: Vec::new(),
        });
    };
    let (output, frames) = sut::engine_run_with_frames(host, spec, BASE_EVERY)?;
    let frames: Vec<Vec<u8>> = frames.iter().map(sut::encode_frame).collect();
    #[allow(unused_mut)]
    let mut prefix = frames
        .iter()
        .take(RESUME_FRAMES)
        .map(|b| sut::decode_frame(b))
        .collect::<Result<Vec<_>, _>>()?;
    #[cfg(test)]
    if TAMPER_DIGEST.with(std::cell::Cell::get) {
        assert!(sut::tamper_digest(&mut prefix[1]), "frame 1 is a delta");
    }
    let resumed = sut::resume_from_frames(fresh, spec, &prefix)?;
    Ok(Job {
        output,
        resumed: Some(resumed),
        frames,
    })
}

/// Gate checks on one finished job: the receipt-chain heads the run
/// emitted equal the chains rebuilt from its impression log, a resumed
/// run equals the uninterrupted one, and sampled impressions satisfy the
/// delivery contract.
fn check_job(
    host: &sut::Host,
    spec: &BatchSpec,
    job: &Job,
    contract_left: &mut usize,
    rng: &mut StdRng,
) -> Result<(), String> {
    let rebuilt = sut::recomputed_heads(host, spec.seed, sut::tick_ms(spec));
    if job.output.heads != rebuilt {
        return Err("emitted receipt heads differ from the chains rebuilt from the log".into());
    }
    if let Some(resumed) = &job.resumed {
        if *resumed != job.output {
            return Err(format!(
                "resume from {RESUME_FRAMES} frames diverged from the uninterrupted run"
            ));
        }
    }
    let n = (*contract_left).min(CONTRACT_SAMPLES_PER_JOB);
    *contract_left -= sut::check_delivery_contract(host, n, rng)?;
    Ok(())
}

/// The traced stepper must reproduce the engine's job exactly.
fn check_stepper(stepped: &sut::Stepped, job: &Job) -> Result<(), String> {
    if stepped.output != job.output {
        return Err(format!(
            "traced stepper diverged from the engine: {:?} vs {:?}",
            stepped.output, job.output
        ));
    }
    if stepped.resumed != job.resumed {
        return Err("traced stepper's resume diverged from the engine's".into());
    }
    if stepped.frames != job.frames {
        return Err("traced stepper's checkpoint frames differ from the engine's bytes".into());
    }
    Ok(())
}

fn run_batch(batch: &Batch, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(host::splitmix(seed));
    let mut contract_left = CONTRACT_SAMPLES;
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut opportunities = 0u64;
    // One probe before the first set-up, then one after every job.
    let mut probes = vec![host::probe()];
    let mut first: Option<(BatchSpec, Job)> = None;
    let mut measured = 0.0;
    let mut j = 0u64;
    while walls.len() < scale.min_jobs || measured < seconds {
        let spec = batch.spec(seed, j);
        let t = Instant::now();
        let (mut host, mut fresh) = batch.hosts(seed);
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let job = run_job(&mut host, fresh.as_mut(), &spec)?;
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        measured += wall;
        opportunities += job.output.opportunities;
        check_job(&host, &spec, &job, &mut contract_left, &mut rng)?;
        drop((host, fresh));
        probes.push(host::probe());
        first.get_or_insert((spec, job));
        j += 1;
    }

    // The first job once more through the traced stepper: the engine and
    // the layer-by-layer recomposition must agree byte for byte.
    let (spec, job) = first.expect("at least one job ran");
    let (mut host, mut fresh) = batch.hosts(seed);
    let stepped = sut::step_run(
        &mut host,
        &spec,
        batch.persist.then_some(BASE_EVERY),
        fresh.as_mut().map(|h| (h, RESUME_FRAMES)),
        0,
        &mut rng,
        &mut Spans::default(),
    )?;
    check_stepper(&stepped, &job)?;

    // Every time is scaled to reference host speed (see `host.rs`) by the
    // probe taken next to it: a set-up by the one just before it, a job
    // by the one just after it. The host's speed drifts within a run, so
    // this tracks it more closely than one factor for the whole run.
    let factors: Vec<f64> = probes.iter().map(|&p| host::speed_factor(p)).collect();
    let scaled = |times: &[f64], factors: &[f64]| -> Vec<f64> {
        times.iter().zip(factors).map(|(t, f)| t * f).collect()
    };
    let mut outcome = end_to_end(
        opportunities,
        0,
        batch_times(
            opportunities,
            &scaled(&setups, &factors),
            &scaled(&walls, &factors[1..]),
        ),
    );
    outcome.unscaled = TIMED
        .into_iter()
        .zip(batch_times(opportunities, &setups, &walls))
        .chain([("host_speed_factor", median(&factors))])
        .collect();
    Ok(outcome)
}

/// The end-to-end metrics that are times or rates, in `end_to_end`'s
/// argument order.
const TIMED: [&str; 4] = [
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "setup_s",
];

/// A batch run's `TIMED` metrics from its jobs' set-up and job times.
fn batch_times(opportunities: u64, setups: &[f64], walls: &[f64]) -> [f64; 4] {
    [
        opportunities as f64 / walls.iter().sum::<f64>(),
        median(walls) * 1e3,
        quantile_sorted(&sorted(walls), BATCH_TAIL_Q) * 1e3,
        median(setups),
    ]
}

/// The end-to-end outcome from the `TIMED` metrics and the peak memory.
fn end_to_end(attempted: u64, failed: u64, timed: [f64; 4]) -> Outcome {
    let [throughput, p50, tail, setup] = timed;
    Outcome {
        attempted,
        failed,
        metrics: vec![
            (TIMED[0], throughput),
            (TIMED[1], p50),
            (TIMED[2], tail),
            ("peak_rss_mb", host::peak_rss_mb()),
            (TIMED[3], setup),
        ],
        unscaled: Vec::new(),
    }
}

fn run_batch_traced(
    batch: &Batch,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(host::splitmix(seed));
    let mut contract_left = CONTRACT_SAMPLES;
    let mut engine_walls = Vec::new();
    let mut jobs: Vec<Spans> = Vec::new();
    let mut replay = Replay::default();
    let mut opportunities = 0u64;
    let mut measured = 0.0;
    let mut j = 0u64;
    while jobs.len() < scale.min_jobs || measured < seconds {
        let spec = batch.spec(seed, j);
        let (mut host, mut fresh) = batch.hosts(seed);
        let t = Instant::now();
        let job = run_job(&mut host, fresh.as_mut(), &spec)?;
        let wall = t.elapsed().as_secs_f64();
        engine_walls.push(wall);
        check_job(&host, &spec, &job, &mut contract_left, &mut rng)?;

        let (mut host, mut fresh) = batch.hosts(seed);
        let mut spans = Spans::default();
        let stepped = sut::step_run(
            &mut host,
            &spec,
            batch.persist.then_some(BASE_EVERY),
            fresh.as_mut().map(|h| (h, RESUME_FRAMES)),
            REPLAY_USERS,
            &mut rng,
            &mut spans,
        )?;
        check_stepper(&stepped, &job)?;
        measured += wall + spans.wall_ns as f64 / 1e9;
        opportunities += job.output.opportunities;
        replay.merge(&spans.replay);
        jobs.push(spans);
        j += 1;
    }

    Ok(Outcome {
        attempted: opportunities,
        failed: 0,
        metrics: per_layer(&jobs, median(&engine_walls) * 1e3, &replay, None),
        unscaled: Vec::new(),
    })
}

/// The serving front end's layer metrics, observed by the generator.
struct ServeLayers {
    submit_ns: Vec<u64>,
    tick_close_ms: Vec<f64>,
    gen_lag_ns: Vec<u64>,
    inprog_ns: [u64; 2],
    batch_size_p50: u64,
    snapshot_ns: u64,
    wall_ns: u64,
}

/// Every per-layer metric, in catalog order. Layers a workload does not
/// exercise report zero: the batch spans are empty for `serve-open`, and
/// `serve` is `None` for the batch workloads.
fn per_layer(
    jobs: &[Spans],
    engine_wall_ms: f64,
    replay: &Replay,
    serve: Option<&ServeLayers>,
) -> Vec<(&'static str, f64)> {
    let zero_nan = |v: f64| if v.is_nan() { 0.0 } else { v };
    let per_job =
        |f: &dyn Fn(&Spans) -> f64| zero_nan(median(&jobs.iter().map(f).collect::<Vec<_>>()));
    let ms = |f: fn(&Spans) -> u64| per_job(&|s| f(s) as f64 / 1e6);
    let count = |f: fn(&Spans) -> u64| per_job(&|s| f(s) as f64);
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let pct = |v: &[u64], q: f64, unit: f64| {
        let v: Vec<f64> = v.iter().map(|&x| x as f64 / unit).collect();
        zero_nan(quantile_sorted(&sorted(&v), q))
    };
    let closes = sorted(serve.map_or(&[][..], |s| &s.tick_close_ms));
    let stepper_wall_ms = ms(|s| s.wall_ns);
    let snapshot_ms = match serve {
        Some(s) => s.snapshot_ns as f64 / 1e6,
        None => per_job(&|s| ratio(s.snapshot_ns, s.snapshots) / 1e6),
    };
    let mut metrics = vec![
        ("websim.session_gen.ms", ms(|s| s.session_gen_ns)),
        ("websim.session_gen.events", count(|s| s.session_gen_events)),
        ("engine.shard_tick.ms", ms(|s| s.shard_tick_ns)),
        ("engine.shard_tick.crit_ms", ms(|s| s.shard_crit_ns)),
        (
            "engine.shard_tick.skew",
            per_job(&|s| ratio(s.shard_crit_ns * s.shards, s.shard_tick_ns)),
        ),
        ("engine.merge.ms", ms(|s| s.merge_ns)),
        ("engine.merge.events", count(|s| s.merge_events)),
        ("engine.fold.ms", ms(|s| s.fold_ns)),
        ("engine.fold.impressions", count(|s| s.fold_impressions)),
        ("adplatform.budget_snapshot.ms", snapshot_ms),
        ("resilience.ledger.ms", ms(|s| s.ledger_ns)),
        ("resilience.ledger.receipts", count(|s| s.receipts)),
        ("resilience.checkpoint.capture_ms", ms(|s| s.capture_ns)),
        ("resilience.checkpoint.encode_ms", ms(|s| s.encode_ns)),
        (
            "resilience.checkpoint.bytes",
            per_job(&|s| ratio(s.frame_bytes, s.frames)),
        ),
        (
            "resilience.checkpoint.dirty_slots",
            count(|s| s.dirty_slots),
        ),
        ("resilience.resume.decode_ms", ms(|s| s.resume_decode_ns)),
        ("resilience.resume.fold_ms", ms(|s| s.resume_fold_ns)),
        ("resilience.resume.ms", ms(|s| s.resume_ns)),
        (
            "adplatform.index.select_ns",
            replay.per_decision(replay.select_ns),
        ),
        (
            "adplatform.index.candidates",
            replay.per_decision(replay.candidates),
        ),
        (
            "adplatform.compiled.eval_ns",
            replay.per_decision(replay.eval_ns),
        ),
        (
            "adplatform.compiled.evals",
            replay.per_decision(replay.evals),
        ),
        (
            "adplatform.delivery.eligible_ns",
            replay.per_decision(replay.eligible_ns),
        ),
        (
            "adplatform.auction.ns",
            replay.per_decision(replay.auction_ns),
        ),
        ("adplatform.auction.bids", replay.per_decision(replay.bids)),
        (
            "adplatform.decide.ns",
            replay.per_decision(replay.decide_ns),
        ),
    ];
    let (submit, lag) = serve.map_or((&[][..], &[][..]), |s| {
        (&s.submit_ns[..], &s.gen_lag_ns[..])
    });
    let inprog = serve.map_or([0, 0], |s| s.inprog_ns);
    metrics.extend([
        ("serving.submit.p50_us", pct(submit, 0.5, 1e3)),
        ("serving.submit.p99_us", pct(submit, 0.99, 1e3)),
        ("serving.tick_close.count", closes.len() as f64),
        (
            "serving.tick_close.p50_ms",
            zero_nan(quantile_sorted(&closes, 0.5)),
        ),
        (
            "serving.tick_close.max_ms",
            closes.last().copied().unwrap_or(0.0),
        ),
        (
            "serving.tick_close.sum_ms",
            closes.iter().fold(0.0, |a, b| a + b),
        ),
        ("serving.gen_lag.p50_ms", pct(lag, 0.5, 1e6)),
        ("serving.gen_lag.p99_ms", pct(lag, 0.99, 1e6)),
        ("serving.latency_inprog.p50_ms", inprog[0] as f64 / 1e6),
        ("serving.latency_inprog.p99_ms", inprog[1] as f64 / 1e6),
        (
            "serving.batch_size.p50",
            serve.map_or(0.0, |s| s.batch_size_p50 as f64),
        ),
        ("unattributed.ms", ms(Spans::unattributed_ns)),
        (
            "unattributed.pct",
            per_job(&|s| ratio(s.unattributed_ns(), s.wall_ns) * 100.0),
        ),
        (
            "traced.wall_ms",
            serve.map_or(stepper_wall_ms, |s| s.wall_ns as f64 / 1e6),
        ),
        (
            "trace_overhead_pct",
            if jobs.is_empty() {
                0.0
            } else {
                (stepper_wall_ms / engine_wall_ms - 1.0) * 100.0
            },
        ),
    ]);
    metrics
}

fn run_serve(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Result<Outcome, String> {
    let population = Population::Broad {
        users: scale.serve_users,
    };
    let pace = Pace {
        rate_per_s: scale.serve_rate,
        // One warm-up tick ahead of the measured window.
        duration_ns: SERVE_TICK_WALL_NS + (seconds * 1e9) as u64,
        tick_ms: SERVE_TICK_MS,
        tick_wall_ns: SERVE_TICK_WALL_NS,
    };
    let mut setups = Vec::new();
    // Set-up is computation, scaled like a batch set-up by the probe just
    // before it.
    let mut factors = Vec::new();
    let mut prepared = None;
    for _ in 0..scale.serve_setups {
        factors.push(host::speed_factor(host::probe()));
        let t = Instant::now();
        let host = sut::build_host(population, seed);
        let arrivals = loadgen::schedule(&pace, host.user_count(), host.site_count(), seed);
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((host, arrivals));
    }
    let (mut host, arrivals) = prepared.expect("set up at least once");
    let spec = ServeSpec {
        shards: SHARDS,
        tick_ms: SERVE_TICK_MS,
        horizon_ms: pace.ticks() * SERVE_TICK_MS,
        seed,
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        record: traced,
    };
    // The host's speed around the run, for the tail (see below).
    let mut around: Vec<f64> = (0..scale.serve_probes).map(|_| host::probe()).collect();
    let (out, obs) = sut::serve(&mut host, &spec, |submitter| {
        loadgen::drive(submitter, &arrivals, traced)
    });
    around.extend((0..scale.serve_probes).map(|_| host::probe()));

    // Gate: every request accounted for and answered, the ledger heads
    // match the rebuilt chains, delivered ads satisfy their targeting.
    let answered = obs.served.iter().filter(|&&s| s).count() as u64;
    if out.requests != arrivals.len() as u64 || out.requests != out.served + out.shed {
        return Err(format!(
            "request accounting broken: {} submitted, {} requests = {} served + {} shed",
            arrivals.len(),
            out.requests,
            out.served,
            out.shed
        ));
    }
    if answered != out.served {
        return Err(format!(
            "{answered} tickets answered but the report says {} served",
            out.served
        ));
    }
    if out.ticks != pace.ticks() {
        return Err(format!(
            "{} ticks closed, {} expected",
            out.ticks,
            pace.ticks()
        ));
    }
    if out.heads != sut::recomputed_heads(&host, seed, SERVE_TICK_MS) {
        return Err("emitted receipt heads differ from the chains rebuilt from the log".into());
    }
    let mut rng = StdRng::seed_from_u64(host::splitmix(seed));
    sut::check_delivery_contract(&host, CONTRACT_SAMPLES, &mut rng)?;

    // The measured window is every tick but the first.
    let measured = |i: usize| arrivals[i].due_ns >= SERVE_TICK_WALL_NS && obs.served[i];
    let latencies: Vec<f64> = (0..arrivals.len())
        .filter(|&i| measured(i))
        .map(|i| obs.latency_ns[i] as f64)
        .collect();
    let latencies = sorted(&latencies);
    let within_slo = latencies.iter().filter(|&&l| l <= SLO_NS as f64).count();
    // A tick's first request arrives as the tick ends, so its submit
    // closes the tick and it waits out the whole tick-close barrier: it
    // is the worst-placed request of the open loop. Its latency, as the
    // interquartile mean over the ticks, is the tail. A p99 instead lands
    // wherever the 1% line cuts the queue behind the barrier, and moved
    // 15-40% between runs.
    let openers: Vec<usize> = (1..arrivals.len())
        .filter(|&i| arrivals[i].at_ms / SERVE_TICK_MS > arrivals[i - 1].at_ms / SERVE_TICK_MS)
        .collect();
    let opener_latencies: Vec<f64> = openers
        .iter()
        .filter(|&&i| measured(i))
        .map(|&i| obs.latency_ns[i] as f64)
        .collect();
    let failed = arrivals.len() as u64 - answered;

    if !traced {
        // The tail is mostly the tick-close barrier, so it is scaled, by
        // the probes around the run (probes within it disturb the run they
        // time) and only in part (`SERVE_TAIL_ELASTICITY`). Goodput at a
        // fixed load and the median, which the micro-batch timer
        // dominates, are not scaled.
        let factor = host::speed_factor(median(&around));
        let tail = interquartile_mean(&opener_latencies) / 1e6;
        let scaled_setups: Vec<f64> = setups.iter().zip(&factors).map(|(t, f)| t * f).collect();
        let mut outcome = end_to_end(
            arrivals.len() as u64,
            failed,
            [
                within_slo as f64 / seconds,
                quantile_sorted(&latencies, 0.5) / 1e6,
                tail * factor.powf(SERVE_TAIL_ELASTICITY),
                median(&scaled_setups),
            ],
        );
        outcome.unscaled = vec![
            ("latency_tail_ms", tail),
            ("setup_s", median(&setups)),
            ("host_speed_factor", factor),
        ];
        return Ok(outcome);
    }

    // The same submits, timed: each blocked on its tick's close.
    let tick_close_ms = openers
        .iter()
        .map(|&i| obs.submit_ns[i] as f64 / 1e6)
        .collect();
    let stride = (arrivals.len() / SERVE_REPLAY_VIEWS).max(1);
    let views: Vec<(u32, u64)> = arrivals
        .iter()
        .step_by(stride)
        .map(|a| (a.user, a.at_ms))
        .collect();
    let mut replay = Replay::default();
    let snapshot_ns = sut::replay_after_serving(&host, &views, &mut rng, &mut replay);
    let layers = ServeLayers {
        submit_ns: obs.submit_ns,
        tick_close_ms,
        gen_lag_ns: obs.gen_lag_ns,
        inprog_ns: out.inprog_ns,
        batch_size_p50: out.batch_size_p50,
        snapshot_ns,
        wall_ns: obs.elapsed_ns,
    };
    Ok(Outcome {
        attempted: arrivals.len() as u64,
        failed,
        metrics: per_layer(&[], 0.0, &replay, Some(&layers)),
        unscaled: Vec::new(),
    })
}
