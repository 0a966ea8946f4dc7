//! The repository benchmark: four workloads, end-to-end metrics measured
//! untraced, and per-layer spans from a separate traced run. See
//! `README.md` beside this file for the metric catalog and commands.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark run [--seed <n>] [--repeat <k>] [--seconds <s>] [--traced]
//!               [--smoke] [--workload <name>]... [--out <file>]
//! benchmark compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! The first form runs one workload in this process and prints one
//! `workload metric value unit` line per metric, then a one-line JSON
//! result. Before those it prints the metrics it scaled to reference
//! host speed, as measured, on a `# unscaled {...}` line. It exits
//! non-zero, printing no result, when the correctness gate fails.
//!
//! Cargo builds this file as the `benchmark` binary of `treads-bench`:
//! `cargo run --release -p treads-bench --bin benchmark -- <args>`.

#![forbid(unsafe_code)]

mod catalog;
mod compare;
mod host;
mod json;
mod loadgen;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use catalog::{Catalog, Metric};
use json::Json;
use workloads::{Outcome, Scale, Workload};

/// One run's parameters.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let catalog = Catalog::load();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run_all(&catalog, &argv[1..]),
        Some("compare") => compare_cmd(&catalog, &argv[1..]),
        _ => parse_run_args(&argv).and_then(|args| run_one(&catalog, &args)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in [0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
    })
}

/// Runs one workload in this process.
fn run_one(catalog: &Catalog, args: &Args) -> Result<ExitCode, String> {
    let outcome = execute(args)
        .map_err(|e| format!("{}: correctness gate failed: {e}", args.workload.name()))?;
    let expected = if args.traced {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    let line = result_json(expected, &outcome)?;
    let name = args.workload.name();
    if !outcome.unscaled.is_empty() {
        println!("{UNSCALED_PREFIX}{}", unscaled_json(&outcome).render());
    }
    for (metric, value) in &outcome.metrics {
        let unit = catalog.metric(metric).map_or("", |m| m.unit.as_str());
        if args.traced {
            println!("{name} {metric} {value} {unit}  # moves: {}", moves(metric));
        } else {
            println!("{name} {metric} {value} {unit}");
        }
    }
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Runs the workload; the correctness gate's verdict is the `Result`.
fn execute(args: &Args) -> Result<Outcome, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    workloads::run(args.workload, args.seed, args.seconds, args.traced, scale)
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding exactly the catalog's metrics.
fn result_json(expected: &[Metric], outcome: &Outcome) -> Result<Json, String> {
    let emitted: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    if emitted != wanted {
        return Err(format!(
            "emitted metrics {emitted:?} do not match BENCHMARK.json's {wanted:?}"
        ));
    }
    let metrics = outcome
        .metrics
        .iter()
        .zip(expected)
        .map(|((name, value), m)| {
            let entry = BTreeMap::from([
                ("value".to_string(), Json::Num(*value)),
                ("unit".to_string(), Json::Str(m.unit.clone())),
            ]);
            (name.to_string(), Json::Obj(entry))
        })
        .collect();
    Ok(Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(true)),
        (
            "attempted".to_string(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])))
}

/// Starts the line on which a run prints its metrics before
/// host-speed scaling, as a JSON object; `run --out` keeps that object
/// beside the result so `compare` can judge both.
const UNSCALED_PREFIX: &str = "# unscaled ";

fn unscaled_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .unscaled
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Num(*value)))
            .collect(),
    )
}

/// Which end-to-end metric a per-layer metric should move, and where.
fn moves(metric: &str) -> &'static str {
    const MAP: [(&str, &str); 13] = [
        (
            "websim.session_gen",
            "throughput on batch-broad; none on batch-inventory",
        ),
        (
            "engine.shard_tick",
            "throughput on batch-inventory and batch-broad",
        ),
        (
            "engine.merge",
            "throughput on batch-broad, batch-persist; none on batch-inventory",
        ),
        (
            "engine.fold",
            "throughput on batch-broad, batch-persist; none on batch-inventory",
        ),
        (
            "adplatform.budget_snapshot",
            "throughput on batch-broad, batch-persist; tail on serve-open",
        ),
        (
            "adplatform",
            "throughput on batch-inventory; p50 on serve-open",
        ),
        (
            "resilience.ledger",
            "throughput on batch-broad, batch-persist; none on batch-inventory",
        ),
        ("resilience", "throughput on batch-persist only"),
        ("serving.tick_close", "tail and throughput on serve-open"),
        ("serving.gen_lag", "tail on serve-open"),
        ("serving", "p50 on serve-open"),
        ("unattributed", "must stay below 5% of the traced wall"),
        ("trace", "the cost of tracing itself; no end-to-end metric"),
    ];
    MAP.iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("", |(_, m)| m)
}

/// `benchmark run`: every selected workload, each in a fresh process so
/// peak memory is per workload, `--repeat` times with consecutive seeds.
fn run_all(catalog: &Catalog, argv: &[String]) -> Result<ExitCode, String> {
    let mut seed = 42u64;
    let mut repeat = 1u64;
    let mut seconds = catalog.run_seconds;
    let mut traced = false;
    let mut smoke = false;
    let mut selected: Vec<String> = Vec::new();
    let mut out_path = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--repeat" => repeat = value()?.parse().map_err(|_| "--repeat takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            "--workload" => selected.push(value()?),
            "--out" => out_path = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if selected.is_empty() {
        selected.clone_from(&catalog.workloads);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# hardware_threads {threads}, seconds {seconds}, traced {traced}, smoke {smoke}");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = match &out_path {
        Some(p) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| format!("{p}: {e}"))?,
        ),
        None => None,
    };
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failed = false;
    for r in 0..repeat {
        let run_seed = seed + r;
        for workload in &selected {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd.output().map_err(|e| e.to_string())?;
            std::io::stderr()
                .write_all(&child.stderr)
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = Json::parse(last).ok().filter(|_| child.status.success());
            let Some(result) = parsed else {
                println!("{workload} seed {run_seed}: FAILED ({})", child.status);
                failed = true;
                continue;
            };
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            let unscaled = stdout
                .lines()
                .find_map(|l| l.strip_prefix(UNSCALED_PREFIX))
                .and_then(|j| Json::parse(j).ok());
            let mut sample = |name: String, x: Option<f64>| {
                if let Some(x) = x {
                    samples.entry((workload.clone(), name)).or_default().push(x);
                }
            };
            if let Some(metrics) = result.get("metrics").and_then(Json::as_object) {
                for (name, v) in metrics {
                    sample(name.clone(), v.get("value").and_then(Json::as_f64));
                }
            }
            if let Some(values) = unscaled.as_ref().and_then(Json::as_object) {
                for (name, v) in values {
                    sample(format!("{name} (unscaled)"), v.as_f64());
                }
            }
            if let Some(file) = out.as_mut() {
                let mut record = BTreeMap::from([
                    ("workload".to_string(), Json::Str(workload.clone())),
                    ("seed".to_string(), Json::Num(run_seed as f64)),
                    ("hardware_threads".to_string(), Json::Num(threads as f64)),
                    ("result".to_string(), result),
                ]);
                if let Some(unscaled) = unscaled {
                    record.insert("unscaled".to_string(), unscaled);
                }
                writeln!(file, "{}", Json::Obj(record).render()).map_err(|e| e.to_string())?;
            }
        }
    }
    if repeat > 1 {
        println!("# summary over {repeat} runs: median [q1, q3] iqr/median");
        for ((workload, metric), values) in &samples {
            let (q1, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{workload} {metric} {:.6} [{q1:.6}, {q3:.6}] {:.2}% n={}",
                stats::median(values),
                stats::iqr_share(values).unwrap_or(f64::NAN) * 100.0,
                values.len()
            );
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `benchmark compare <parent> <change>`.
fn compare_cmd(catalog: &Catalog, argv: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = argv else {
        return Err("usage: benchmark compare <parent.jsonl> <change.jsonl>".into());
    };
    let parent = compare::load_samples(parent)?;
    let change = compare::load_samples(change)?;
    let bad = compare::compare_files(catalog, &parent, &change);
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: if workload == Workload::ServeOpen {
                0.3
            } else {
                0.0
            },
            traced,
            smoke: true,
        }
    }

    #[test]
    fn catalog_names_the_workloads_this_binary_runs() {
        let catalog = Catalog::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(catalog.workloads, names);
        assert!(catalog
            .metric("setup_s")
            .is_some_and(|m| m.unit == "s" && !m.higher_is_better));
        for m in catalog.per_layer.iter() {
            assert!(
                !moves(&m.name).is_empty(),
                "{} has no should-move entry",
                m.name
            );
        }
    }

    /// Every workload and its traced run at smoke size: the gate passes
    /// and the result line carries exactly the catalog's metrics.
    #[test]
    fn every_workload_passes_the_gate_at_smoke_size() {
        let catalog = Catalog::load();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let args = smoke(workload, traced);
                let outcome = execute(&args)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
                let expected = if traced {
                    &catalog.per_layer
                } else {
                    &catalog.end_to_end
                };
                let line = result_json(expected, &outcome).expect("catalog metrics");
                let doc = Json::parse(&line.render()).expect("the result line is JSON");
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.failed, 0, "{}", workload.name());
                if !traced {
                    for (name, value) in &outcome.metrics {
                        assert!(
                            value.is_finite() && *value > 0.0,
                            "{} {name} = {value}",
                            workload.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_tampered_digest_makes_the_run_exit_non_zero() {
        let args = smoke(Workload::BatchPersist, false);
        assert!(execute(&args).is_ok());
        workloads::TAMPER_DIGEST.with(|t| t.set(true));
        let result = run_one(&Catalog::load(), &args);
        workloads::TAMPER_DIGEST.with(|t| t.set(false));
        let err = result.expect_err("the gate rejects a tampered frame chain");
        assert!(err.contains("correctness gate failed"), "{err}");
        // `main` turns every `Err` into a failing exit status.
    }

    #[test]
    fn run_arguments_are_validated() {
        let parse = |s: &str| parse_run_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload serve-open --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::ServeOpen);
        assert!(ok.traced && !ok.smoke);
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload batch-broad --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload batch-broad --seed 3 --trace 0").is_err());
        assert!(parse("--workload batch-broad --seed x --seconds 1 --trace 0").is_err());
    }
}
