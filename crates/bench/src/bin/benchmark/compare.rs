//! `benchmark compare`: the parent-vs-change rule, per (metric, workload).
//!
//! A change *improved* a metric only when it wins at least nine tenths of
//! at least ten pairs (ties count for neither side) and the medians
//! differ by more than the parent's own interquartile range. It
//! *regressed* when its median is worse than the parent's by more than
//! the metric's bound. By the mirror of the gain rule, a change that loses
//! nine tenths of the pairs by more than the parent's interquartile range
//! but stays within the bound is *worse*: a loss the pairs resolve, which
//! the bound does not reject. When the run-to-run spread of either side is
//! wider than the bound, the pair is *unresolved* rather than unchanged,
//! unless every run of the change reads better than every run of the
//! parent.

use std::collections::BTreeMap;

use crate::catalog::{Catalog, Metric};
use crate::json::Json;
use crate::stats::{iqr_share, median, quartiles};

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub verdict: Verdict,
    pub parent_median: f64,
    pub change_median: f64,
    /// The change's median relative to the parent's, signed so that a
    /// positive value is *worse*.
    pub worse_share: f64,
    /// The wider of the two sides' IQR-to-median shares.
    pub spread: f64,
    pub pairs: usize,
    pub wins: usize,
}

/// Applies the rule to one (metric, workload) pair. `parent[i]` and
/// `change[i]` are the i-th alternating pair; unmatched extra runs count
/// toward the medians but not toward wins. `more_failures` is true when
/// the change failed more operations than the parent, which voids a gain.
pub fn compare(parent: &[f64], change: &[f64], metric: &Metric, more_failures: bool) -> Comparison {
    let better = |c: f64, p: f64| {
        if metric.higher_is_better {
            c > p
        } else {
            c < p
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (pm, cm) = (median(parent), median(change));
    let worse_share = if metric.higher_is_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    let spread = iqr_share(parent)
        .unwrap_or(f64::INFINITY)
        .max(iqr_share(change).unwrap_or(f64::INFINITY));
    let parent_iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let bound = metric.bound.unwrap_or(0.0);
    let separated = parent.iter().all(|&p| change.iter().all(|&c| better(c, p)));

    // Nine tenths of at least ten pairs, and medians further apart than
    // the parent's IQR.
    let resolved = |count: usize| {
        pairs >= MIN_PAIRS && count * 10 >= pairs * 9 && (cm - pm).abs() > parent_iqr
    };

    let verdict = if resolved(wins) && better(cm, pm) {
        if more_failures {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if worse_share > bound {
        Verdict::Regressed
    } else if resolved(losses) && better(pm, cm) {
        Verdict::Worse
    } else if spread > bound && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Comparison {
        verdict,
        parent_median: pm,
        change_median: cm,
        worse_share,
        spread,
        pairs,
        wins,
    }
}

/// One benchmark run as `benchmark run --out` records it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub workload: String,
    pub correct: bool,
    pub failed: f64,
    pub metrics: BTreeMap<String, f64>,
    /// The metrics the run scaled to reference host speed, as measured,
    /// and the median `host_speed_factor` it applied.
    pub unscaled: BTreeMap<String, f64>,
}

/// Reads a result file: one JSON object per line with `workload`, the
/// run's `result` line and its `unscaled` values.
pub fn load_samples(path: &str) -> Result<Vec<Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let result = doc
                .get("result")
                .ok_or(format!("{path}:{}: no result", i + 1))?;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or(format!("{path}:{}: no metrics", i + 1))?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            let unscaled = doc
                .get("unscaled")
                .and_then(Json::as_object)
                .into_iter()
                .flatten()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect();
            Ok(Sample {
                workload: doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or(format!("{path}:{}: no workload", i + 1))?
                    .to_string(),
                correct: result.get("correct").and_then(Json::as_bool) == Some(true),
                failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                metrics,
                unscaled,
            })
        })
        .collect()
}

/// Compares two result files metric by metric and prints one row per
/// (workload, metric), plus one per metric the workload also reports
/// unscaled, judged by the same rule. Returns whether any pair regressed
/// (or any run was incorrect).
pub fn compare_files(catalog: &Catalog, parent: &[Sample], change: &[Sample]) -> bool {
    let mut bad = false;
    for s in parent.iter().chain(change).filter(|s| !s.correct) {
        println!("incorrect run in workload {}", s.workload);
        bad = true;
    }
    println!(
        "{:<16} {:<29} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse%", "spread%", "wins"
    );
    for workload in &catalog.workloads {
        let side = |runs: &[Sample]| -> Vec<Sample> {
            runs.iter()
                .filter(|s| &s.workload == workload)
                .cloned()
                .collect()
        };
        let (p_runs, c_runs) = (side(parent), side(change));
        if p_runs.is_empty() || c_runs.is_empty() {
            continue;
        }
        let failed = |runs: &[Sample]| runs.iter().map(|s| s.failed).sum::<f64>();
        let more_failures = failed(&c_runs) > failed(&p_runs);
        if p_runs.len().min(c_runs.len()) < MIN_PAIRS {
            println!("{workload}: fewer than {MIN_PAIRS} pairs, so no gain can be claimed");
        }
        for metric in &catalog.end_to_end {
            for unscaled in [false, true] {
                let suffix = if unscaled { " (unscaled)" } else { "" };
                let values = |runs: &[Sample]| -> Vec<f64> {
                    runs.iter()
                        .map(|s| if unscaled { &s.unscaled } else { &s.metrics })
                        .filter_map(|m| m.get(&metric.name).copied())
                        .collect()
                };
                let (p, c) = (values(&p_runs), values(&c_runs));
                if p.is_empty() || c.is_empty() {
                    continue;
                }
                let cmp = compare(&p, &c, metric, more_failures);
                bad |= cmp.verdict == Verdict::Regressed;
                println!(
                    "{:<16} {:<29} {:>12.4} {:>12.4} {:>8.2} {:>7.2} {:>3}/{:<2}  {}",
                    workload,
                    format!("{}{suffix}", metric.name),
                    cmp.parent_median,
                    cmp.change_median,
                    cmp.worse_share * 100.0,
                    cmp.spread * 100.0,
                    cmp.wins,
                    cmp.pairs,
                    cmp.verdict.label()
                );
            }
        }
        // The probe is benchmark code, so a commit cannot move the factor;
        // a gap between the sides is host drift the scaling removed.
        let factor = |runs: &[Sample]| {
            let f: Vec<f64> = runs
                .iter()
                .filter_map(|s| s.unscaled.get("host_speed_factor").copied())
                .collect();
            median(&f)
        };
        let (pf, cf) = (factor(&p_runs), factor(&c_runs));
        if !pf.is_nan() && !cf.is_nan() {
            println!(
                "{:<16} {:<29} {pf:>12.4} {cf:>12.4}",
                workload, "host_speed_factor"
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    /// `n` values around `center`, spread evenly over `±width` (relative).
    fn around(center: f64, width: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + width * (2.0 * i as f64 / (n - 1) as f64 - 1.0)))
            .collect()
    }

    #[test]
    fn identical_samples_are_unchanged() {
        let p = around(100.0, 0.01, 10);
        let cmp = compare(&p, &p, &metric(false, 0.1), false);
        assert_eq!(cmp.verdict, Verdict::Unchanged);
        assert_eq!(cmp.wins, 0);
    }

    #[test]
    fn a_consistent_gain_beyond_the_iqr_is_improved() {
        let p = around(100.0, 0.01, 10);
        let c = around(80.0, 0.01, 10);
        assert_eq!(
            compare(&p, &c, &metric(false, 0.1), false).verdict,
            Verdict::Improved
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            compare(&c, &p, &metric(true, 0.1), false).verdict,
            Verdict::Improved
        );
        // More failed operations void the gain.
        assert_eq!(
            compare(&p, &c, &metric(false, 0.1), true).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_wins() {
        let p = around(100.0, 0.01, 9);
        let c = around(80.0, 0.01, 9);
        assert_eq!(
            compare(&p, &c, &metric(false, 0.1), false).verdict,
            Verdict::Unchanged
        );
        // Ten pairs, but the change wins only eight.
        let p = around(100.0, 0.001, 10);
        let mut c = around(98.0, 0.001, 10);
        c[0] = 120.0;
        c[1] = 120.0;
        assert_eq!(
            compare(&p, &c, &metric(false, 0.1), false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_than_the_bound_is_regressed() {
        let p = around(100.0, 0.01, 10);
        let c = around(115.0, 0.01, 10);
        let cmp = compare(&p, &c, &metric(false, 0.1), false);
        assert_eq!(cmp.verdict, Verdict::Regressed);
        assert!((cmp.worse_share - 0.15).abs() < 1e-9);
        // Within the bound it is unchanged while the pairs do not resolve it…
        let c = around(101.0, 0.05, 10);
        assert_eq!(
            compare(&p, &c, &metric(false, 0.1), false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_consistent_loss_within_the_bound_is_worse() {
        // …and worse when the change loses every pair beyond the IQR: a
        // 20% slowdown under a 25% bound is reported, but does not fail.
        let p = around(100.0, 0.01, 10);
        let c = around(120.0, 0.01, 10);
        let cmp = compare(&p, &c, &metric(false, 0.25), false);
        assert_eq!(cmp.verdict, Verdict::Worse);
        assert_eq!(
            compare(&c, &p, &metric(true, 0.25), false).verdict,
            Verdict::Worse
        );
        // Fewer than ten pairs cannot resolve it.
        assert_eq!(
            compare(&p[..9], &c[..9], &metric(false, 0.25), false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // ±30% run-to-run spread against a 10% bound, medians 5% apart.
        let p = around(100.0, 0.3, 10);
        let c = around(105.0, 0.3, 10);
        let cmp = compare(&p, &c, &metric(false, 0.1), false);
        assert!(cmp.spread > 0.1);
        assert_eq!(cmp.verdict, Verdict::Unresolved);
        // Unless every change run reads better than every parent run.
        let c = around(40.0, 0.3, 10);
        assert_ne!(
            compare(&p, &c, &metric(false, 0.1), false).verdict,
            Verdict::Unresolved
        );
    }
}
