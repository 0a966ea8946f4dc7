//! The metric and workload catalog, read from the repository's
//! `BENCHMARK.json` at compile time so the file a benchmark harness reads and the
//! code that emits the metrics cannot drift apart.

use crate::json::Json;

/// `BENCHMARK.json`, relative to this file's directory.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Catalog {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: f64,
}

impl Catalog {
    /// The compiled-in catalog. Panics on a malformed `BENCHMARK.json`:
    /// the file is part of the source, so that is a build defect.
    pub fn load() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<Json>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("BENCHMARK.json: bad direction {better:?}"));
                    }
                    let bound = if bounded {
                        Some(m.get("bound").and_then(Json::as_f64).ok_or_else(|| {
                            format!("BENCHMARK.json: {key} metric without a bound")
                        })?)
                    } else {
                        None
                    };
                    Ok(Metric {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: better == "higher",
                        bound,
                    })
                })
                .collect()
        };
        Ok(Catalog {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
        })
    }

    /// An end-to-end or per-layer metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
