//! Snapshot rendering: JSON and Prometheus-style text exposition.
//!
//! Hand-rolled writers with no serialization dependency, emitting
//! deterministic output: metric names are
//! `BTreeMap`-ordered and every number is formatted without locale
//! dependence. The JSON form is what the experiment binaries dump under
//! `experiments-out/` and what the CI smoke step parses; the Prometheus
//! form is scrape-ready text for anyone wiring the simulator into a real
//! metrics stack.

use crate::flight::{FlightEvent, FlightKind};
use crate::metrics::Histogram;
use crate::{Exemplar, Telemetry};

/// Renders a full snapshot — counters, histograms (with p50/p95/p99), and
/// the flight-recorder journal — as a JSON document.
pub fn to_json(telemetry: &Telemetry) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"enabled\": {},\n", telemetry.is_enabled()));

    out.push_str("  \"counters\": {");
    let counters = telemetry.metrics().counters();
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {value}"));
    }
    if !counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    let histograms = telemetry.metrics().histograms();
    for (i, (name, h)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": "));
        out.push_str(&histogram_json(h, telemetry.exemplars(name)));
    }
    if !histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str(&format!(
        "  \"trace\": {{\"retained\": {}, \"dropped\": {}}},\n",
        telemetry.traces().len(),
        telemetry.metrics().counter("trace.dropped")
    ));

    out.push_str("  \"flight\": {\n");
    out.push_str(&format!(
        "    \"capacity\": {},\n    \"dropped\": {},\n",
        telemetry.flight().capacity(),
        telemetry.flight().dropped()
    ));
    out.push_str("    \"events\": [");
    for (i, event) in telemetry.flight().events().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n      ");
        out.push_str(&event_json(event));
    }
    if !telemetry.flight().is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }\n}\n");
    out
}

fn histogram_json(h: &Histogram, exemplars: &[Exemplar]) -> String {
    let [p50, p95, p99] = h.percentiles();
    let mut s = format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        p50,
        p95,
        p99
    );
    let counts = h.bucket_counts();
    for (i, (&bound, &count)) in h.bounds().iter().zip(counts).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{{\"le\": {bound}, \"count\": {count}}}"));
    }
    s.push_str(&format!(
        ", {{\"le\": \"+Inf\", \"count\": {}}}]",
        counts.last().expect("overflow bucket exists")
    ));
    if !exemplars.is_empty() {
        s.push_str(", \"exemplars\": [");
        for (i, e) in exemplars.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"value\": {}, \"trace_id\": \"{}\"}}",
                e.value, e.trace
            ));
        }
        s.push(']');
    }
    s.push('}');
    s
}

fn event_json(event: &FlightEvent) -> String {
    let head = format!(
        "{{\"at\": {}, \"user\": {}, \"seq\": {}, \"trace\": \"{:016x}\", \"kind\": \"{}\"",
        event.at.0,
        event.user.raw(),
        event.seq,
        event.trace,
        event.kind.tag()
    );
    let body = match event.kind {
        FlightKind::AuctionDecided {
            outcome,
            eligible,
            frequency_capped,
            over_budget,
        } => format!(
            ", \"outcome\": \"{outcome}\", \"eligible\": {eligible}, \
             \"frequency_capped\": {frequency_capped}, \"over_budget\": {over_budget}"
        ),
        FlightKind::ImpressionBilled {
            ad,
            campaign,
            account,
            price_micros,
        } => format!(
            ", \"ad\": {ad}, \"campaign\": {campaign}, \"account\": {account}, \
             \"price_micros\": {price_micros}"
        ),
        FlightKind::CapRejection { ads_capped } => {
            format!(", \"ads_capped\": {ads_capped}")
        }
        FlightKind::BudgetExhausted { campaign } => {
            format!(", \"campaign\": {campaign}")
        }
        FlightKind::TreadObserved { ad } => format!(", \"ad\": {ad}"),
    };
    format!("{head}{body}}}")
}

/// Renders counters and histograms as Prometheus text exposition
/// (`counter` and `histogram` types, cumulative `le` buckets). The flight
/// journal is not exposed — it is a debugging artifact, not a time series.
pub fn to_prometheus(telemetry: &Telemetry) -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in telemetry.metrics().counters() {
        let metric = prom_name(name);
        out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
    }
    for (name, h) in telemetry.metrics().histograms() {
        let metric = prom_name(name);
        let exemplars = telemetry.exemplars(name);
        let [_, p95, _] = h.percentiles();
        out.push_str(&format!("# TYPE {metric} histogram\n"));
        let mut cumulative = 0u64;
        for (&bound, &count) in h.bounds().iter().zip(h.bucket_counts()) {
            cumulative += count;
            out.push_str(&format!("{metric}_bucket{{le=\"{bound}\"}} {cumulative}"));
            out.push_str(&exemplar_suffix(exemplars, bound, p95));
            out.push('\n');
        }
        out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}", h.count()));
        out.push_str(&exemplar_suffix(exemplars, u64::MAX, p95));
        out.push_str(&format!(
            "\n{metric}_sum {}\n{metric}_count {}\n",
            h.sum(),
            h.count()
        ));
    }
    out
}

/// OpenMetrics exemplar suffix for one cumulative bucket line: attached
/// only to buckets at or above the histogram's p95 (exemplars annotate
/// the latency tail, not the body), linking the largest retained exemplar
/// that falls inside the bucket's range.
fn exemplar_suffix(exemplars: &[Exemplar], bound: u64, p95: u64) -> String {
    if bound < p95 {
        return String::new();
    }
    match exemplars.iter().find(|e| e.value <= bound) {
        Some(e) => format!(
            " # {{trace_id=\"{}\"}} {}",
            prom_label_value(&e.trace.to_hex()),
            e.value
        ),
        None => String::new(),
    }
}

/// Prometheus metric name: `treads_` prefix, non-alphanumerics mapped to
/// underscores.
fn prom_name(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("treads_{mapped}")
}

/// Prometheus label-value escaping: backslash, double-quote, and newline
/// must be escaped inside `label="…"` per the exposition format. The
/// pre-exemplar writer never emitted label values that needed this (its
/// only labels were numeric `le` bounds); exemplar labels route through
/// here so arbitrary values stay well-formed.
fn prom_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::{SimTime, UserId};

    fn sample() -> Telemetry {
        let mut t = Telemetry::new();
        t.count("auction.won", 3);
        t.count("engine.ticks", 2);
        t.observe_value("auction.eligible_bids", 2);
        t.observe_ns("engine.tick_ns", 5_000_000);
        t.record_event(FlightEvent {
            at: SimTime(10),
            user: UserId(7),
            seq: 0,
            trace: 0xabcd,
            kind: FlightKind::AuctionDecided {
                outcome: "won",
                eligible: 2,
                frequency_capped: 1,
                over_budget: 0,
            },
        });
        t
    }

    #[cfg(feature = "record")]
    #[test]
    fn json_contains_every_section() {
        let json = to_json(&sample());
        for needle in [
            "\"counters\"",
            "\"auction.won\": 3",
            "\"histograms\"",
            "\"engine.tick_ns\"",
            "\"p95\"",
            "\"le\": \"+Inf\"",
            "\"flight\"",
            "\"kind\": \"auction_decided\"",
            "\"outcome\": \"won\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Braces and brackets balance — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[cfg(feature = "record")]
    #[test]
    fn prometheus_buckets_are_cumulative_and_named() {
        let prom = to_prometheus(&sample());
        assert!(prom.contains("# TYPE treads_auction_won counter"));
        assert!(prom.contains("treads_auction_won 3"));
        assert!(prom.contains("# TYPE treads_engine_tick_ns histogram"));
        assert!(prom.contains("treads_engine_tick_ns_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("treads_engine_tick_ns_count 1"));
        // The +Inf bucket equals the total count for every histogram.
        assert!(prom.contains("treads_auction_eligible_bids_bucket{le=\"+Inf\"} 1"));
    }

    #[cfg(feature = "record")]
    #[test]
    fn exemplars_render_in_json_and_prometheus() {
        use crate::TraceId;
        let mut t = sample();
        // The tick histogram holds one 5ms observation; exemplar it.
        t.exemplar("engine.tick_ns", 5_000_000, TraceId(0xfeed));
        let json = to_json(&t);
        assert!(json
            .contains("\"exemplars\": [{\"value\": 5000000, \"trace_id\": \"000000000000feed\"}]"));
        assert!(json.contains("\"trace\": \"000000000000abcd\""));
        assert!(json.contains("\"trace\": {\"retained\": 0,"));
        let prom = to_prometheus(&t);
        assert!(
            prom.contains("# {trace_id=\"000000000000feed\"} 5000000"),
            "missing exemplar suffix in:\n{prom}"
        );
        // Exemplars only decorate p95+ buckets: the first (1µs) bucket
        // line stays bare.
        assert!(prom.contains("treads_engine_tick_ns_bucket{le=\"1000\"} 0\n"));
    }

    #[test]
    fn label_values_escape_specials() {
        assert_eq!(prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let t = Telemetry::disabled();
        let json = to_json(&t);
        assert!(json.contains("\"enabled\": false"));
        assert!(json.contains("\"counters\": {}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(to_prometheus(&t).is_empty());
    }
}
