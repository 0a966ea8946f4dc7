#!/usr/bin/env python3
"""Validate a treads-telemetry JSON snapshot.

Used by CI after an instrumented simulation run: checks that the snapshot
parses as JSON and contains the metric catalog the run must emit (see
DESIGN.md "Observability"). Exits non-zero with a diagnostic when a
required key is missing or a histogram is empty.

Two modes:

  check_telemetry_snapshot.py <snapshot.json>
      Batch-engine catalog: per-phase timing histograms, index and
      eligibility counters, auction_decided flight events.

  check_telemetry_snapshot.py --serving <snapshot.json>
      Serving catalog (DESIGN.md §12): request/shed/SLO counters, the
      per-request latency + micro-batch size histograms, and the tick-close
      barrier's merge and fold phases (phase.merge_ns / phase.apply_ns).
      The serving path runs no session-generation or shard-tick phases, so
      those histograms are NOT required.

Either mode also accepts --trace (DESIGN.md §13): require the causal
tracing counters (trace.spans / trace.sampled / trace.dropped), the
trace-collector section, and at least one exemplar linking the
request-latency histogram's tail to a retained trace id.

Either mode also accepts --ledger (DESIGN.md §15): require the
delivery-receipt ledger counters (ledger.receipts /
ledger.heads_committed), which both engines always register —
zero-valued when emission is disabled; when emission ran, one receipt
per delivered impression.
"""

import json
import sys

ENGINE_COUNTERS = [
    "engine.ticks",
    "engine.page_views",
    "engine.impressions",
    "engine.pixel_fires",
    "auction.won",
    "eligibility.considered",
    "index.candidates",
    # Compiled targeting: program evaluations in the delivery hot path and
    # incremental facet-sidecar maintenance in the profile store. Both are
    # always emitted (zero-valued under EvalMode::Tree / a facet-free run),
    # so their absence means the engine predates the compiled evaluator.
    "targeting.compiled_evals",
    "targeting.facet_updates",
    # Stage-1 match sets: one per user per tick whose first opportunity
    # built one. Opportunities (auction.won + .lost_to_background +
    # .unfilled) over match sets is how often each build is reused.
    "targeting.match_sets",
    # Resilience accounting: the supervisor always emits these, zero-valued
    # on a fault-free run, so their absence means the run bypassed the
    # supervised path (DESIGN.md "Failure model & recovery").
    "faults.injected",
    "faults.recovered",
    "faults.unrecoverable",
    "checkpoint.bytes",
    # Delta checkpointing (TRCK v3): encoded delta-frame bytes and the
    # number of dirty slots each frame carried. Zero-valued whenever every
    # checkpoint frame is a full base (delta_base_every of 0 or 1), so
    # their absence means the engine predates incremental persistence.
    "checkpoint.delta_bytes",
    "checkpoint.dirty_slots",
]

ENGINE_HISTOGRAMS = [
    "engine.tick_ns",
    "phase.session_gen_ns",
    "phase.auction_ns",
    "phase.delivery_ns",
    "phase.merge_ns",
    "phase.apply_ns",
    "auction.eligible_bids",
    "index.candidate_set_size",
]

# The serving front end's catalog: request accounting, SLO verdicts, and
# the wall-clock shape of the request path. Fault counters stay required —
# the serving stack always runs under the supervisor's fault plan. The
# engine, fault and targeting names are the ones both run paths register
# at zero (`treads_engine::register_run_counters`).
SERVING_COUNTERS = [
    "engine.ticks",
    "engine.page_views",
    "engine.impressions",
    "engine.pixel_fires",
    "auction.won",
    "serving.requests",
    "serving.shed",
    "serving.slo_breach",
    "serving.merge_conflicts",
    "faults.injected",
    "faults.recovered",
    "faults.unrecoverable",
    "targeting.compiled_evals",
    "targeting.match_sets",
    "targeting.facet_updates",
]

SERVING_HISTOGRAMS = [
    "serving.request_latency_ns",
    "serving.batch_size",
    # The applier's merge and fold, under the batch engine's names: the
    # two largest layers of the tick-close barrier.
    "phase.merge_ns",
    "phase.apply_ns",
]

# Causal tracing accounting (DESIGN.md §13): span/retention counters the
# runtime zero-registers whenever tracing is configured, plus the
# histogram whose tail must carry trace-id exemplars.
TRACE_COUNTERS = [
    "trace.spans",
    "trace.sampled",
    "trace.dropped",
]
TRACE_EXEMPLAR_HISTOGRAM = "serving.request_latency_ns"

# Delivery-receipt ledger accounting (DESIGN.md §15): both engines
# zero-register these whenever they run, so their absence means the run
# predates the transparency ledger.
LEDGER_COUNTERS = [
    "ledger.receipts",
    "ledger.heads_committed",
]

HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "p50", "p95", "p99", "buckets"]


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    args = sys.argv[1:]
    serving = "--serving" in args
    trace = "--trace" in args
    ledger = "--ledger" in args
    args = [a for a in args if a not in ("--serving", "--trace", "--ledger")]
    if len(args) != 1:
        fail(f"usage: {sys.argv[0]} [--serving] [--trace] [--ledger] <snapshot.json>")
    path = args[0]
    try:
        with open(path, encoding="utf-8") as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    if snap.get("enabled") is not True:
        fail("snapshot says telemetry was not enabled")

    required_counters = SERVING_COUNTERS if serving else ENGINE_COUNTERS
    required_histograms = SERVING_HISTOGRAMS if serving else ENGINE_HISTOGRAMS
    if trace:
        required_counters = required_counters + TRACE_COUNTERS
    if ledger:
        required_counters = required_counters + LEDGER_COUNTERS

    counters = snap.get("counters")
    if not isinstance(counters, dict):
        fail("missing 'counters' object")
    for name in required_counters:
        if name not in counters:
            fail(f"missing counter '{name}' (have: {sorted(counters)})")
        if not isinstance(counters[name], int) or counters[name] < 0:
            fail(f"counter '{name}' is not a non-negative integer")
    if counters["engine.impressions"] == 0:
        fail("instrumented run delivered no impressions")
    if serving:
        if counters["serving.requests"] == 0:
            fail("serving run answered no requests")
        if counters["serving.requests"] < counters["serving.shed"]:
            fail("serving.shed exceeds serving.requests")
    if ledger and counters["ledger.receipts"] not in (0, counters["engine.impressions"]):
        fail(
            f"ledger.receipts ({counters['ledger.receipts']}) is neither 0 "
            f"(emission off) nor one per delivered impression "
            f"({counters['engine.impressions']})"
        )

    histograms = snap.get("histograms")
    if not isinstance(histograms, dict):
        fail("missing 'histograms' object")
    for name in required_histograms:
        if name not in histograms:
            fail(f"missing histogram '{name}' (have: {sorted(histograms)})")
        h = histograms[name]
        for field in HISTOGRAM_FIELDS:
            if field not in h:
                fail(f"histogram '{name}' lacks field '{field}'")
        if h["count"] == 0:
            fail(f"histogram '{name}' recorded no observations")
        if not (h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"]):
            fail(f"histogram '{name}' quantiles are not monotone: {h}")
        if not any(b.get("le") == "+Inf" for b in h["buckets"]):
            fail(f"histogram '{name}' lacks a +Inf bucket")
    if serving:
        lat = histograms["serving.request_latency_ns"]
        if lat["count"] != counters["serving.requests"] - counters["serving.shed"]:
            fail(
                "serving.request_latency_ns count "
                f"({lat['count']}) != served requests "
                f"({counters['serving.requests'] - counters['serving.shed']})"
            )

    if trace:
        collector = snap.get("trace")
        if not isinstance(collector, dict):
            fail("missing 'trace' collector section")
        for field in ("retained", "dropped"):
            if not isinstance(collector.get(field), int) or collector[field] < 0:
                fail(f"trace section field '{field}' is not a non-negative integer")
        if collector["retained"] == 0:
            fail("traced run retained no traces")
        if counters["trace.spans"] == 0:
            fail("traced run recorded no spans")
        if counters["trace.sampled"] != collector["retained"]:
            fail(
                f"trace.sampled ({counters['trace.sampled']}) != retained traces "
                f"({collector['retained']})"
            )
        lat = histograms.get(TRACE_EXEMPLAR_HISTOGRAM)
        if lat is None:
            fail(f"--trace requires histogram '{TRACE_EXEMPLAR_HISTOGRAM}'")
        exemplars = lat.get("exemplars")
        if not isinstance(exemplars, list) or not exemplars:
            fail(f"histogram '{TRACE_EXEMPLAR_HISTOGRAM}' carries no exemplars")
        for e in exemplars:
            tid = e.get("trace_id")
            if not isinstance(e.get("value"), int):
                fail(f"exemplar lacks an integer value: {e}")
            if not isinstance(tid, str) or len(tid) != 16 or int(tid, 16) == 0:
                fail(f"exemplar trace_id is not a nonzero 16-hex id: {e}")

    flight = snap.get("flight")
    if not isinstance(flight, dict) or "events" not in flight:
        fail("missing 'flight' journal")
    if not flight["events"]:
        fail("flight journal is empty")
    if not serving:
        kinds = {e.get("kind") for e in flight["events"]}
        if "auction_decided" not in kinds:
            fail(f"flight journal has no auction_decided events (kinds: {sorted(kinds)})")

    mode = (
        ("serving" if serving else "engine")
        + ("+trace" if trace else "")
        + ("+ledger" if ledger else "")
    )
    print(
        f"OK ({mode}): {path}: {len(counters)} counters, {len(histograms)} histograms, "
        f"{len(flight['events'])} flight events "
        f"({counters['engine.impressions']} impressions over {counters['engine.ticks']} ticks)"
    )


if __name__ == "__main__":
    main()
