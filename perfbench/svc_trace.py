"""Traced mode of the service workloads: per-layer costs of the fixed-rate phase.

Runs the workload twice on fresh servers, untraced (``repro serve``) and
traced (``svc_launcher.py``), with the same inputs.  The per-layer
numbers come from the traced server's span ledger and counters, diffed
across its fixed-rate phases, so they share a base with its CPU per op.
"""

from __future__ import annotations

from typing import Dict

from spans import diff
from svc_bench import SvcWorkload, _counters, rate_counters, run_server

#: Self time the server spends inside measured layers; the rest of the
#: traced server's CPU per op is the dispatch residual (event loop,
#: connections, queue hop, the spans' own cost outside any span, and the
#: codec, which is also reported on its own).
_MEASURED_LAYERS = (
    "core.get", "core.put", "consistency.apply_push", "cache.insert",
    "cache.hit", "origin.fetch", "origin.validate", "origin.commit",
    "routing", "routing.home_region",
)


def expected_layers(wl: SvcWorkload):
    """Boundaries the fixed-rate phase of ``wl`` must reach."""
    # The keyspace outgrows the caches, so misses fetch and evict.
    layers = {"core.get", "cache.hit", "routing.home_region", "codec",
              "cache.insert", "origin.fetch"}
    if wl.put_ratio > 0:
        layers |= {"core.put", "consistency.apply_push", "origin.commit"}
    return layers


def traced(wl: SvcWorkload, seed: int, seconds: float) -> dict:
    # Each server runs half as long, so that a traced run takes about as
    # long as an untraced one.
    plain = run_server(wl, seed, seconds / 2, traced=False, setup_spawns=1)
    spans = run_server(wl, seed, seconds / 2, traced=True, setup_spawns=1)
    problems = list(plain["violations"]) + list(spans["violations"])

    rounds = spans["rounds"]
    d: Dict[str, Dict[str, float]] = {}
    for r in rounds:
        before, after = r.stats
        for layer, row in diff(after["trace"], before["trace"]).items():
            acc = d.setdefault(layer, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    ops = sum(r.rate.completed for r in rounds)
    counters = rate_counters(rounds)
    first, final = _counters(spans["first_stats"]), _counters(spans["final_stats"])

    def calls(layer):
        return d.get(layer, {}).get("calls", 0)

    def self_s(*layers):
        return sum(d.get(layer, {}).get("self_s", 0.0) for layer in layers)

    def per_call_us(layer):
        return self_s(layer) / calls(layer) * 1e6 if calls(layer) else 0.0

    for layer in sorted(expected_layers(wl)):
        if calls(layer) == 0:
            problems.append(f"wrapped boundary {layer} recorded no calls")

    traced_cpu_us = sum(r.cpu_s for r in rounds) / ops * 1e6
    plain_cpu_us = (
        sum(r.cpu_s for r in plain["rounds"])
        / sum(r.rate.completed for r in plain["rounds"]) * 1e6
    )
    origin_calls = calls("origin.fetch") + calls("origin.validate")
    origin_wait = sum(
        d.get(layer, {}).get("total_s", 0.0) - d.get(layer, {}).get("self_s", 0.0)
        for layer in ("origin.fetch", "origin.validate")
    )
    fetched = counters["cache.origin_fetches"]
    coalesced = counters["cache.coalesced_fetches"]
    inserts = calls("cache.insert")
    metrics: Dict[str, tuple] = {
        "codec.us_per_op": (self_s("codec") / ops * 1e6, "us"),
        "routing.home_region.us_per_call": (per_call_us("routing.home_region"), "us"),
        "dispatch.residual_us_per_op": (
            traced_cpu_us - self_s(*_MEASURED_LAYERS) / ops * 1e6, "us"
        ),
        "core.get.calls": (calls("core.get"), "count"),
        "core.get.self_us_per_op": (self_s("core.get") / ops * 1e6, "us"),
        "cache.hit.calls": (calls("cache.hit"), "count"),
        "cache.insert.calls": (inserts, "count"),
        "cache.insert.self_s": (self_s("cache.insert"), "s"),
        "cache.insert.us_per_call": (per_call_us("cache.insert"), "us"),
        "cache.evictions": (d.get("cache.insert", {}).get("count", 0), "count"),
        "cache.evictions_per_insert": (
            d.get("cache.insert", {}).get("count", 0) / inserts if inserts else 0.0, "ratio"
        ),
        "cache.resident_entries": (counters["cache.resident_entries"], "count"),
        "origin.fetch.calls": (calls("origin.fetch"), "count"),
        "origin.validate.calls": (calls("origin.validate"), "count"),
        "origin.wait_ms": (origin_wait / origin_calls * 1e3 if origin_calls else 0.0, "ms"),
        "origin.coalesced_ratio": (
            coalesced / (fetched + coalesced) if fetched + coalesced else 0.0, "ratio"
        ),
        "core.put.self_us": (per_call_us("core.put"), "us"),
        "consistency.apply_push.calls": (calls("consistency.apply_push"), "count"),
        "consistency.apply_push.self_us": (per_call_us("consistency.apply_push"), "us"),
        "service.shed": (final["service.shed"] - first["service.shed"], "count"),
        "resilience.deadline_exceeded": (
            final["resilience.deadline_exceeded"] - first["resilience.deadline_exceeded"],
            "count",
        ),
        "service.replica_failover": (
            final["service.replica_failover"] - first["service.replica_failover"], "count"
        ),
        "loadgen.late_p99_ms": (spans["late_p99_ms"], "ms"),
        "svc.trace.overhead": (traced_cpu_us / plain_cpu_us, "ratio"),
    }
    phases = [p for m in (plain, spans) for r in m["rounds"] for p in (r.rate, r.sat)]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if failed:
        problems.append(f"{failed} request(s) failed")
    return {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "violations": problems, "metrics": metrics,
        "detail": {"rate.ops": ops, "server.cpu_us_per_op.traced": traced_cpu_us,
                   "server.cpu_us_per_op.untraced": plain_cpu_us},
    }
