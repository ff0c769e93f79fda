"""``sim-mobile``: host cost of the simulator on the pinned kernel shape.

Each run simulates scenarios from a sequence derived from ``--seed``,
in order, until it has spent ``--seconds`` on them: 60 random-waypoint
nodes at up to 6 m/s on 1200 x 1200 m, 9 regions,
Push-with-Adaptive-Pull, 1 s GPSR beacons, 5 % caches (the shape of the
``kernel`` scenario of ``repro bench``).  One scenario's host time varies
by about 15 % from seed to seed, so a run pools many short scenarios
instead of one long one.  Every simulated statistic of a scenario is
fixed by its seed; only host time can move.

Measured per scenario: ``PReCinCtNetwork(cfg)`` construction (set-up),
and ``net.run()`` stepped one simulated second at a time through the
public ``Simulator.run(until=...)``, so the host time of every simulated
second is a latency sample.  Stepping leaves the run unchanged: the
first scenario is re-run unstepped on the reference kernel
(``fast_kernel=False``) and the two report digests must match.

Each timing is computed per scenario and reported as its fast quartile
over the run's scenarios (the lower quartile of a cost, the upper
quartile of a rate), so that the host's slow spells move it only when
they cover most of the run; set-up time is the median construction.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from time import perf_counter
from typing import Dict, List

import numpy as np

from common import (
    BenchError,
    load_digests,
    median,
    percentile,
    save_digests,
    split_cpus,
    vm_hwm_mb,
)
from spans import SpanLedger, count_evictions, diff, public_methods, subclasses

#: Simulated seconds per scenario.
SCENARIO_S = 100.0
#: Upper limit on scenarios per benchmark second (``--seconds``); a run
#: simulates the scenarios of its seed in order until it has spent
#: ``--seconds`` on them (about two per second on a 2-vCPU x86 host).
MAX_SCENARIOS_PER_S = 8.0
#: Scenarios between two choices of the faster CPU.
REPICK_EVERY = 4
#: Scenarios the traced mode runs (untraced and traced, in pairs).
TRACED_SCENARIOS = 2


def base_config():
    from repro.config import SimulationConfig

    return SimulationConfig(
        n_nodes=60,
        n_items=240,
        width=1200.0,
        height=1200.0,
        n_regions=9,
        max_speed=6.0,
        duration=SCENARIO_S,
        warmup=20.0,
        t_request=10.0,
        t_update=60.0,
        consistency="push-adaptive-pull",
        cache_fraction=0.05,
        gpsr_beacon_interval=1.0,
    )


def scenario_seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _build(cfg):
    from repro.core.network import PReCinCtNetwork

    t0 = perf_counter()
    net = PReCinCtNetwork(cfg)
    return net, perf_counter() - t0


def _digest(report) -> str:
    from repro.faults.audit import report_digest

    return report_digest(report)


def _stepped_run(net, steps: List[float]):
    """``net.run()`` with the engine advanced one simulated second per call."""
    run_until = net.sim.run

    def stepped(until=None, max_events=None):
        if until is None or max_events is not None:
            raise BenchError("unexpected Simulator.run arguments")
        for second in range(1, math.ceil(until) + 1):
            t0 = perf_counter()
            run_until(until=min(float(second), until))
            steps.append(perf_counter() - t0)

    net.sim.run = stepped
    try:
        return net.run()
    finally:
        del net.sim.run


def _warm_up() -> None:
    """One short untimed scenario: lazy imports and first-call costs."""
    net, _ = _build(replace(base_config(), duration=10.0, warmup=2.0, seed=0))
    net.run()


def _check_digest(digests: Dict[str, str], key: str, digest: str, problems: List[str]) -> None:
    known = digests.setdefault(key, digest)
    if known != digest:
        problems.append(f"{key}: digest {digest[:12]} differs from earlier run's {known[:12]}")


def end_to_end(seed: int, seconds: float) -> dict:
    cfg0 = base_config()
    seeds = scenario_seeds(seed, max(2, math.ceil(seconds * MAX_SCENARIOS_PER_S)))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {split_cpus(allowed)[0]})
    _warm_up()
    setup, steps, digests, byte_hits = [], [], [], []
    #: Per scenario: events/s, CPU us per event, 75th-percentile step (ms).
    rates, cpu_us, p75s = [], [], []
    wall = 0.0
    events = issued = served = 0
    start = perf_counter()
    for i, sub in enumerate(seeds):
        if i >= 2 and perf_counter() - start >= seconds:
            seeds = seeds[:i]
            break
        if i and i % REPICK_EVERY == 0:
            os.sched_setaffinity(0, {split_cpus(allowed)[0]})
        net, build_s = _build(replace(cfg0, seed=sub))
        setup.append(build_s)
        scenario_steps: List[float] = []
        c0, t0 = time.process_time(), perf_counter()
        report = _stepped_run(net, scenario_steps)
        scenario_wall = perf_counter() - t0
        n = net.sim.events_executed
        rates.append(n / scenario_wall)
        cpu_us.append((time.process_time() - c0) / n * 1e6)
        p75s.append(percentile(scenario_steps, 0.75) * 1e3)
        steps += scenario_steps
        wall += scenario_wall
        events += n
        issued += report.requests_issued
        served += report.requests_served
        byte_hits.append(report.byte_hit_ratio)
        digests.append(_digest(report))
    rss = vm_hwm_mb(os.getpid())

    problems: List[str] = []
    reference, _ = _build(replace(cfg0, seed=seeds[0], fast_kernel=False))
    ref_digest = _digest(reference.run())
    if ref_digest != digests[0]:
        problems.append(
            f"scenario {seeds[0]}: stepped fast-kernel digest {digests[0][:12]} "
            f"!= reference-kernel digest {ref_digest[:12]}"
        )
    known = load_digests()
    for sub, digest in zip(seeds, digests):
        _check_digest(known, f"sim-mobile/{sub}/{SCENARIO_S:g}", digest, problems)
    save_digests(known)

    return {
        "correct": not problems,
        "attempted": len(seeds) + 1,
        "failed": len(problems),
        "violations": problems,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "ops_per_s": (percentile(rates, 0.75), "1/s"),
            "cpu_us_per_op": (percentile(cpu_us, 0.25), "us"),
            "p75_ms": (percentile(p75s, 0.25), "ms"),
            "hit_ratio": (float(np.mean(byte_hits)), "ratio"),
            "success_ratio": (served / issued, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        },
        "detail": {
            "sim.wall_s": wall, "sim.scenarios": len(seeds),
            "med.ops_per_s": median(rates),
            "med.cpu_us_per_op": median(cpu_us), "med.p75_ms": median(p75s),
            "sim.simulated_s": len(seeds) * SCENARIO_S, "engine.events": events,
            "sim.steps": len(steps), "sim.step_p50_ms": percentile(steps, 0.50) * 1e3,
            "sim.step_p90_ms": percentile(steps, 0.90) * 1e3,
            "sim.step_p99_ms": percentile(steps, 0.99) * 1e3,
            "requests.issued": issued,
            "requests.served": served,
        },
    }


# -- traced mode ----------------------------------------------------------------

#: Span layers of the traced mode; each must record calls on sim-mobile.
SIM_LAYERS = (
    "engine", "net.broadcast", "net.unicast", "net.topology", "routing.gpsr",
    "routing.flood", "energy", "mobility", "peer", "peer.request",
    "consistency", "cache.insert",
)


def install_sim_spans(ledger: SpanLedger) -> None:
    """Wrap each simulator layer's public methods on their classes."""
    from repro.core.cache import PeerCache
    from repro.core.consistency import ConsistencyScheme
    from repro.core.peer import Peer
    from repro.energy.model import EnergyLedger
    from repro.mobility.base import MobilityModel
    from repro.net.network import WirelessNetwork
    from repro.net.topology import SpatialGrid
    from repro.routing.flooding import Flooder
    from repro.routing.gpsr import GpsrRouter
    from repro.sim.engine import Simulator

    ledger.wrap_class(Simulator, "engine", ["run"])
    ledger.wrap_class(WirelessNetwork, "net.broadcast", ["broadcast"])
    ledger.wrap_class(WirelessNetwork, "net.unicast", ["unicast"])
    ledger.wrap_class(SpatialGrid, "net.topology", ["rebuild", "neighbors_of", "within_range"])
    ledger.wrap_class(GpsrRouter, "routing.gpsr", ["send", "handle"])
    ledger.wrap_class(Flooder, "routing.flood", ["flood", "handle", "handle_batch"])
    ledger.wrap_class(
        EnergyLedger, "energy",
        [n for n in public_methods(EnergyLedger) if n.startswith("charge_")],
    )
    for cls in subclasses(MobilityModel):
        ledger.wrap_class(cls, "mobility", ["positions_at"])
    ledger.wrap_class(Peer, "peer.request", ["request"])
    ledger.wrap_class(Peer, "peer", [n for n in public_methods(Peer) if n != "request"])
    for cls in subclasses(ConsistencyScheme):
        ledger.wrap_class(cls, "consistency", public_methods(cls))
    ledger.wrap_class(PeerCache, "cache.insert", ["insert"], on_result=count_evictions)


def traced(seed: int, seconds: float) -> dict:
    """Per-layer spans of the first scenarios, against an untraced pass."""
    cfg0 = base_config()
    seeds = scenario_seeds(seed, TRACED_SCENARIOS)
    os.sched_setaffinity(0, {split_cpus()[0]})
    _warm_up()
    untraced_wall, untraced_digests = 0.0, []
    for sub in seeds:
        net, _ = _build(replace(cfg0, seed=sub))
        t0 = perf_counter()
        untraced_digests.append(_digest(net.run()))
        untraced_wall += perf_counter() - t0

    ledger = SpanLedger()
    install_sim_spans(ledger)
    try:
        totals: Dict[str, Dict[str, float]] = {}
        traced_wall, events, problems = 0.0, 0, []
        for sub, want in zip(seeds, untraced_digests):
            net, _ = _build(replace(cfg0, seed=sub))
            before = ledger.snapshot()
            t0 = perf_counter()
            digest = _digest(net.run())
            traced_wall += perf_counter() - t0
            events += net.sim.events_executed
            for layer, row in diff(ledger.snapshot(), before).items():
                acc = totals.setdefault(layer, dict.fromkeys(row, 0))
                for k, v in row.items():
                    acc[k] += v
            if digest != want:
                problems.append(f"scenario {sub}: traced digest differs from untraced")
    finally:
        ledger.unwrap_all()

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    def self_s(*layers):
        return sum(totals.get(layer, {}).get("self_s", 0.0) for layer in layers)

    for layer in SIM_LAYERS:
        if calls(layer) == 0:
            problems.append(f"wrapped boundary {layer} recorded no calls")
    engine_total = totals.get("engine", {}).get("total_s", 0.0)
    named = self_s(*(layer for layer in SIM_LAYERS if layer != "engine"))
    metrics = {
        "engine.events": (events, "count"),
        "engine.self_s": (self_s("engine"), "s"),
        "engine.host_us_per_event": (self_s("engine") / events * 1e6, "us"),
        "net.broadcast.calls": (calls("net.broadcast"), "count"),
        "net.broadcast.self_s": (self_s("net.broadcast"), "s"),
        "net.unicast.calls": (calls("net.unicast"), "count"),
        "net.unicast.self_s": (self_s("net.unicast"), "s"),
        "net.topology.self_s": (self_s("net.topology"), "s"),
        "routing.gpsr.calls": (calls("routing.gpsr"), "count"),
        "routing.gpsr.self_s": (self_s("routing.gpsr"), "s"),
        "routing.flood.calls": (calls("routing.flood"), "count"),
        "routing.flood.self_s": (self_s("routing.flood"), "s"),
        "energy.charges": (calls("energy"), "count"),
        "energy.self_s": (self_s("energy"), "s"),
        "mobility.self_s": (self_s("mobility"), "s"),
        "peer.requests": (calls("peer.request"), "count"),
        "peer.self_s": (self_s("peer", "peer.request"), "s"),
        "consistency.self_s": (self_s("consistency"), "s"),
        "cache.insert.calls": (calls("cache.insert"), "count"),
        "cache.insert.self_s": (self_s("cache.insert"), "s"),
        "cache.insert.us_per_call": (
            self_s("cache.insert") / calls("cache.insert") * 1e6, "us"
        ),
        "cache.evictions": (totals.get("cache.insert", {}).get("count", 0), "count"),
        "cache.evictions_per_insert": (
            totals.get("cache.insert", {}).get("count", 0) / calls("cache.insert"), "ratio"
        ),
        "sim.trace.coverage": (named / engine_total if engine_total else 0.0, "ratio"),
        "sim.trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }
    return {
        "correct": not problems,
        "attempted": len(seeds),
        "failed": len(problems),
        "violations": problems,
        "metrics": metrics,
        "detail": {"sim.untraced_wall_s": untraced_wall, "sim.traced_wall_s": traced_wall},
    }
