"""Benchmark entry point: one workload, untraced or traced, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-mobile --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload once untraced and once with spans
around each layer's public calls and prints the per-layer metrics.
The last line of standard output is the result object; lines before it
are details (counts with their bases) for a human reader.  The exit
code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from typing import Dict

from common import ROOT, BenchError, use_checkout_sources

def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _declared(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    return {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}


def _result(out: dict, trace: bool) -> dict:
    """The result object: every declared metric as ``{"value", "unit"}``.

    A traced run reports 0 for the per-layer rows of layers its workload
    never calls (the simulator's engine on a service workload, say).
    End-to-end metrics must all be measured.
    """
    measured = out["metrics"]
    metrics = {}
    for name, unit in _declared(trace).items():
        if name not in measured:
            if not trace:
                raise BenchError(f"end-to-end metric {name} was not measured")
            measured[name] = (0.0, unit)
        value, got_unit = measured[name]
        if got_unit != unit:
            raise BenchError(f"{name} measured in {got_unit}, declared in {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    undeclared = sorted(set(measured) - set(metrics))
    if undeclared:
        raise BenchError(f"undeclared metrics {undeclared}")
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in _spec()["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        use_checkout_sources()
        if args.workload == "sim-mobile":
            import sim_bench as bench

            run = bench.traced if args.trace else bench.end_to_end
            out = run(args.seed, args.seconds)
        else:
            import svc_bench as bench
            import svc_trace

            wl = bench.WORKLOADS[args.workload]
            run = svc_trace.traced if args.trace else bench.end_to_end
            out = run(wl, args.seed, args.seconds)
        if args.trace:
            from probes import run_probes

            out["metrics"].update((k, (v, "us")) for k, v in run_probes().items())
        result = _result(out, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 1
    for problem in out.get("violations", [])[:20]:
        print(f"violation: {problem}", file=sys.stderr)
    print(json.dumps({"detail": out.get("detail", {})}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
