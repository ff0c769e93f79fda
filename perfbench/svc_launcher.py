"""Traced edge-cache server: wraps the service layers, then runs the server.

Usage: ``python3 perfbench/svc_launcher.py '<ServiceConfig fields as JSON>'``
with ``src/`` on ``PYTHONPATH``.  Behaves like ``repro serve`` (same
start-up line on stderr, same signals, same wire protocol), except that
spans time the public calls into each service layer and the ``stats``
op's answer carries the span ledger under ``"trace"``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanLedger, count_evictions  # noqa: E402


class _TimedJson:
    """Stands in for the ``json`` module the server encodes and decodes with."""

    def __init__(self, ledger: SpanLedger):
        self.loads = ledger.span("codec", json.loads)
        self.dumps = ledger.span("codec", json.dumps)


def install_service_spans(ledger: SpanLedger) -> None:
    from repro.core.cache import PeerCache
    from repro.service import server as server_module
    from repro.service.core import CacheResponse, CacheService
    from repro.service.origin import InMemoryOrigin
    from repro.service.routing import ShardDirectory

    ledger.wrap_class(CacheService, "core.get", ["get"])
    ledger.wrap_class(CacheService, "core.put", ["put"])
    ledger.wrap_class(CacheService, "consistency.apply_push", ["apply_push"])
    ledger.wrap_class(PeerCache, "cache.insert", ["insert"], on_result=count_evictions)
    ledger.wrap_class(PeerCache, "cache.hit", ["hit"])
    ledger.wrap_class(InMemoryOrigin, "origin.fetch", ["fetch"])
    ledger.wrap_class(InMemoryOrigin, "origin.validate", ["validate"])
    ledger.wrap_class(InMemoryOrigin, "origin.commit", ["commit"])
    ledger.wrap_class(ShardDirectory, "routing.home_region", ["home_region"])
    ledger.wrap_class(ShardDirectory, "routing", ["replica_region", "key_distance"])
    ledger.wrap_class(CacheResponse, "codec", ["to_dict"])
    server_module.json = _TimedJson(ledger)

    describe = server_module.EdgeCacheServer.describe

    def describe_with_trace(self):
        out = describe(self)
        out["trace"] = ledger.snapshot()
        return out

    server_module.EdgeCacheServer.describe = describe_with_trace


def main(argv) -> int:
    from repro.service import EdgeCacheServer, ServiceConfig

    install_service_spans(SpanLedger(per_task=True))
    return EdgeCacheServer(ServiceConfig(**json.loads(argv[0]))).run()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
