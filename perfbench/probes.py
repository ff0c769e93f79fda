"""In-process layer probes: single public calls timed on synthetic state.

* ``probe.cache.evicting_insert_us.n{100,1000,10000}`` — one
  ``PeerCache.insert`` that evicts exactly one entry from a full cache of
  that many resident entries (median over repetitions);
* ``probe.core.hit_us`` / ``probe.core.miss_us`` — one ``CacheService.get``
  on a ``ManualClock`` with an instant origin, answered from the cache or
  fetched and admitted without eviction.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Dict, List

import numpy as np

from common import BenchError, median

#: Resident entries of the evicting-insert probes.
EVICTING_SIZES = (100, 1000, 10_000)
#: Timed calls per probe (fewer at 10^4, where one call is ~1 ms).
REPS = {100: 2000, 1000: 500, 10_000: 100}
CORE_KEYS = 2000


def evicting_insert_us(resident: int, reps: int) -> float:
    from repro.core.cache import CachedCopy, PeerCache

    rng = np.random.default_rng(resident)
    size = 1000.0
    cache = PeerCache(capacity_bytes=resident * size)

    def entry(key: int) -> CachedCopy:
        return CachedCopy(
            key=key, size_bytes=size, version=0,
            access_count=int(rng.integers(1, 50)),
            region_distance=float(rng.uniform(0.0, 1500.0)),
        )

    for key in range(resident):
        cache.insert(entry(key), float(key))
    times: List[float] = []
    for j in range(reps):
        new = entry(resident + j)
        t0 = perf_counter()
        evicted = cache.insert(new, float(resident + j))
        times.append(perf_counter() - t0)
        if len(evicted) != 1:
            raise BenchError(f"probe insert evicted {len(evicted)} entries, expected 1")
    return median(times) * 1e6


async def _core_gets() -> Dict[str, float]:
    from repro.core.consistency import PushAdaptivePull
    from repro.service.clock import ManualClock
    from repro.service.core import CacheService
    from repro.service.origin import InMemoryOrigin
    from repro.service.routing import ShardDirectory
    from repro.workload.database import Database

    db = Database(CORE_KEYS, np.random.default_rng(0))
    scheme = PushAdaptivePull()
    for item in db.items:
        item.ttr = scheme.initial_ttr(item)
    service = CacheService(
        0, db.total_bytes, clock=ManualClock(), directory=ShardDirectory(1),
        origin=InMemoryOrigin(db, latency=0.0), scheme=scheme,
    )
    out = {}
    for name, status in (("miss", "miss"), ("hit", "hit-fresh")):
        times = []
        for key in range(CORE_KEYS):
            t0 = perf_counter()
            response = await service.get(key)
            times.append(perf_counter() - t0)
            if response.status != status:
                raise BenchError(f"probe get {key}: {response.status}, expected {status}")
        out[name] = median(times) * 1e6
    return out


def run_probes() -> Dict[str, float]:
    out = {
        f"probe.cache.evicting_insert_us.n{n}": evicting_insert_us(n, REPS[n])
        for n in EVICTING_SIZES
    }
    core = asyncio.run(_core_gets())
    out["probe.core.hit_us"] = core["hit"]
    out["probe.core.miss_us"] = core["miss"]
    return out
