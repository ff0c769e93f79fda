"""Edge-cache service workload: a fresh server per run, an open-loop client.

The server (``python -m repro serve``, or ``svc_launcher.py`` in the
traced mode) runs pinned to one CPU; this process is the single load
generator, pinned to the other, with two connections.  All request
lines come from the workload seed before any timing starts: one
sub-seed for the warm-up, another for the measured phases.

A server's run has three parts after set-up:

* **warm-up** until every shard is full, then a Zipf stream with the
  workload's op mix;
* rounds of a **fixed-rate phase**, an open loop at the workload's
  offered rate, each request timed from the moment it was due, not from
  when it was sent, so generator lateness and client queueing are in
  the latency; followed by a **saturation phase**, a closed loop
  holding a fixed pipelined window.

Each phase is cut into short slices.  A timing is computed per slice
and reported as its fast quartile over all slices of the run (the
lower quartile of a cost, the upper quartile of a rate), so that the
host's slow spells, which last seconds, move it only when they cover
most of the run.

Every answer is checked: one answer per request, in order per
connection, echoing the request's op and key, with a known status and
a version no higher than the number of puts sent for that key.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    ROOT,
    SRC,
    BenchError,
    median,
    percentile,
    process_cpu_clock,
    split_cpus,
    vm_hwm_mb,
)

HERE = os.path.dirname(os.path.abspath(__file__))

GET_STATUSES = frozenset({
    "hit-fresh", "hit-validated", "stale-hit", "miss", "refreshed",
    "deadline", "unavailable", "overloaded",
})
PUT_STATUSES = frozenset({"updated", "overloaded", "unavailable"})
HIT_STATUSES = frozenset({"hit-fresh", "hit-validated", "stale-hit"})

#: Connections the generator opens (at most the machine's 2 CPUs).
CONNECTIONS = 2
#: Server spawns per untraced run (the measured one, then one after each
#: round); set-up time is their median.
SETUP_SPAWNS = 9
#: Length of the slices each phase is cut into (s).
SLICE_S = 0.5
#: Seconds of one (fixed-rate, saturation) phase pair.  Pairs alternate
#: through the run, so that both phases sample the whole run's time.
ROUND_S = 5.0
#: Pre-built requests per saturation phase (cycled if a phase needs more).
SAT_POOL = 50_000
#: A request unanswered this long after its phase ends is failed.
ANSWER_TIMEOUT_S = 5.0
#: A run whose generator ran later than this at p99 is invalid.  Host
#: pauses of a few ms are routine on a small shared VM; a generator that
#: cannot keep its schedule falls behind by far more.
LATE_LIMIT_MS = 10.0
#: Share of ``--seconds`` spent in fixed-rate phases (the rest saturates).
RATE_SHARE = 0.6

#: Server counters diffed across the fixed-rate phase (``stats`` op).
STAT_COUNTERS = (
    "service.get", "service.put", "cache.hits", "cache.miss",
    "cache.evictions", "cache.origin_fetches", "cache.coalesced_fetches",
    "cache.validations", "consistency.push_admitted", "service.shed",
    "resilience.deadline_exceeded", "service.replica_failover",
)


@dataclass(frozen=True)
class SvcWorkload:
    name: str
    items: int
    shards: int
    #: Per-shard capacity as a share of all database bytes.
    cache: float
    theta: float
    put_ratio: float
    origin_latency: float
    #: Offered load of the fixed-rate phase (requests per second).
    rate: float
    #: Requests in flight during the saturation phase (both connections).
    window: int
    #: Zipf-mix requests sent after the fill.
    mix_warm_ops: int

    def server_config(self, seed: int) -> Dict[str, object]:
        """``ServiceConfig`` fields of this workload's server."""
        return {
            "host": "127.0.0.1",
            "port": 0,
            "n_shards": self.shards,
            "n_items": self.items,
            "cache_fraction": self.cache,
            "seed": seed,
            "origin_latency": self.origin_latency,
            "consistency": "push-adaptive-pull",
            "deadline": 1.0,
            # Admission is not under test: the bound stays above the
            # saturation window, so no request is shed.
            "max_inflight": 256,
            # A server left behind by a killed benchmark stops itself.
            "duration": 170.0,
        }


WORKLOADS = {
    "svc-churn": SvcWorkload(
        name="svc-churn", items=40_000, shards=4, cache=0.025, theta=0.6,
        put_ratio=0.1, origin_latency=0.001, rate=300.0, window=64,
        mix_warm_ops=5000,
    ),
}

_CLI_FLAGS = {
    "host": "--host", "port": "--port", "n_shards": "--shards",
    "n_items": "--items", "cache_fraction": "--cache", "seed": "--seed",
    "origin_latency": "--origin-latency", "consistency": "--consistency",
    "deadline": "--deadline", "max_inflight": "--max-inflight",
    "duration": "--duration",
}


def server_command(config: Dict[str, object], traced: bool) -> List[str]:
    if traced:
        return [sys.executable, os.path.join(HERE, "svc_launcher.py"),
                json.dumps(config)]
    cmd = [sys.executable, "-m", "repro", "serve"]
    for field, value in config.items():
        cmd += [_CLI_FLAGS[field], str(value)]
    return cmd


# -- inputs -------------------------------------------------------------------


class Popularity:
    """Zipf(theta) popularity over a seeded permutation of the keyspace."""

    def __init__(self, rng: np.random.Generator, n_items: int, theta: float):
        weights = np.arange(1, n_items + 1, dtype=float) ** -theta
        self.cdf = np.cumsum(weights / weights.sum())
        #: Keys from most to least popular.
        self.rank_to_key = rng.permutation(n_items)

    def keys(self, rng: np.random.Generator, count: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, rng.random(count), side="right")
        return self.rank_to_key[np.minimum(ranks, len(self.cdf) - 1)]


#: One request: its wire line, op and key.
Request = Tuple[bytes, str, Optional[int]]


def requests(keys: Sequence[int], puts: Sequence[bool]) -> List[Request]:
    return [
        (b'{"op": "%s", "key": %d}\n' % (b"put" if put else b"get", key),
         "put" if put else "get", key)
        for key, put in zip(keys, puts)
    ]


def mix_requests(wl: SvcWorkload, pop: Popularity, rng: np.random.Generator,
                 count: int) -> List[Request]:
    keys = pop.keys(rng, count)
    puts = rng.random(count) < wl.put_ratio
    return requests(keys.tolist(), puts.tolist())


# -- server process -----------------------------------------------------------


class ServerProcess:
    """One server process: spawned, pinned, reaped on :meth:`stop`."""

    def __init__(self, cmd: List[str], cpu: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.t_spawn = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.stderr: List[bytes] = []
        self._reader: Optional[threading.Thread] = None
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_port(self) -> int:
        """Port from the server's ``edge-cache: ... on host:port, ...`` line."""
        fd = self.proc.stderr.fileno()
        deadline = perf_counter() + 120.0
        buf = b""
        while perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 1.0)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            buf += chunk
            for line in buf.split(b"\n")[:-1]:
                if line.startswith(b"edge-cache:") and b" on " in line:
                    self.stderr.append(buf)
                    return int(line.split(b" on ")[1].split(b",")[0].rsplit(b":", 1)[1])
        raise BenchError(f"server did not start: {buf.decode(errors='replace')[-2000:]}")

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then reap; kills after 30 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self.proc.stderr.close()
        return self.proc.returncode


# -- client -------------------------------------------------------------------


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "fifo")

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = b""
        self.fifo: deque = deque()


class PhaseResult:
    """Per-request outcomes of one phase, and its slice marks."""

    def __init__(self) -> None:
        #: (time, answers so far, server CPU seconds) at each slice start.
        self.marks: List[Tuple[float, int, float]] = []
        self.next_mark = 0.0
        self.latency: List[float] = []   # answer time - due time (s)
        self.due: List[float] = []       # due time of each answered request
        self.late: List[float] = []      # send time - due time (s)
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.gets = 0
        self.hits = 0
        self.first_send = 0.0


class Client:
    """Single-threaded open/closed-loop load generator over ``CONNECTIONS`` sockets."""

    def __init__(self, port: int, server_pid: int):
        self.server_cpu = process_cpu_clock(server_pid)
        self.conns = [_Conn(port) for _ in range(CONNECTIONS)]
        self.by_fd = {c.sock.fileno(): c for c in self.conns}
        #: Puts sent so far per key: a served version may not exceed it.
        self.puts_sent: Dict[int, int] = {}
        self.violations: List[str] = []
        self.outstanding = 0
        self.last_response: dict = {}
        self._phase: Optional[PhaseResult] = None

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    # -- sending / receiving ---------------------------------------------------

    def _send(self, conn: _Conn, request: Request, due: float, now: float) -> None:
        if request[1] == "put":
            self.puts_sent[request[2]] = self.puts_sent.get(request[2], 0) + 1
        conn.fifo.append((request, due))
        self.outstanding += 1
        phase = self._phase
        if phase is not None:
            phase.attempted += 1
            phase.late.append(now - due)
        conn.out += request[0]
        self._flush(conn)

    @staticmethod
    def _flush(conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                return
            del conn.out[:sent]

    def _pump(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` for socket events and handle them."""
        wlist = [c.sock for c in self.conns if c.out]
        readable, writable, _ = select.select(
            [c.sock for c in self.conns], wlist, [], timeout
        )
        now = perf_counter()
        for sock in readable:
            conn = self.by_fd[sock.fileno()]
            data = sock.recv(1 << 18)
            if not data:
                raise BenchError("server closed a connection")
            lines = (conn.inbuf + data).split(b"\n")
            conn.inbuf = lines.pop()
            for line in lines:
                self._answer(conn, line, now)
        for sock in writable:
            self._flush(self.by_fd[sock.fileno()])

    def _answer(self, conn: _Conn, line: bytes, now: float) -> None:
        if not conn.fifo:
            self.violations.append(f"unrequested answer {line[:200]!r}")
            return
        request, due = conn.fifo.popleft()
        self.outstanding -= 1
        try:
            self.last_response = json.loads(line)
        except ValueError:
            self.last_response = {}
        ok = self._check(request, self.last_response)
        phase = self._phase
        if phase is None:
            return
        phase.completed += 1
        # A failed request misses any latency limit: book the timeout.
        phase.latency.append(now - due if ok else ANSWER_TIMEOUT_S)
        phase.due.append(due)
        if not ok:
            phase.failed += 1
        if request[1] == "get":
            phase.gets += 1
            if self.last_response.get("status") in HIT_STATUSES:
                phase.hits += 1

    def _check(self, request: Request, response: dict) -> bool:
        """True when the answer served the request; records violations."""
        _, op, key = request
        if op not in ("get", "put"):
            return bool(response.get("ok"))
        problems = []
        if response.get("op") != op or response.get("key") != key:
            problems.append("does not echo op/key")
        statuses = GET_STATUSES if op == "get" else PUT_STATUSES
        if response.get("status") not in statuses:
            problems.append("unknown status")
        version = response.get("version", 0)
        if version > self.puts_sent.get(key, 0):
            problems.append(f"version {version} > {self.puts_sent.get(key, 0)} puts sent")
        if problems:
            self.violations.append(
                f"{request[0].strip()!r} -> {response!r}: {', '.join(problems)}"
            )
            return False
        return bool(response.get("ok"))

    def _drain(self) -> None:
        """Wait until every request sent so far is answered."""
        deadline = perf_counter() + ANSWER_TIMEOUT_S
        while self.outstanding and perf_counter() < deadline:
            self._pump(deadline - perf_counter())
        if self.outstanding:
            self.violations.append(f"{self.outstanding} request(s) never answered")
            if self._phase is not None:
                self._phase.failed += self.outstanding
            raise BenchError("requests left unanswered")

    def _mark(self, phase: Optional[PhaseResult], now: float, force: bool = False) -> None:
        """Mark a slice boundary of ``phase`` once one is due."""
        if phase is not None and (force or now >= phase.next_mark):
            phase.marks.append((now, phase.completed, time.clock_gettime(self.server_cpu)))
            phase.next_mark = now + SLICE_S

    # -- phases ----------------------------------------------------------------

    def call(self, request: dict) -> dict:
        """One request on the first connection, answered before returning."""
        now = perf_counter()
        line = json.dumps(request).encode() + b"\n"
        self._send(self.conns[0], (line, request["op"], None), now, now)
        self._drain()
        return self.last_response

    def window(self, reqs: Sequence[Request], window: int, seconds: Optional[float],
               phase: Optional[PhaseResult] = None) -> None:
        """Closed loop: keep ``window`` requests in flight.

        Sends every request once when ``seconds`` is None, else cycles
        through ``reqs`` until ``seconds`` have passed.
        """
        self._phase = phase
        start = perf_counter()
        self._mark(phase, start)
        end = None if seconds is None else start + seconds
        i, n = 0, len(reqs)
        while True:
            now = perf_counter()
            if (end is None and i >= n) or (end is not None and now >= end):
                break
            while self.outstanding < window and (end is not None or i < n):
                conn = self.conns[i % CONNECTIONS]
                self._send(conn, reqs[i % n], now, now)
                i += 1
            # Block until answers arrive: the window keeps the server fed,
            # and a spinning generator would contend with it for the host.
            self._pump(None)
            self._mark(phase, perf_counter())
        self._drain()
        self._mark(phase, perf_counter(), force=True)
        self._phase = None

    def open_loop(self, reqs: Sequence[Request], rate: float,
                  phase: PhaseResult) -> None:
        """Open loop: request ``i`` is due ``i / rate`` s after the start."""
        self._phase = phase
        interval = 1.0 / rate
        start = perf_counter() + 0.01
        phase.first_send = phase.next_mark = start
        i, n = 0, len(reqs)
        while i < n:
            now = perf_counter()
            while i < n and start + i * interval <= now:
                self._send(self.conns[i % CONNECTIONS], reqs[i], start + i * interval, now)
                i += 1
            if i < n:
                # Sleep until the next request is due (select() takes a
                # microsecond timeout): a spinning generator would contend
                # with the server for the host's cores.
                self._pump(max(0.0, start + i * interval - perf_counter()))
            self._mark(phase, perf_counter())
        self._drain()
        self._mark(phase, perf_counter(), force=True)
        self._phase = None


# -- one server run -------------------------------------------------------------


def _stats(client: Client) -> dict:
    response = client.call({"op": "stats"})
    if not response.get("ok"):
        raise BenchError(f"stats op failed: {response}")
    return response


def _counters(stats: dict) -> Dict[str, float]:
    tel = stats["telemetry"]
    out = {name: float(tel.get(name, 0.0)) for name in STAT_COUNTERS}
    out["cache.resident_entries"] = sum(
        v for k, v in tel.items() if k.startswith("cache.region") and k.endswith(".entries")
    )
    return out


def _shard_bytes(stats: dict) -> List[float]:
    tel = stats["telemetry"]
    return [v for k, v in sorted(tel.items())
            if k.startswith("cache.region") and k.endswith(".bytes")]


def _warm(client: Client, wl: SvcWorkload, seed: int, pop: Popularity,
          rng: np.random.Generator) -> None:
    """Fill every shard with the most popular keys, then send a Zipf mix."""
    from repro.workload.database import Database  # the server's own sizes

    order = pop.rank_to_key.tolist()
    db = Database(wl.items, np.random.default_rng(seed))
    capacity = db.total_bytes * wl.cache
    largest = max(item.size_bytes for item in db.items)
    chunk = 2000
    for lo in range(0, wl.items, chunk):
        client.window(requests(order[lo:lo + chunk], [False] * chunk), wl.window, None)
        if all(capacity - used < largest for used in _shard_bytes(_stats(client))):
            break
    else:
        raise BenchError(f"{wl.name}: shards never filled during warm-up")
    client.window(mix_requests(wl, pop, rng, wl.mix_warm_ops), wl.window, None)


def _slices(phase: PhaseResult) -> List[Tuple[float, int, float]]:
    """(seconds, answers, server CPU seconds) of each slice of ``phase``.

    A last slice shorter than half a slice is dropped.
    """
    return [
        (t1 - t0, n1 - n0, c1 - c0)
        for (t0, n0, c0), (t1, n1, c1) in zip(phase.marks, phase.marks[1:])
        if t1 - t0 >= SLICE_S / 2 and n1 > n0
    ]


@dataclass
class Round:
    """One fixed-rate phase followed by one saturation phase."""

    rate: PhaseResult
    sat: PhaseResult
    #: ``stats`` answers just before and just after the fixed-rate phase.
    stats: Tuple[dict, dict]

    @property
    def cpu_s(self) -> float:
        """Server CPU seconds over the fixed-rate phase."""
        return self.rate.marks[-1][2] - self.rate.marks[0][2]

    def cpu_us_per_op(self) -> List[float]:
        """Server CPU per answered request, per slice of the fixed-rate phase."""
        return [c / n * 1e6 for _, n, c in _slices(self.rate)]

    def sat_ops_per_s(self) -> List[float]:
        """Answers per second, per slice of the saturation phase."""
        return [n / t for t, n, _ in _slices(self.sat)]

    def p75_ms(self) -> List[float]:
        """75th-percentile latency of the requests due in each slice of the
        fixed-rate phase."""
        by_slice: Dict[int, List[float]] = {}
        for due, latency in zip(self.rate.due, self.rate.latency):
            by_slice.setdefault(int((due - self.rate.first_send) / SLICE_S),
                                []).append(latency)
        return [percentile(v, 0.75) * 1e3 for v in by_slice.values() if len(v) >= 8]


def run_server(wl: SvcWorkload, seed: int, seconds: float, traced: bool,
               setup_spawns: int) -> dict:
    """Set up, warm, and measure one server; returns the raw measurements."""
    affinity = os.sched_getaffinity(0)
    cpu_server, cpu_client = split_cpus()
    os.sched_setaffinity(0, {cpu_client})
    config = wl.server_config(seed)
    cmd = server_command(config, traced)
    n_rounds = max(1, round(seconds / ROUND_S))
    rate_s = seconds * RATE_SHARE / n_rounds
    sat_s = seconds * (1.0 - RATE_SHARE) / n_rounds
    # One popularity model; separate draws for warm-up and measurement.
    pop = Popularity(np.random.default_rng([seed, 0]), wl.items, wl.theta)
    warm_rng = np.random.default_rng([seed, 1])
    meas_rng = np.random.default_rng([seed, 2])
    n_rate = int(wl.rate * rate_s)
    rate_reqs = [mix_requests(wl, pop, meas_rng, n_rate) for _ in range(n_rounds)]
    sat_reqs = [mix_requests(wl, pop, meas_rng, SAT_POOL) for _ in range(n_rounds)]

    # The generator's own collector must not stall the schedule: freeze
    # the pre-built inputs out of its reach and pause it while measuring.
    gc.collect()
    gc.freeze()
    setup: List[float] = []
    server = ServerProcess(cmd, cpu_server)
    client = None
    rounds: List[Round] = []
    try:
        client = _ping(server, setup)
        _warm(client, wl, seed, pop, warm_rng)
        gc.disable()
        for r in range(n_rounds):
            if r:
                # The measured server moves to the currently faster CPU.
                cpu_server, cpu_client = split_cpus(affinity)
                os.sched_setaffinity(server.pid, {cpu_server})
                os.sched_setaffinity(0, {cpu_client})
            before = _stats(client)
            rate = PhaseResult()
            client.open_loop(rate_reqs[r], wl.rate, rate)
            after = _stats(client)
            sat = PhaseResult()
            client.window(sat_reqs[r], wl.window, sat_s, sat)
            rounds.append(Round(rate, sat, (before, after)))
            # More set-ups, spread over the run like its slices, while
            # the measured server idles between rounds.
            if len(setup) < setup_spawns:
                _setup_once(cmd, cpu_server, setup)
        while len(setup) < setup_spawns:
            _setup_once(cmd, cpu_server, setup)
        final = _stats(client)
        rss = vm_hwm_mb(server.pid)
    finally:
        gc.enable()
        gc.unfreeze()
        os.sched_setaffinity(0, affinity)
        if client is not None:
            client.close()
        code = server.stop()
    if code != 0:
        raise BenchError(f"server exited with {code}: {b''.join(server.stderr)[-2000:]!r}")
    late = _late_p99_ms(rounds)
    if late > LATE_LIMIT_MS:
        raise BenchError(f"generator ran {late:.2f} ms late at p99 (limit {LATE_LIMIT_MS} ms)")
    return {
        "setup": setup, "rounds": rounds, "first_stats": rounds[0].stats[0],
        "final_stats": final, "rss_mb": rss, "late_p99_ms": late,
        "violations": client.violations,
    }


def _setup_once(cmd: List[str], cpu: int, setup: List[float]) -> None:
    """Spawn a server, time it to its first answered ``ping``, stop it."""
    server = ServerProcess(cmd, cpu)
    try:
        _ping(server, setup).close()
    finally:
        server.stop()


def _ping(server: ServerProcess, setup: List[float]) -> Client:
    client = Client(server.port, server.pid)
    if not client.call({"op": "ping"}).get("ok"):
        client.close()
        raise BenchError("ping failed")
    setup.append(perf_counter() - server.t_spawn)
    return client


def _late_p99_ms(rounds: Sequence[Round]) -> float:
    return percentile([x for r in rounds for x in r.rate.late], 0.99) * 1e3


def rate_counters(rounds: Sequence[Round]) -> Dict[str, float]:
    """Server counters summed over the fixed-rate phases."""
    total = dict.fromkeys(STAT_COUNTERS, 0.0)
    for r in rounds:
        before, after = (_counters(s) for s in r.stats)
        for name in STAT_COUNTERS:
            total[name] += after[name] - before[name]
    total["cache.resident_entries"] = _counters(rounds[-1].stats[1])["cache.resident_entries"]
    return total


def end_to_end(wl: SvcWorkload, seed: int, seconds: float) -> dict:
    m = run_server(wl, seed, seconds, traced=False, setup_spawns=SETUP_SPAWNS)
    rounds: List[Round] = m["rounds"]
    phases = [p for r in rounds for p in (r.rate, r.sat)]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    # The fixed-rate phases send the same requests whatever the host's
    # speed, so their hit ratio depends on the seed alone.
    gets = sum(r.rate.gets for r in rounds)
    hits = sum(r.rate.hits for r in rounds)
    latency = [x for r in rounds for x in r.rate.latency]
    sat_rates = [x for r in rounds for x in r.sat_ops_per_s()]
    cpu_us = [x for r in rounds for x in r.cpu_us_per_op()]
    p75s = [x for r in rounds for x in r.p75_ms()]
    detail = rate_counters(rounds)
    detail.update({
        "rounds": len(rounds),
        "rate.ops": sum(r.rate.completed for r in rounds),
        "rate.offered_per_s": wl.rate,
        "rate.p50_ms": percentile(latency, 0.50) * 1e3,
        "rate.p90_ms": percentile(latency, 0.90) * 1e3,
        "rate.p99_ms": percentile(latency, 0.99) * 1e3,
        "rate.cpu_us_per_op": sum(r.cpu_s for r in rounds) / len(latency) * 1e6,
        "sat.ops": sum(r.sat.completed for r in rounds),
        "slices.rate": len(cpu_us), "slices.sat": len(sat_rates),
        "med.ops_per_s": median(sat_rates), "med.cpu_us_per_op": median(cpu_us),
        "med.p75_ms": median(p75s),
        "loadgen.late_p99_ms": m["late_p99_ms"],
    })

    metrics = {
        "setup_s": (median(m["setup"]), "s"),
        "ops_per_s": (percentile(sat_rates, 0.75), "1/s"),
        "cpu_us_per_op": (percentile(cpu_us, 0.25), "us"),
        "p75_ms": (percentile(p75s, 0.25), "ms"),
        "hit_ratio": (hits / gets, "ratio"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (m["rss_mb"], "MB"),
    }
    return {
        "correct": not m["violations"], "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail, "violations": m["violations"],
    }
