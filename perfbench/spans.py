"""Span ledger: times calls into a layer's public methods from outside.

``SpanLedger.wrap_class`` replaces methods on a class with wrappers that
record, per layer name, the call count, the total (inclusive) time and
the self time: the span's duration minus the part its child spans cover.
With ``per_task=True`` spans nest on a stack kept per asyncio task, so
requests that overlap on an event loop never subtract from each other;
otherwise one stack serves the (synchronous) caller.

Coroutine methods are timed step by step: each resumption of the
coroutine is one slice of on-CPU time, so a span that waits on the
origin books its waiting as ``total - self``, not as self time.

Wrap classes *before* building the objects that use them: an object
that stored a bound method earlier keeps the unwrapped one.  The
``calls`` counts let a caller check that every boundary it wrapped was
reached.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["SpanLedger", "count_evictions", "diff", "public_methods", "subclasses"]


class SpanLedger:
    """Per-layer call counts, total and self seconds (see module doc)."""

    def __init__(self, per_task: bool = False) -> None:
        self.per_task = per_task
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Extra per-layer counters derived from return values.
        self.counts: Dict[str, int] = defaultdict(int)
        self._stacks: Dict[object, List[float]] = {}
        self._wrapped: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _enter(self):
        key = asyncio.current_task() if self.per_task else None
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        stack.append(0.0)
        return key, stack

    def _leave(self, key, stack: List[float], layer: str, elapsed: float) -> None:
        self.self_s[layer] += elapsed - stack.pop()
        if stack:
            stack[-1] += elapsed
        elif key is not None:
            del self._stacks[key]

    def span(self, layer: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a span of ``layer``."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                return await self._steps(layer, fn(*args, **kwargs))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key, stack = self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self._leave(key, stack, layer, elapsed)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    @types.coroutine
    def _steps(self, layer: str, coro):
        """Drive ``coro`` to completion, timing each step as self time."""
        start = perf_counter()
        value, error = None, None
        try:
            while True:
                key, stack = self._enter()
                t0 = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._leave(key, stack, layer, perf_counter() - t0)
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # relayed into the coroutine
                    value, error = None, exc
        finally:
            self.calls[layer] += 1
            self.total_s[layer] += perf_counter() - start

    def wrap_class(
        self,
        cls: type,
        layer: str,
        names: Iterable[str],
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``cls.<name>`` for each name the class itself defines."""
        for name in names:
            fn = cls.__dict__.get(name)
            if not inspect.isfunction(fn):
                continue
            self._wrapped.append((cls, name, fn))
            setattr(cls, name, self.span(layer, fn, on_result))

    def unwrap_all(self) -> None:
        """Restore every method this ledger replaced."""
        for cls, name, fn in reversed(self._wrapped):
            setattr(cls, name, fn)
        self._wrapped.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        layers = set(self.calls) | set(self.counts)
        return {
            layer: {
                "calls": self.calls.get(layer, 0),
                "total_s": self.total_s.get(layer, 0.0),
                "self_s": self.self_s.get(layer, 0.0),
                "count": self.counts.get(layer, 0),
            }
            for layer in sorted(layers)
        }


def count_evictions(ledger: SpanLedger, evicted) -> None:
    """``on_result`` hook of ``PeerCache.insert``: it returns the evicted keys."""
    ledger.counts["cache.insert"] += len(evicted)


def public_methods(cls: type) -> List[str]:
    """Names of the plain public functions ``cls`` defines itself."""
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass of it imported so far."""
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def diff(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]):
    """``after - before`` of two :meth:`SpanLedger.snapshot` results."""
    return {
        layer: {k: v - before.get(layer, {}).get(k, 0) for k, v in row.items()}
        for layer, row in after.items()
    }
