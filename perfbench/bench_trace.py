"""Outside-in layer tracing: wrap public functions, keep a self-time ledger.

The benchmark measures where host time goes without editing the program:
:meth:`Tracer.install` replaces public functions of each layer (listed in
``layers.json``) by wrappers that open a span around every call, and puts
the originals back when the pass ends.

* A plain function's span is the call.
* A generator (coroutine) function returns a forwarding generator that
  follows PEP 380: ``send``, ``throw`` and ``close`` reach the inner
  generator, its return value becomes the wrapper's return value, and each
  resume of the inner generator is one span.  Resumes nest the way the
  coroutine calls do, so one stack of open spans serves both kinds.

A layer's self time is the summed duration of its spans minus the time
their child spans cover.  Wrappers only read the host clock; they never
touch simulated state, so a traced pass must reproduce the untraced
digests exactly (the benchmark checks that it does).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``"pkg.module:Class.method"`` -> (owner object, attribute, value)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Self-time ledger over wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> seconds of self time.
        self.self_s: Dict[str, float] = {}
        #: wrapped path -> [calls] (a coroutine call counts once, not per
        #: resume); a one-item list so each wrapper bumps its own cell.
        self._calls: Dict[str, List[int]] = {}
        #: One entry per open span: the seconds its children covered so far.
        self._stack: List[List[float]] = []

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready snapshot: ``{"self_s": {...}, "calls": {...}}``."""
        calls = {path: cell[0] for path, cell in self._calls.items()}
        return {"self_s": dict(self.self_s), "calls": calls}

    def add(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Fold in a snapshot taken elsewhere (a forked cell's delta)."""
        for layer, seconds in totals["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for path, count in totals["calls"].items():
            self._calls.setdefault(path, [0])[0] += int(count)

    @staticmethod
    def delta(after: Dict[str, Dict[str, float]],
              before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
        """``after - before`` for two :meth:`totals` snapshots."""
        return {
            part: {
                key: value - before[part].get(key, 0)
                for key, value in after[part].items()
            }
            for part in ("self_s", "calls")
        }

    # ------------------------------------------------------------------
    def install(self, layers: Dict[str, Sequence[str]]) -> Callable[[], None]:
        """Wrap every listed function; returns the function that unwraps."""
        originals: List[Tuple[Any, str, Any]] = []
        for layer, paths in layers.items():
            for path in paths:
                owner, attribute, function = resolve(path)
                originals.append((owner, attribute, function))
                setattr(owner, attribute, self.wrap(function, layer, path))

        def uninstall() -> None:
            for owner, attribute, function in reversed(originals):
                setattr(owner, attribute, function)

        return uninstall

    def wrap(self, function: Callable, layer: str, path: str) -> Callable:
        counter = self._calls.setdefault(path, [0])
        self.self_s.setdefault(layer, 0.0)
        if inspect.isgeneratorfunction(function):
            forward = self._forward

            @functools.wraps(function)
            def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
                counter[0] += 1
                return forward(function(*args, **kwargs), layer)

            return traced_generator

        span = self._span

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            counter[0] += 1
            return span(layer, function, args, kwargs)

        return traced

    # ------------------------------------------------------------------
    def _span(self, layer: str, function: Callable, args: Any, kwargs: Any) -> Any:
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        clock = self.clock
        started = clock()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = clock() - started
            stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    def _forward(self, inner: Any, layer: str) -> Iterator[Any]:
        """PEP 380 delegation to ``inner`` with one span per resume."""
        span = self._span
        try:
            value = span(layer, inner.send, (None,), {})
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                sent = yield value
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded, not handled
                try:
                    value = span(layer, inner.throw, (exc,), {})
                except StopIteration as stop:
                    return stop.value
            else:
                try:
                    value = span(layer, inner.send, (sent,), {})
                except StopIteration as stop:
                    return stop.value
