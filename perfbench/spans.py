"""Outside-in span tracer for the nlsmarket layers.

Spans are recorded by replacing module attributes at the names the
program looks them up by (``nlsmarket.market.second_difference`` rather
than ``nlsmarket.grid.second_difference``), so the program itself is not
edited. Spans are aggregated in memory per (name, parent) pair, because a
single ladder operation makes about 75k pack calls. A span's self time is
its duration minus the part of it that its direct children cover.

A span that opens on a thread with no open span of its own (a sweep
worker) is a child of the outermost open span of the process, the
``cli.main`` that started the workers. Such children may overlap each
other, so the parent subtracts the union of their intervals, not their
sum; the parent's own-thread children are taken to lie outside that union,
which holds for the sweep, whose main thread only waits for its workers.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name). Several lookups may share a span name.
LAYER_SPANS = (
    ("nlsmarket.cli", "main", "cli.main"),
    ("nlsmarket.cli", "run_market", "cli.run_market"),
    ("nlsmarket.cli", "write_market_outputs", "cli.write"),
    ("nlsmarket.cli", "write_manifest", "cli.manifest"),
    ("nlsmarket.cli", "run_simulation", "market.simulation"),
    ("nlsmarket.cli", "integrate_adaptive", "integrator.driver"),
    ("nlsmarket.market", "integrate_adaptive", "integrator.driver"),
    ("nlsmarket.integrator", "cash_karp_step", "integrator.step"),
    ("nlsmarket.market", "coupled_rhs", "market.coupled_rhs"),
    ("nlsmarket.market", "pack_state", "market.adapter"),
    ("nlsmarket.market", "unpack_state", "market.adapter"),
    ("nlsmarket.market", "second_difference", "grid.second_difference"),
    ("nlsmarket.ladder", "second_difference", "grid.second_difference"),
    ("nlsmarket.cli", "heat_rhs", "ladder.rhs"),
    ("nlsmarket.cli", "heat_potential_rhs", "ladder.rhs"),
    ("nlsmarket.cli", "linear_schrodinger_rhs", "ladder.rhs"),
    ("nlsmarket.cli", "nls_rhs", "ladder.rhs"),
    ("nlsmarket.ladder", "pack_complex", "ladder.pack"),
    ("nlsmarket.ladder", "unpack_complex", "ladder.pack"),
    ("nlsmarket.market", "pack_complex", "ladder.pack"),
    ("nlsmarket.market", "unpack_complex", "ladder.pack"),
    ("nlsmarket.cli", "pack_complex", "ladder.pack"),
    ("nlsmarket.cli", "unpack_complex", "ladder.pack"),
)

# A step shorter than this (in days) is the float residue of landing on a
# snapshot time, not a step the controller chose; h_min defaults to 1e-10.
RESIDUE_H = 1e-9


class Tracer:
    """Aggregates spans per (name, parent); one span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # per thread: (name, parent name) -> [calls, total seconds, self seconds]
        self._tables: List[Dict[Tuple[str, Optional[str]], List]] = []
        self._root: Optional[list] = None  # outermost open frame of the process

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        thread_state = self._thread_state
        lock = self._lock

        def traced(*args, **kwargs):
            stack, table = thread_state()
            # frame: [name, own-thread children seconds, other-thread child intervals]
            frame = [name, 0.0, []]
            outer = stack[-1] if stack else self._root
            if outer is None:
                self._root = frame
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    outer[1] += elapsed
                elif outer is not None:
                    with lock:
                        outer[2].append((start, end))
                else:
                    self._root = None
                covered = frame[1]
                if frame[2]:
                    with lock:
                        covered += _union_length(frame[2])
                key = (name, outer[0] if outer is not None else None)
                agg = table.get(key)
                if agg is None:
                    agg = table[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - covered

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Dict[Tuple[str, Optional[str]], Tuple[int, float, float]]:
        """(name, parent) -> (calls, total seconds, self seconds), all threads."""
        merged: Dict[Tuple[str, Optional[str]], List] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, self_s) in table.items():
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return {key: tuple(agg) for key, agg in merged.items()}

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), summed over parents."""
        out: Dict[str, List] = {}
        for (name, _parent), (calls, total, self_s) in self.spans().items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return {name: tuple(agg) for name, agg in out.items()}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class Counters:
    """Deterministic integrator counters read at the driver and step boundary."""

    KEYS = ("accepted", "rejected", "rhs_evals", "segments", "residue_steps")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values = dict.fromkeys(self.KEYS, 0)

    def take(self) -> Dict[str, int]:
        """Return the counts so far and start again from zero."""
        with self._lock:
            values, self.values = self.values, dict.fromkeys(self.KEYS, 0)
        return values

    def count_driver(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            y, stats = fn(*args, **kwargs)
            with self._lock:
                self.values["segments"] += 1
                self.values["accepted"] += stats.accepted
                self.values["rejected"] += stats.rejected
                self.values["rhs_evals"] += stats.rhs_evaluations
            return y, stats

        return counted

    def count_step(self, fn: Callable) -> Callable:
        def counted(system, t, y, h):
            if h < RESIDUE_H:
                with self._lock:
                    self.values["residue_steps"] += 1
            return fn(system, t, y, h)

        return counted


class Instrumented:
    """Context manager that installs every span of LAYER_SPANS and restores
    the original attributes on exit."""

    def __init__(self, tracer: Tracer, counters: Counters) -> None:
        self.tracer = tracer
        self.counters = counters
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        try:
            for module_name, attr, span in LAYER_SPANS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                fn = original
                if span == "integrator.driver":
                    fn = self.counters.count_driver(fn)
                elif span == "integrator.step":
                    fn = self.counters.count_step(fn)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.tracer.wrap(span, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
