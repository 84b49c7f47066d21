"""Measurement helpers shared by the workloads: summaries, the op
recorder, the span tracer, the GC pause monitor and the host probe.

Nothing here imports ``repro``; the harness loads it after timing the
import.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def p50(values: List[float]) -> float:
    return statistics.median(values)


def tail(values: List[float]):
    """The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that still has
    at least ten samples beyond it, as ``(label, value)``; ``None`` when
    there are fewer than twenty samples."""
    s = sorted(values)
    n = len(s)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}", percentile(s, q)
    return None


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, min(n, int(-(-q * n // 100))))
    return sorted_values[rank - 1]


def quarter_medians(values: List[float]):
    """Medians of the first and last quarter of a run's samples (in op
    order), so drift across a run is visible."""
    q = max(1, len(values) // 4)
    return p50(values[:q]), p50(values[-q:])


def host_probe_ms() -> float:
    """A fixed pure-Python loop; its time tracks host speed only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


class GCMonitor:
    """Pause time and full (generation-2) collections via
    ``gc.callbacks``, counted only while :attr:`active` is set, so the
    harness's own ``gc.collect()`` between ops is never billed."""

    def __init__(self):
        self.active = False
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def close(self):
        gc.callbacks.remove(self._callback)


_FAILED = object()


class OpRecorder:
    """Times each op of a closed loop and tallies its check.

    ``gc.collect()`` runs before every op, outside the timer; the check
    runs after the timer stops.  An exception in the op or the check
    counts as a failed op.  While ``measuring`` is false (set-up and
    warm-up) nothing is recorded.
    """

    def __init__(self, gcmon: GCMonitor):
        self.gcmon = gcmon
        self.measuring = False
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Summed time of the measured ops (parts excluded).
        self.op_s = 0.0
        self.attempted = 0
        self.ok = 0
        self.errors: List[str] = []

    def op(self, kind: str, fn: Callable, check: Callable[[object], bool]):
        gc.collect()
        self.gcmon.active = self.measuring
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an op failure is data, not a crash
            out = _FAILED
            self._note(kind, exc)
        elapsed = time.perf_counter() - t0
        self.gcmon.active = False
        passed = False
        if out is not _FAILED:
            try:
                passed = bool(check(out))
            except Exception as exc:
                self._note(kind, exc)
            if not passed and not self.errors:
                self.errors.append(f"{kind}: output failed its check")
        if self.measuring:
            self.samples[kind].append(elapsed)
            self.op_s += elapsed
            self.attempted += 1
            self.ok += passed
        elif not passed:
            raise RuntimeError(f"warm-up op {kind!r} failed: "
                               f"{self.errors[-1] if self.errors else '?'}")
        return None if out is _FAILED else out

    def part(self, kind: str, seconds: float) -> None:
        """A timing taken inside an op (e.g. one query batch of a query
        block), recorded beside the op's own while measuring."""
        if self.measuring:
            self.samples[kind].append(seconds)

    def _note(self, kind, exc):
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")


class Tracer:
    """In-memory spans around calls into the program's public layers.

    Each span records ``(name, start_ns, end_ns, op, parent)``; ``op``
    is the id of the op it belongs to and ``parent`` the enclosing span
    (``None`` for a top-level op span).  Counts are tallied at the same
    boundaries.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._next_op = 0

    @contextmanager
    def op(self, kind: str):
        gc.collect()  # as before every untraced op, outside the span
        self._op = self._next_op
        self._next_op += 1
        with self.span(f"op.{kind}"):
            yield
        self._op = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, self._op,
                           parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += int(value)

    # ------------------------------------------------------------------
    def per_call_ms(self) -> Dict[str, float]:
        """Median duration per call of every span name except op spans,
        keyed ``<name>_ms``."""
        by_name: Dict[str, List[float]] = defaultdict(list)
        for name, t0, t1, _, _ in self.spans:
            if not name.startswith("op."):
                by_name[name].append((t1 - t0) / 1e6)
        return {f"{name}_ms": p50(v) for name, v in by_name.items()}

    def op_ms(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = defaultdict(list)
        for name, t0, t1, _, parent in self.spans:
            if name.startswith("op.") and parent is None:
                out[name[3:]].append((t1 - t0) / 1e6)
        return out

    def uncovered_frac(self) -> float:
        """Median over ops of the share of the op's time that its direct
        child spans leave uncovered."""
        child_ns: Dict[int, int] = defaultdict(int)
        for name, t0, t1, _, parent in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        shares = []
        for idx, (name, t0, t1, _, parent) in enumerate(self.spans):
            if parent is None and name.startswith("op.") and t1 > t0:
                shares.append(max(0, (t1 - t0) - child_ns[idx]) / (t1 - t0))
        return p50(shares) if shares else 0.0
