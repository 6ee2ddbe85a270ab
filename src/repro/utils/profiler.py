"""Op-level wall-time and allocation profiler.

The sweep/kernel optimisations in this repo claim speedups; this module
is how they are *measured* instead of asserted.  Hot operators
(``conv2d`` forward/backward, ``im2col``/``col2im``, AMS noise
injection, optimizer steps, eval passes, train epochs) bracket their
work with :func:`op_start` / :func:`op_end`.  When no profiler is
active these helpers cost one attribute read and a ``None`` check —
the disabled overhead is bounded by ``tests/obs/test_disabled_cost.py``.

Times are *inclusive*: ``conv2d.forward`` contains the ``im2col`` time
of that call, like a flat sampling profiler's self+children column.
Allocation counts are deltas of the buffer-pool's fresh-allocation
counter over the op, so a steady-state op that reuses pooled buffers
reports 0.

Usage::

    from repro.utils import profiler

    with profiler.profiled() as prof:
        run_experiment(...)
    print(prof.report())

Block-level bracketing lives in :func:`repro.obs.span`, which
forwards into the active profiler (so span names appear as op
records).  The raw ``op_start``/``op_end`` pair remains the supported
primitive for kernel-grade hot paths.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.tensor.pool import default_pool
from repro.utils.tabulate import format_table

#: The currently active profiler, or None (profiling disabled).
ACTIVE: Optional["Profiler"] = None


@dataclass
class OpRecord:
    """Aggregate statistics for one named operation."""

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    allocs: int = 0

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0


class Profiler:
    """Accumulates per-op wall time and pool-allocation counts."""

    def __init__(self):
        self._records: Dict[str, OpRecord] = {}
        self._started = perf_counter()
        # Serving executes batches on several threads at once; record
        # updates are multi-field and must not interleave.
        self._lock = threading.Lock()
        stats = default_pool().stats
        self._pool_alloc0 = stats.allocations
        self._pool_hit0 = stats.hits

    def add(self, op: str, seconds: float, allocs: int = 0) -> None:
        with self._lock:
            record = self._records.get(op)
            if record is None:
                record = self._records[op] = OpRecord()
            record.calls += 1
            record.total_s += seconds
            record.allocs += allocs
            if seconds > record.max_s:
                record.max_s = seconds

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's records into this one.

        Used to aggregate per-worker profiles from a parallel sweep.
        """
        with self._lock:
            for op, record in other._records.items():
                mine = self._records.get(op)
                if mine is None:
                    mine = self._records[op] = OpRecord()
                mine.calls += record.calls
                mine.total_s += record.total_s
                mine.allocs += record.allocs
                if record.max_s > mine.max_s:
                    mine.max_s = record.max_s

    def records(self) -> Dict[str, OpRecord]:
        return dict(self._records)

    def rows(self) -> List[List[object]]:
        """Table rows sorted by total time, descending."""
        items = sorted(
            self._records.items(), key=lambda kv: -kv[1].total_s
        )
        return [
            [
                op,
                r.calls,
                round(r.total_s, 4),
                round(r.mean_ms, 3),
                round(1e3 * r.max_s, 3),
                r.allocs,
            ]
            for op, r in items
        ]

    def report(self) -> str:
        """Human-readable table of op timings + pool summary."""
        elapsed = perf_counter() - self._started
        stats = default_pool().stats
        allocs = stats.allocations - self._pool_alloc0
        hits = stats.hits - self._pool_hit0
        total_gets = allocs + hits
        reuse = (100.0 * hits / total_gets) if total_gets else 0.0
        table = format_table(
            ["op", "calls", "total s", "mean ms", "max ms", "allocs"],
            self.rows() or [["(no ops recorded)", 0, 0.0, 0.0, 0.0, 0]],
            title="op profile (inclusive wall time)",
        )
        return (
            table
            + f"\n  wall: {elapsed:.3f}s; pool: {allocs} fresh allocs, "
            f"{hits} reuses ({reuse:.1f}% reuse)"
        )


# ----------------------------------------------------------------------
# hot-path bracket helpers (near-free when disabled)
# ----------------------------------------------------------------------
def op_start() -> Optional[Tuple[float, int]]:
    """Begin timing an op; returns None instantly when profiling is off."""
    if ACTIVE is None:
        return None
    return (perf_counter(), default_pool().stats.allocations)


def op_end(token: Optional[Tuple[float, int]], op: str) -> None:
    """Finish timing an op started by :func:`op_start`."""
    if token is None or ACTIVE is None:
        return
    ACTIVE.add(
        op,
        perf_counter() - token[0],
        default_pool().stats.allocations - token[1],
    )


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
def enable() -> Profiler:
    """Install (and return) a fresh active profiler."""
    global ACTIVE
    ACTIVE = Profiler()
    return ACTIVE


def disable() -> Optional[Profiler]:
    """Deactivate profiling; returns the profiler that was active."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextlib.contextmanager
def profiled():
    """Profile the enclosed block; restores the previous profiler after."""
    global ACTIVE
    previous = ACTIVE
    prof = Profiler()
    ACTIVE = prof
    try:
        yield prof
    finally:
        ACTIVE = previous
