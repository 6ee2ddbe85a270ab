"""Execution runtime for realized models.

The scheduler (:mod:`repro.compile.schedule`) lowers a fused IR tape
into a flat list of executable *steps* built by
:mod:`repro.compile.kernels`.  Everything a step needs at run time —
pooled buffer ownership tracking, the recorded buffer tape that makes
steady-state forwards allocation-free, residual-block control flow,
and the :class:`CompiledModel` front door — lives here.

A step is any object with ``run(x, ctx) -> ndarray`` and an ``op``
string for the profiler; activation *appliers* (used inside residual
blocks) expose ``apply(dst, pool)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.tensor.pool import BufferPool, default_pool
from repro.utils import profiler as _profiler

__all__ = [
    "CompiledModel",
    "ResidualStep",
    "run_steps",
]

#: Distinct batch shapes a CompiledModel keeps bound buffer tapes for.
_MAX_BINDINGS = 8


class _TapePool:
    """Pool facade that binds one batch shape's buffer sequence.

    The step kernels request and release intermediates in a sequence
    that is a pure function of the step list and the input shape.  The
    first run at a given batch shape *records* that sequence: every
    ``get`` is served through a simulated free list (reproducing the
    real pool's intra-run recycling, so peak memory matches pooled
    execution) with misses drawn from the real pool, and the handed-out
    array is appended to a tape.  The drawn buffers are never returned
    to the real pool — they stay bound to the tape.

    Every later run *replays* the tape: ``get`` pops the next bound
    buffer and ``release`` is a no-op, so a steady-state forward pass
    does zero pool bookkeeping (no locks, no key hashing, no free-list
    scans).  Replay is valid because recording reproduced the exact
    aliasing the real pool would have produced.

    Buffers whose shape drifts out of sync with the tape (a mutated
    model, a toggled injector) raise rather than corrupt — the caller
    is expected to recompile via the model fingerprint instead.
    """

    __slots__ = ("pool", "tape", "recording", "cursor", "_free")

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.tape: List[np.ndarray] = []
        self.recording = True
        self.cursor = 0
        self._free: Dict[Tuple, List[np.ndarray]] = {}

    def get(self, shape, dtype=np.float32) -> np.ndarray:
        if self.recording:
            key = (tuple(shape), np.dtype(dtype))
            bucket = self._free.get(key)
            arr = bucket.pop() if bucket else self.pool.get(shape, dtype)
            self.tape.append(arr)
            return arr
        cursor = self.cursor
        if cursor >= len(self.tape):
            raise RuntimeError(
                "compiled buffer tape out of sync (model mutated after "
                "compile?); recompile via maybe_compiled"
            )
        arr = self.tape[cursor]
        if arr.shape != tuple(shape):
            raise RuntimeError(
                f"compiled buffer tape out of sync: expected "
                f"{arr.shape}, got {tuple(shape)}; recompile"
            )
        self.cursor = cursor + 1
        return arr

    def release(self, arr: np.ndarray) -> None:
        if self.recording and isinstance(arr, np.ndarray):
            self._free.setdefault(
                (arr.shape, arr.dtype), []
            ).append(arr)

    def finish(self) -> None:
        """Seal the tape after the recording run."""
        self.recording = False
        self._free.clear()

    def unbind(self) -> None:
        """Hand every bound buffer back to the real pool (eviction)."""
        seen = set()
        for arr in self.tape:
            if id(arr) not in seen:
                seen.add(id(arr))
                self.pool.release(arr)
        self.tape = []


class _Ctx:
    """Tracks which live activation arrays own a releasable pool buffer.

    Steps may hand views (reshapes, transposes) downstream; the context
    maps each such array to the whole backing buffer the pool can
    accept, keeping a reference so ``id`` keys can never be recycled
    while an entry is live.
    """

    __slots__ = ("pool", "_owned")

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._owned: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def own(self, arr: np.ndarray, backing: Optional[np.ndarray] = None) -> np.ndarray:
        """Register ``arr`` (backed by ``backing``, default itself)."""
        self._owned[id(arr)] = (arr, arr if backing is None else backing)
        return arr

    def disown(self, arr: np.ndarray) -> Optional[np.ndarray]:
        """Forget ``arr``; returns its backing buffer if it was owned."""
        entry = self._owned.pop(id(arr), None)
        return None if entry is None else entry[1]

    def release(self, arr: np.ndarray) -> None:
        """Return ``arr``'s backing buffer to the pool (no-op if unowned)."""
        entry = self._owned.pop(id(arr), None)
        if entry is not None:
            self.pool.release(entry[1])

    def pop_result(self, arr: np.ndarray) -> np.ndarray:
        """Transfer ownership of the final output to the caller."""
        self._owned.pop(id(arr), None)
        return arr


def run_steps(steps, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
    """Run a step list with a profiler bracket per step."""
    for step in steps:
        token = _profiler.op_start()
        x = step.run(x, ctx)
        _profiler.op_end(token, step.op)
    return x


class ResidualStep:
    """A residual block: main path, optional projection shortcut, add, act.

    Control flow only — ``main`` and ``downsample`` are step lists and
    ``act`` is any applier.  The block input's buffer is disowned up front so the main
    path's first conv cannot recycle it while the shortcut still needs
    it; it is released only after the residual add consumed it.  Main
    runs before downsample — the interpreter's (and therefore the noise
    streams') order.
    """

    op = "compiled.block"

    def __init__(self, main: List, downsample: Optional[List], act):
        self.main = main
        self.downsample = downsample
        self.act = act

    def run(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        backing = ctx.disown(x)
        out = run_steps(self.main, x, ctx)
        if self.downsample is not None:
            shortcut = run_steps(self.downsample, x, ctx)
        else:
            shortcut = x
        out += shortcut
        if shortcut is not x:
            ctx.release(shortcut)
        if backing is not None:
            ctx.pool.release(backing)
        if self.act is not None:
            self.act.apply(out, ctx.pool)
        return out


class CompiledModel:
    """A flat list of realized kernels lowered from a trained model.

    ``run`` returns the logits in a pool-backed buffer the *caller*
    owns — hand it back via ``default_pool().release(logits)`` once
    consumed to keep steady-state inference allocation-free, or use
    :meth:`predict` for a detached copy.

    The first run at each input shape records a buffer tape (see
    :class:`_TapePool`); later runs at that shape replay it and touch
    the shared pool exactly once, for the caller's logits buffer.  At
    most ``_MAX_BINDINGS`` shapes stay bound (LRU); evicted tapes hand
    their buffers back to the pool.  Runs are serialized by an internal
    lock — concurrent callers share one executor safely, as the serving
    executors' per-model locks already assume.

    Execute wall times land in the ``compile.execute_seconds``
    histogram of the default metric registry.
    """

    def __init__(self, steps: List, fingerprint=None):
        self.steps = steps
        self.fingerprint = fingerprint
        self._bindings: "OrderedDict[Tuple, _TapePool]" = OrderedDict()
        self._lock = threading.Lock()
        from repro.obs.metrics import default_registry

        self._execute_seconds = default_registry().histogram(
            "compile.execute_seconds"
        )

    def run(self, images) -> np.ndarray:
        """One forward pass; returns a pooled logits buffer (caller owns)."""
        x = np.asarray(images, dtype=np.float32)
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        pool = default_pool()
        started = perf_counter()
        with self._lock:
            tape = self._bindings.get(x.shape)
            if tape is None:
                while len(self._bindings) >= _MAX_BINDINGS:
                    _, evicted = self._bindings.popitem(last=False)
                    evicted.unbind()
                    from repro.obs.metrics import default_registry

                    default_registry().counter("compile.tapes_evicted").inc()
                tape = _TapePool(pool)
                self._bindings[x.shape] = tape
            else:
                self._bindings.move_to_end(x.shape)
                tape.cursor = 0
            try:
                out = run_steps(self.steps, x, _Ctx(tape))
            except BaseException:
                # A half-recorded (or desynced) tape must not survive.
                self._bindings.pop(x.shape, None)
                tape.unbind()
                raise
            if tape.recording:
                tape.finish()
            # The logits live in a bound tape buffer; hand the caller a
            # pooled copy so tape buffers never escape the binding.
            result = pool.get(out.shape, out.dtype)
            np.copyto(result, out)
        self._execute_seconds.observe(perf_counter() - started)
        return result

    def predict(self, images) -> np.ndarray:
        """One forward pass; returns a fresh logits array (pool recycled)."""
        out = self.run(images)
        logits = np.array(out, copy=True)
        default_pool().release(out)
        return logits

    __call__ = run

    def describe(self) -> str:
        """One line per step, for debugging and the docs."""
        return "\n".join(f"{i}: {type(s).__name__}" for i, s in enumerate(self.steps))
