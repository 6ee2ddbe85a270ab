"""Execution runtime for realized models.

The scheduler (:mod:`repro.compile.schedule`) lowers a fused IR tape
into a flat list of executable *steps* built by
:mod:`repro.compile.kernels`.  Everything a step needs at run time —
buffer ownership tracking, the recorded buffer tape whose slots are
planned by liveness into one arena per model (so steady-state forwards
allocate nothing), residual-block control flow, and the
:class:`CompiledModel` front door — lives here.

A step is any object with ``run(x, ctx) -> ndarray`` and an ``op``
string for the profiler; activation *appliers* (used inside residual
blocks) expose ``apply(dst, pool)``.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import default_registry
from repro.tensor.pool import BufferPool, default_pool
from repro.utils import profiler as _profiler

__all__ = [
    "CompiledModel",
    "ResidualStep",
    "run_steps",
]

#: Distinct batch shapes a CompiledModel keeps bound buffer tapes for.
_MAX_BINDINGS = 8

#: Byte alignment of the arena and of every slot offset in it.
_ALIGN = 64


def _aligned_empty(nbytes: int) -> np.ndarray:
    """An uninitialized ``uint8`` buffer whose data is ``_ALIGN``-aligned."""
    raw = np.empty(nbytes + _ALIGN, np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + nbytes]


def _padded(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class _Slot:
    """One ``get`` of a recorded tape: what it asked for and how long it lived.

    ``t_get`` and ``t_release`` are ticks of the recording's event
    clock (one tick per ``get`` or accepted ``release``); a slot never
    released lives to the end of the run.  ``offset`` is its byte
    offset in the arena, set by :func:`_plan`.
    """

    __slots__ = ("shape", "dtype", "nbytes", "t_get", "t_release", "offset")

    def __init__(self, shape, dtype, nbytes, t_get):
        self.shape = shape
        self.dtype = dtype
        self.nbytes = nbytes
        self.t_get = t_get
        self.t_release = None
        self.offset = 0

    def overlaps(self, other: "_Slot") -> bool:
        return self.t_get < other.t_release and other.t_get < self.t_release


def _plan(slots: List[_Slot]) -> int:
    """Place every slot by byte offset; returns the arena bytes needed.

    Greedy by size: the largest slot goes first, and each slot takes
    the smallest gap (best fit) left between the already placed slots
    whose lifetimes overlap its own, or the first offset past them.
    Two slots share bytes only if one was released before the other
    was drawn, whatever their shapes and dtypes.
    """
    placed: List[_Slot] = []
    size = 0
    for slot in sorted(slots, key=lambda s: -s.nbytes):
        need = _padded(slot.nbytes)
        busy = sorted(
            (p.offset, p.offset + _padded(p.nbytes))
            for p in placed
            if slot.overlaps(p)
        )
        best_gap, offset, end = None, None, 0
        for lo, hi in busy:
            gap = lo - end
            if gap >= need and (best_gap is None or gap < best_gap):
                best_gap, offset = gap, end
            end = max(end, hi)
        slot.offset = end if offset is None else offset
        placed.append(slot)
        size = max(size, slot.offset + need)
    return size


class _TapePool:
    """Pool facade that binds one batch shape's buffer sequence.

    The step kernels request and release intermediates in a sequence
    that is a pure function of the step list and the input shape.  The
    first run at a given batch shape *records* that sequence: every
    ``get`` hands out a fresh aligned buffer and notes a :class:`_Slot`
    (shape, dtype, bytes and the clock tick it was drawn at), and
    ``release`` notes the tick it died at and drops the tape's
    reference.  A release of an array the tape did not hand out (the
    caller's input, an interpreter fallback's output) is ignored, so
    no foreign array can ever be handed out again.  :meth:`finish`
    then plans every slot into byte offsets by liveness (:func:`_plan`),
    and :meth:`bind` makes each slot a view into the model's arena.

    Every later run *replays* the tape: ``get`` returns the next slot's
    view and ``release`` is a no-op, so a steady-state forward pass
    does zero pool bookkeeping (no locks, no key hashing, no free-list
    scans).  Replay is valid because two slots share bytes only when
    the recording run released one before it drew the other.

    Buffers whose shape drifts out of sync with the tape (a mutated
    model, a toggled injector) raise rather than corrupt — the caller
    is expected to recompile via the model fingerprint instead.
    """

    __slots__ = (
        "slots", "views", "recording", "cursor", "plan_bytes",
        "_live", "_clock",
    )

    def __init__(self):
        self.slots: List[_Slot] = []
        self.views: List[np.ndarray] = []
        self.recording = True
        self.cursor = 0
        self.plan_bytes = 0
        self._live: Dict[int, Tuple[np.ndarray, _Slot]] = {}
        self._clock = 0

    def get(self, shape, dtype=np.float32) -> np.ndarray:
        if self.recording:
            shape = tuple(shape)
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            arr = _aligned_empty(nbytes).view(dtype).reshape(shape)
            slot = _Slot(shape, dtype, nbytes, self._clock)
            self._clock += 1
            self.slots.append(slot)
            self._live[id(arr)] = (arr, slot)
            return arr
        cursor = self.cursor
        if cursor >= len(self.views):
            raise RuntimeError(
                "compiled buffer tape out of sync (model mutated after "
                "compile?); recompile via maybe_compiled"
            )
        arr = self.views[cursor]
        if arr.shape != tuple(shape):
            raise RuntimeError(
                f"compiled buffer tape out of sync: expected "
                f"{arr.shape}, got {tuple(shape)}; recompile"
            )
        self.cursor = cursor + 1
        return arr

    def release(self, arr: np.ndarray) -> None:
        if self.recording:
            entry = self._live.pop(id(arr), None)
            if entry is not None:
                entry[1].t_release = self._clock
                self._clock += 1

    def finish(self) -> int:
        """Seal the tape after the recording run; returns its plan's bytes."""
        self.recording = False
        for _, slot in self._live.values():
            slot.t_release = self._clock
        self._live.clear()
        self.plan_bytes = _plan(self.slots)
        return self.plan_bytes

    def bind(self, arena: np.ndarray) -> None:
        """Make every slot a view into ``arena`` at its planned offset."""
        self.views = [
            arena[s.offset : s.offset + s.nbytes]
            .view(s.dtype)
            .reshape(s.shape)
            for s in self.slots
        ]


class _Arena:
    """One model's flat, aligned byte buffer that its bound tapes view.

    It only grows, and its size is kept in the default registry's
    ``compile.tape_bytes`` gauge until :meth:`free` (called when the
    owning model is collected).
    """

    __slots__ = ("buf", "_gauge")

    def __init__(self):
        self.buf = _aligned_empty(0)
        self._gauge = default_registry().gauge("compile.tape_bytes")

    def reserve(self, nbytes: int) -> bool:
        """Grow to at least ``nbytes``; True when the buffer was replaced."""
        held = self.buf.nbytes
        if nbytes <= held:
            return False
        self.buf = _aligned_empty(nbytes)
        self._gauge.inc(nbytes - held)
        return True

    def free(self) -> None:
        self._gauge.dec(self.buf.nbytes)
        self.buf = _aligned_empty(0)


class _Ctx:
    """Tracks which live activation arrays own a releasable pool buffer.

    Steps may hand views (reshapes, transposes) downstream; the context
    maps each such array to the whole backing buffer the pool can
    accept, keeping a reference so ``id`` keys can never be recycled
    while an entry is live.

    Each entry also notes whether the interpreter holds that activation
    NHWC-strided.  Compiled buffers are always NCHW, but numpy sums an
    NHWC-strided array in another order, so the one reduction over an
    activation (global average pooling) must know: a conv's output is
    an NHWC view, elementwise ops keep their operand's layout, and an
    operation on two differently laid-out operands is C-ordered.
    """

    __slots__ = ("pool", "_owned")

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._owned: Dict[int, Tuple[np.ndarray, np.ndarray, bool]] = {}

    def own(
        self,
        arr: np.ndarray,
        backing: Optional[np.ndarray] = None,
        nhwc: bool = False,
    ) -> np.ndarray:
        """Register ``arr`` (backed by ``backing``, default itself)."""
        self._owned[id(arr)] = (arr, arr if backing is None else backing, nhwc)
        return arr

    def nhwc(self, arr: np.ndarray) -> bool:
        """Whether the interpreter holds ``arr``'s value NHWC-strided."""
        entry = self._owned.get(id(arr))
        return entry is not None and entry[2]

    def set_nhwc(self, arr: np.ndarray, nhwc: bool) -> None:
        """Note the interpreter's layout of an owned ``arr``."""
        entry = self._owned.get(id(arr))
        if entry is not None:
            self._owned[id(arr)] = (entry[0], entry[1], nhwc)

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
        nhwc = ctx.nhwc(x)
        backing = ctx.disown(x)
        out = run_steps(self.main, x, ctx)
        if self.downsample is not None:
            shortcut = run_steps(self.downsample, x, ctx)
            nhwc = ctx.nhwc(shortcut)
        else:
            shortcut = x
        out += shortcut
        # The interpreter's ``out + shortcut`` is NHWC only if both are.
        ctx.set_nhwc(out, nhwc and ctx.nhwc(out))
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

    The first run at each input shape records a buffer tape and plans
    it by liveness (see :class:`_TapePool`); later runs at that shape
    replay it and touch the shared pool exactly once, for the caller's
    logits buffer.  Every bound tape is a set of views into one arena
    per model, sized to the largest plan recorded so far
    (:attr:`arena_bytes`); the runs never overlap, so the tapes can
    share it.  At most ``_MAX_BINDINGS`` shapes stay bound (LRU); an
    evicted tape drops its plan, and the arena stays.  Runs are
    serialized by an internal lock — concurrent callers share one
    executor safely, as the serving executors' per-model locks already
    assume.

    Execute wall times land in the ``compile.execute_seconds``
    histogram of the default metric registry, and the arena's bytes in
    its ``compile.tape_bytes`` gauge.
    """

    def __init__(self, steps: List, fingerprint=None):
        self.steps = steps
        self.fingerprint = fingerprint
        self._bindings: "OrderedDict[Tuple, _TapePool]" = OrderedDict()
        self._lock = threading.Lock()
        self._arena = _Arena()
        weakref.finalize(self, self._arena.free)
        self._execute_seconds = default_registry().histogram(
            "compile.execute_seconds"
        )

    @property
    def arena_bytes(self) -> int:
        """Bytes of the arena every bound tape's slots view."""
        return self._arena.buf.nbytes

    def _bind(self, tape: _TapePool) -> None:
        """Plan a freshly recorded tape and bind it into the arena."""
        if self._arena.reserve(tape.finish()):
            for bound in self._bindings.values():
                bound.bind(self._arena.buf)
        else:
            tape.bind(self._arena.buf)

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
                    self._bindings.popitem(last=False)
                    default_registry().counter("compile.tapes_evicted").inc()
                tape = _TapePool()
                self._bindings[x.shape] = tape
            else:
                self._bindings.move_to_end(x.shape)
                tape.cursor = 0
            try:
                out = run_steps(self.steps, x, _Ctx(tape))
            except BaseException:
                # A half-recorded (or desynced) tape must not survive.
                self._bindings.pop(x.shape, None)
                raise
            # The logits live in a tape buffer; hand the caller a pooled
            # copy so tape buffers never escape the binding.
            result = pool.get(out.shape, out.dtype)
            np.copyto(result, out)
            if tape.recording:
                self._bind(tape)
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
