"""Lightweight trace spans: nested, thread-aware, monotonic-clock.

:func:`span` is the one bracketing primitive the repo's subsystems
use.  A span:

- times its block on the monotonic ``perf_counter`` clock;
- nests — each thread keeps its own span stack, so a span knows its
  parent and depth even on the serving executor's thread;
- **forwards into the op profiler**: when ``--profile-ops`` is active,
  every span shows up as an op record under its name, with the same
  pool-allocation deltas the kernel brackets report.

When nothing is listening (no active profiler, no capture buffer) a
span costs two thread-local reads and two ``perf_counter`` calls —
cheap enough for per-batch and per-epoch brackets.  Kernel-grade hot
paths (per-op inside a forward pass) keep using the raw
``profiler.op_start/op_end`` pair, which is cheaper still.

For tests and ad-hoc analysis, :func:`capture_spans` collects every
finished :class:`Span` (across all threads) within a block.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

from repro.utils import profiler as _profiler

_tls = threading.local()

#: Capture buffer installed by :func:`capture_spans` (None = off).
_CAPTURE: Optional[List["Span"]] = None
_CAPTURE_LOCK = threading.Lock()


@dataclass
class Span:
    """One finished (or in-flight) trace span."""

    name: str
    #: Slash-joined names from the thread's outermost span down to this
    #: one, e.g. ``"serve.batch/compile.model"``.
    path: str
    depth: int
    thread: str
    start_s: float
    duration_s: float = 0.0


def _stack() -> List[Span]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or None."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


@contextlib.contextmanager
def span(name: str):
    """Bracket a block as one named trace span.

    Yields the :class:`Span`, whose ``duration_s`` is filled in when
    the block exits — callers that want the wall time (the trainer's
    per-epoch events, the sweep engine's per-point timing) read it
    after the ``with`` block instead of re-timing.
    """
    stack = _stack()
    parent = stack[-1] if stack else None
    record = Span(
        name=name,
        path=f"{parent.path}/{name}" if parent else name,
        depth=len(stack),
        thread=threading.current_thread().name,
        start_s=perf_counter(),
    )
    stack.append(record)
    token = _profiler.op_start()
    try:
        yield record
    finally:
        record.duration_s = perf_counter() - record.start_s
        _profiler.op_end(token, name)
        # Pop our own frame even if a nested span leaked (defensive:
        # never let one bad block corrupt the whole thread's stack).
        while stack and stack[-1] is not record:
            stack.pop()
        if stack:
            stack.pop()
        capture = _CAPTURE
        if capture is not None:
            with _CAPTURE_LOCK:
                capture.append(record)


@contextlib.contextmanager
def capture_spans():
    """Collect every span finished inside the block, across threads.

    Yields the list the spans are appended to (in completion order —
    children complete before parents, and worker threads interleave).
    """
    global _CAPTURE
    previous = _CAPTURE
    collected: List[Span] = []
    _CAPTURE = collected
    try:
        yield collected
    finally:
        _CAPTURE = previous
