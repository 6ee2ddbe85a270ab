"""The disabled observability paths stay near-free.

Library code (kernels, trainer, sweep engine, compile cache) calls the
op profiler, trace spans and the run journal unconditionally.  The
promise is that with nothing listening each call is a global read and
a ``None`` check.  The profiler bracket and the inactive journal event
are timed as a ratio to a plain Python call of the same arity, in
interleaved rounds of one test, so the bound moves with the host's
speed and load.  Both read 1.0-1.2x on a 2-CPU Xeon guest.  The bound
of 2x fails a disabled path that does the enabled path's work: building
and validating the journal record (11-16x), or reading the clock and
the pool's allocation count for a profiler token (2.6x).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.ams import VMACConfig
from repro.models import AMSFactory, resnet_small
from repro.obs.journal import current_journal, journal_event
from repro.obs.trace import span
from repro.quant import QuantConfig
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import profiler


def _ams_forward():
    """An eval-mode AMS ``resnet_small`` forward at batch 16, 16x16."""
    model = resnet_small(
        AMSFactory(QuantConfig(8, 8), VMACConfig(enob=8, nmult=8), seed=0),
        num_classes=10,
    )
    model.eval()
    x = Tensor(
        np.random.default_rng(0)
        .standard_normal((16, 3, 16, 16))
        .astype(np.float32)
    )

    def forward():
        with no_grad():
            return model(x)

    return forward


def _unit_cost(fn, calls: int) -> float:
    """Mean seconds per call of ``fn`` over ``calls`` back-to-back calls."""
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls


#: Most a disabled path may cost, as a multiple of a plain call.
MAX_RATIO = 2.0


def _ratio_to_plain(fn, plain, rounds: int = 30, calls: int = 10_000) -> float:
    """Cost of ``fn`` over that of ``plain``, timed in alternating rounds.

    Each side's fastest round is its cost: load on the host only ever
    adds time, and alternation exposes both sides to the same load.
    """
    fn_s, plain_s = [], []
    for _ in range(rounds):
        fn_s.append(_unit_cost(fn, calls))
        plain_s.append(_unit_cost(plain, calls))
    return min(fn_s) / min(plain_s)


def _plain_start():
    return None


def _plain_end(token, op):
    return None


def _plain_event(event_type, **payload):
    return False


def test_disabled_profiler_overhead_under_5pct():
    """Disabled brackets must cost < 5% of a forward pass, and a bracket
    at most ``MAX_RATIO`` times two plain calls of the same arity.

    The bracket count of one AMS forward is measured with the profiler
    on; the unit cost of a disabled bracket is measured directly.  Their
    product — the total disabled-profiler tax on that forward — must be
    under 5% of the forward's own wall time.
    """
    forward = _ams_forward()
    forward()  # warm caches and the buffer pool

    with profiler.profiled() as prof:
        forward()
    brackets = sum(r.calls for r in prof.records().values())
    assert brackets > 0

    profiler.disable()
    forward_s = min(_unit_cost(forward, 1) for _ in range(3))
    unit_s = _unit_cost(
        lambda: profiler.op_end(profiler.op_start(), "x"), 100_000
    )
    assert unit_s * brackets < 0.05 * forward_s, (
        f"{brackets} disabled brackets at {unit_s * 1e9:.0f} ns each "
        f"vs forward {forward_s * 1e3:.2f} ms"
    )
    ratio = _ratio_to_plain(
        lambda: profiler.op_end(profiler.op_start(), "x"),
        lambda: _plain_end(_plain_start(), "x"),
    )
    assert ratio < MAX_RATIO, f"disabled bracket: {ratio:.2f}x plain calls"


def test_inactive_journal_event_is_cheap():
    """``journal_event`` with no open run costs at most ``MAX_RATIO``
    times a plain call of the same arity."""
    assert current_journal() is None, "needs no active run"
    journal_event("note", message="warmup")
    ratio = _ratio_to_plain(
        lambda: journal_event("note", message="dropped"),
        lambda: _plain_event("note", message="dropped"),
    )
    assert ratio < MAX_RATIO, f"inactive journal_event: {ratio:.2f}x a plain call"


def test_bare_span_is_cheap():
    """A span with no profiler and no capture buffer stays under 50 us.

    Spans bracket per-epoch, per-point and per-batch blocks (tens of
    milliseconds each), so tens of microseconds of bracket cost would
    already be invisible; the bound is an order of magnitude under that.
    """

    def bare_span():
        with span("test.span_overhead"):
            pass

    profiler.disable()
    bare_span()  # warm the thread-local stack
    unit_s = _unit_cost(bare_span, 20_000)
    assert unit_s < 50e-6, f"bare span: {unit_s * 1e9:.0f} ns"
