"""The disabled observability paths stay near-free.

Library code (kernels, trainer, sweep engine, compile cache) calls the
op profiler, trace spans and the run journal unconditionally.  The
promise is that with nothing listening each call is a global read and
a ``None`` check.  These bounds are loose enough never to flake on a
busy host, so they catch only gross regressions: a disabled path that
does the enabled path's work, such as building, validating and
serialising a journal record (about 10 us a call on a 2-CPU Xeon
guest, against 0.5 us today) or capturing a stack in every span.
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


def test_disabled_profiler_overhead_under_5pct():
    """Disabled brackets must cost < 5% of a forward pass.

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


def test_inactive_journal_event_is_cheap():
    """``journal_event`` with no open run stays under 10 us a call."""
    assert current_journal() is None, "needs no active run"
    journal_event("note", message="warmup")
    unit_s = _unit_cost(
        lambda: journal_event("note", message="dropped"), 100_000
    )
    assert unit_s < 10e-6, f"inactive journal_event: {unit_s * 1e9:.0f} ns"


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
