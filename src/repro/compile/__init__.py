"""Compiled inference: lazy IR, scheduler, bit-identical kernels.

Lowering (:mod:`repro.compile.compiler`) records a trained model (any
ModelSpec variant: fp32 / quant / ams / ams_eval) as a lazy IR graph
(:mod:`repro.compile.ir`); the scheduler (:mod:`repro.compile.schedule`)
fuses the graph into conv+BN+activation(+quant) units and realizes them
into the fused numpy kernels of :mod:`repro.compile.kernels`, which are
**bit-identical** to the interpreted ``Module.forward`` path, including
per-request AMS noise streams (see :mod:`repro.compile.kernels` for the
contract).

Entry points
------------
- :func:`compile_model` — lower + realize explicitly; raises
  :class:`~repro.errors.CompileError` on unsupported models.
- :func:`maybe_compiled` — the wiring the eval loops and the serving
  engine use: returns a cached-or-fresh
  :class:`~repro.compile.runtime.CompiledModel`, or ``None`` when
  compilation is globally disabled or the model has no lowering
  (fallback to the interpreter, counted under the
  ``compile.interpreter_fallback`` metric and warned once per reason).
  The cache key is a *fingerprint* (per-parameter version counters +
  the model's train-mode generation counter), so optimizer steps,
  ``load_state_dict`` and batch-norm statistics updates all trigger
  recompilation.
- :func:`set_enabled` / :func:`disabled` — global escape hatches (the
  experiment CLIs expose ``--no-compile``).
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.compile import ir, schedule
from repro.compile.compiler import compile_model, lower_model
from repro.compile.runtime import CompiledModel
from repro.errors import CompileError
from repro.nn.module import Module
from repro.obs.deprecation import warn_once
from repro.tensor.im2col import (
    Im2colPlan,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)

__all__ = [
    "CompileError",
    "CompiledModel",
    "Im2colPlan",
    "clear_plan_cache",
    "compile_model",
    "disabled",
    "enabled",
    "get_plan",
    "ir",
    "lower_model",
    "maybe_compiled",
    "model_fingerprint",
    "plan_cache_stats",
    "schedule",
    "set_enabled",
]

_ENABLED = True


def enabled() -> bool:
    """Whether :func:`maybe_compiled` currently hands out compiled models."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Globally enable/disable the compiled executor (``--no-compile``)."""
    global _ENABLED
    _ENABLED = bool(flag)


@contextlib.contextmanager
def disabled():
    """Force the interpreted path within the block (for comparisons)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def model_fingerprint(model: Module):
    """A cheap token that changes whenever a compiled model would go stale.

    Combines every parameter's version counter (bumped by optimizer
    steps and ``load_state_dict``) with the model's train-mode
    generation counter (bumped by ``train(True)`` and
    ``load_state_dict``, catching in-place batch-norm running-stat
    updates that touch no parameter).
    """
    versions = tuple(
        getattr(param, "version", 0) for _, param in model.named_parameters()
    )
    return (versions, getattr(model, "_generation", 0))


def _note_fallback(registry, reason: str, warn: bool) -> None:
    """Count (and warn once per reason about) an interpreter fallback.

    The compiled path falling back to the interpreter is silent at the
    call site by design — eval loops and the serving executor just keep
    working — but it must never be *invisible*: a fleet quietly running
    5x slower is an outage in slow motion.  Every fallback lands in the
    ``compile.interpreter_fallback`` counter labeled with its reason,
    and unexpected reasons additionally log one RuntimeWarning per
    process.
    """
    registry.counter("compile.interpreter_fallback", reason=reason).inc()
    if warn:
        warn_once(
            f"compile.interpreter_fallback.{reason}",
            f"compiled inference unavailable ({reason}); requests are "
            "falling back to the interpreted forward pass — this is "
            "correct but slower (warned once per process; see the "
            "compile.interpreter_fallback metric for counts)",
            RuntimeWarning,
            stacklevel=3,
        )


def maybe_compiled(model: Module) -> Optional[CompiledModel]:
    """The compiled executor for ``model``, or ``None`` to interpret.

    Caches the compiled model on the module with its
    :func:`model_fingerprint`; models without a lowering cache the
    failure too, so the interpreter fallback costs one attribute read
    per call instead of a raised exception per batch.

    Cache behaviour is published to the default metric registry:
    ``compile.cache_hit`` / ``compile.recompiled`` (a stale fingerprint
    forced a fresh lowering) / ``compile.models_compiled`` /
    ``compile.compile_failed`` counters and the ``compile.seconds``
    histogram over lowering times.  Every ``None`` return increments
    ``compile.interpreter_fallback{reason=...}``; unexpected reasons
    (an unsupported model, a failed compile) warn once per process.
    """
    from repro.obs.metrics import default_registry

    if not _ENABLED:
        # Explicitly requested interpretation — counted, never warned.
        _note_fallback(default_registry(), "disabled", warn=False)
        return None
    if not isinstance(model, Module):
        # Duck-typed stand-ins (test doubles with just __call__/eval)
        # simply stay on the interpreted path.
        _note_fallback(default_registry(), "not_a_module", warn=True)
        return None
    from repro.obs.trace import span

    registry = default_registry()
    fingerprint = model_fingerprint(model)
    cached = getattr(model, "_compiled_cache", None)
    if cached is not None and cached[0] == fingerprint:
        registry.counter("compile.cache_hit").inc()
        if cached[1] is None:
            # Replay the original failure's reason so e.g. an
            # un-compilable error model keeps its "error_model" label
            # on every request, not just the first.
            _note_fallback(registry, cached[2], warn=False)
        return cached[1]
    if cached is not None:
        registry.counter("compile.recompiled").inc()
    reason = None
    with span("compile.model") as compile_span:
        try:
            compiled = compile_model(model)
        except CompileError as exc:
            compiled = None
            # CompileErrors raised for a declared cause (an error model
            # that cannot be fused) carry a reason attribute; anything
            # else is a generic lowering failure.
            reason = getattr(exc, "reason", "compile_error")
    registry.histogram("compile.seconds").observe(compile_span.duration_s)
    if compiled is None:
        registry.counter("compile.compile_failed").inc()
        _note_fallback(registry, reason, warn=True)
    else:
        registry.counter("compile.models_compiled").inc()
    object.__setattr__(
        model, "_compiled_cache", (fingerprint, compiled, reason)
    )
    return compiled
