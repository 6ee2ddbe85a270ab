"""The one forward-pass primitive every serving tier shares.

:func:`forward_with_request_noise` is the engine's batch execution,
extracted so the in-process thread engine
(:class:`~repro.serve.engine.InferenceEngine`) and the cluster worker
processes (:mod:`repro.serve.cluster`) run *the same code*: per-request
deterministic AMS noise rows, compiled-executor dispatch with counted
interpreter fallback, and the ``serve.batch`` trace span.  Sharing the
function is what makes the cluster's determinism contract structural —
the same ``(spec, seed, request_id, image)`` produces bit-identical
logits at 1 thread, N threads, or N worker processes, for every
registered error model.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.obs.trace import span
from repro.train.evaluate import ams_injectors, predict_logits
from repro.utils.rng import point_seed_sequence


def forward_with_request_noise(
    model,
    images: np.ndarray,
    request_ids: List[int],
    seed: int,
    *,
    registry=None,
    compile_models: bool = True,
) -> np.ndarray:
    """One eval-mode forward with per-request deterministic noise.

    Row ``r`` of every AMS injector draws from a child stream of
    request ``r``'s seed sequence (``point_seed_sequence(seed, rid)``),
    keyed by injector order — the same ``(seed, index)`` convention
    ``reseed_noise`` uses.  A request's injected error therefore
    depends only on ``(seed, request_id)``, never on batch composition,
    thread count, or which worker process ran it.

    ``registry`` (a :class:`~repro.obs.MetricRegistry`) receives the
    ``serve.batches_compiled`` / ``serve.batches_interpreted``
    counters when provided.
    """
    injectors = ams_injectors(model)
    with span("serve.batch"):
        if injectors:
            per_request = [
                point_seed_sequence(seed, rid).spawn(len(injectors))
                for rid in request_ids
            ]
            for j, injector in enumerate(injectors):
                injector.set_row_rngs(
                    [
                        np.random.default_rng(children[j])
                        for children in per_request
                    ]
                )
        try:
            if compile_models:
                from repro.compile import maybe_compiled

                compiled = maybe_compiled(model)
                if compiled is not None:
                    if registry is not None:
                        registry.counter("serve.batches_compiled").inc()
                    # predict() copies out of the pooled buffer.
                    return compiled.predict(images)
                if registry is not None:
                    registry.counter("serve.batches_interpreted").inc()
                return np.array(predict_logits(model, images), copy=True)
            # Caller-level opt-out must hold even when compilation is
            # globally enabled: predict_logits would compile.
            from repro.compile import disabled

            if registry is not None:
                registry.counter("serve.batches_interpreted").inc()
            with disabled():
                return np.array(predict_logits(model, images), copy=True)
        finally:
            for injector in injectors:
                injector.set_row_rngs(None)


__all__ = ["forward_with_request_noise"]
