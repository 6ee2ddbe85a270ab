"""Batched inference serving over trained AMS models.

The serving stack, bottom to top:

- :class:`ModelSpec` — the frozen public identity of every model the
  workbench can build (``repro.registry`` resolves it through the
  tiered model registry, the single acquisition entry point);
- an **executor** — runs ready-made batches with per-request
  deterministic AMS noise streams.  Two implementations answer the
  same calls: :class:`InProcessExecutor` (one thread in this process)
  and :class:`ServeCluster` (N replica processes mapping one published
  artifact file per model, :mod:`repro.serve.shared`, with rolling
  restarts);
- :class:`FrontDoor` — the one admission layer: an asyncio
  admission/batching front over either executor, with load shedding,
  degradation to a fallback spec and deadlines;
  :class:`ClusterService` is its blocking facade.

Per-request determinism holds across the whole stack: the same
``(spec, seed, request_id, image)`` yields bit-identical logits from
the in-process executor and from a cluster at any replica count,
because every path runs the one shared forward primitive
(:func:`repro.serve.executor.forward_with_request_noise`).

Command line::

    python -m repro.experiments serve --spec ams:e5.5:n8 --requests 256
    python -m repro.experiments serve --spec ams:e5.5:n8 --workers 4

See ``docs/serving.md`` for the architecture and the knobs.
"""

from repro.serve.cluster import SHARD_POLICIES, ClusterService, ServeCluster
from repro.serve.executor import InProcessExecutor
from repro.serve.frontdoor import FrontDoor, Prediction
from repro.serve.shared import bind_shared
from repro.serve.spec import VARIANTS, ModelSpec
from repro.serve.stats import ServeStats

__all__ = [
    "ModelSpec",
    "VARIANTS",
    "SHARD_POLICIES",
    "InProcessExecutor",
    "ServeCluster",
    "ClusterService",
    "FrontDoor",
    "Prediction",
    "ServeStats",
    "bind_shared",
]
