"""The one forward-pass primitive, and the in-process executor over it.

:func:`forward_with_request_noise` is the batch execution every
serving path runs: the :class:`InProcessExecutor` thread here and the
cluster replica processes (:mod:`repro.serve.cluster`) call *the same
code* — per-request deterministic AMS noise rows, compiled-executor
dispatch with counted interpreter fallback, and the ``serve.batch``
trace span.  Sharing the function is what makes the determinism
contract structural: the same ``(spec, seed, request_id, image)``
produces bit-identical logits in this process or in any replica, for
every registered error model.

:class:`InProcessExecutor` and :class:`~repro.serve.cluster.ServeCluster`
are the two implementations of the executor interface the
:class:`~repro.serve.frontdoor.FrontDoor` drives: ``resolve``,
``submit_batch`` (a :class:`concurrent.futures.Future` of logits),
``replica_count``, ``has_idle_replica``, ``stats``, ``is_warm`` and
``warm_async``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from time import monotonic
from typing import List, Sequence

import numpy as np

from repro.obs.journal import journal_event
from repro.obs.trace import span
from repro.serve.spec import ModelSpec
from repro.serve.stats import ServeStats
from repro.train.evaluate import ams_injectors, predict_logits
from repro.utils.rng import point_seed_sequence


def forward_with_request_noise(
    model,
    images: np.ndarray,
    request_ids: List[int],
    seed: int,
    *,
    registry=None,
) -> np.ndarray:
    """One eval-mode forward with per-request deterministic noise.

    Row ``r`` of every AMS injector draws from a child stream of
    request ``r``'s seed sequence (``point_seed_sequence(seed, rid)``),
    keyed by injector order — the same ``(seed, index)`` convention
    ``reseed_noise`` uses.  A request's injected error therefore
    depends only on ``(seed, request_id)``, never on batch composition
    or on which process ran it.

    The compiled executor runs the batch unless
    :func:`repro.compile.disabled` (or ``--no-compile``) is in effect;
    both paths give bit-identical logits.  ``registry`` (a
    :class:`~repro.obs.MetricRegistry`) receives the
    ``serve.batches_compiled`` / ``serve.batches_interpreted``
    counters when provided.
    """
    from repro.compile import maybe_compiled

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
            compiled = maybe_compiled(model)
            if compiled is not None:
                if registry is not None:
                    registry.counter("serve.batches_compiled").inc()
                # predict() copies out of the pooled buffer.
                return compiled.predict(images)
            if registry is not None:
                registry.counter("serve.batches_interpreted").inc()
            return np.array(predict_logits(model, images), copy=True)
        finally:
            for injector in injectors:
                injector.set_row_rngs(None)


class InProcessExecutor:
    """The executor interface on one thread in this process.

    Models come from a :class:`repro.registry.ModelRegistry` warm tier
    (a private one reporting into this executor's stats, or the one
    passed in); each batch runs :func:`forward_with_request_noise`
    under the registry entry's lock.  It is a single replica, ``0``:
    it is idle when nothing is in flight, and ``warm_async`` queues the
    warm-up on the same thread as the batches.

    Parameters
    ----------
    workbench:
        Anything with ``.config`` and a train-or-load path — normally a
        :class:`repro.experiments.common.Workbench`.  Its config's seed
        roots the per-request noise streams, as in the cluster.
    registry:
        Share an existing model registry instead of a private one.
    """

    def __init__(self, workbench, *, registry=None):
        self.workbench = workbench
        self.seed = workbench.config.seed
        self._stats = ServeStats()
        if registry is None:
            from repro.registry import ModelRegistry

            registry = ModelRegistry(
                workbench, metrics=self._stats.registry, compile_models=True
            )
        self.registry = registry
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-executor"
        )
        self._warm: set = set()
        self._inflight = 0
        self._lock = threading.Lock()

    def __enter__(self) -> "InProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Finish queued batches, then end the executor thread."""
        self._worker.shutdown(wait=True)

    def resolve(self, spec: ModelSpec) -> ModelSpec:
        return spec.resolved(self.workbench.config)

    def warm(self, *specs: ModelSpec) -> "InProcessExecutor":
        """Promote ``specs`` into the registry's warm tier now."""
        for spec in specs:
            spec = self.resolve(spec)
            self.registry.entry(spec)
            self._warm.add(spec.token())
        return self

    def warm_async(self, spec: ModelSpec) -> Future:
        """:meth:`warm` on the executor thread — the front door's miss
        path.  A failed warm-up is journaled, as the cluster's is."""
        future = self._worker.submit(self.warm, spec)

        def _report(f: Future) -> None:
            if f.exception() is not None:
                journal_event(
                    "registry.warmup",
                    spec=self.resolve(spec).token(),
                    status="failed",
                    error=str(f.exception()),
                )

        future.add_done_callback(_report)
        return future

    def is_warm(self, token: str) -> bool:
        return token in self._warm

    def replica_count(self) -> int:
        return 1

    def has_idle_replica(self, token: str) -> bool:
        return self._inflight == 0

    def stats(self) -> ServeStats:
        return self._stats

    def submit_batch(
        self,
        spec: ModelSpec,
        images: np.ndarray,
        request_ids: Sequence[int],
    ) -> "Future[np.ndarray]":
        """Queue one ready-made batch; resolves to the logits array."""
        spec = self.resolve(spec)
        images = np.asarray(images, dtype=np.float32)
        ids = [int(rid) for rid in request_ids]
        depth = self._stats.registry.gauge(
            "serve.replica_inflight", replica="0"
        )
        with self._lock:
            self._inflight += 1
        depth.inc()
        started = monotonic()
        future = self._worker.submit(self._run, spec, images, ids)

        def _done(f: Future) -> None:
            # Added before the front door's own callback, so a woken
            # front door already finds the replica idle.
            with self._lock:
                self._inflight -= 1
            depth.dec()
            if not f.cancelled() and f.exception() is None:
                self._stats.record_replica_batch(
                    0, len(ids), monotonic() - started
                )

        future.add_done_callback(_done)
        return future

    def _run(self, spec: ModelSpec, images: np.ndarray, ids: List[int]):
        entry = self.registry.entry(spec)
        with entry.lock:
            return forward_with_request_noise(
                entry.model, images, ids, self.seed,
                registry=self._stats.registry,
            )


__all__ = ["InProcessExecutor", "forward_with_request_noise"]
