"""Batched inference engine over the workbench's trained models.

The engine answers classify requests at high throughput by doing three
things the offline experiment harness never needed:

- a **warm model pool**: the engine's models live in a
  :class:`repro.registry.ModelRegistry` warm tier (LRU, capacity
  ``max_models``), so the working set of hot models stays built while
  cold specs are demoted; a miss promotes from the on-disk cold tier
  (or trains, on a true miss) through the same registry path every
  other consumer uses;
- a **dynamic micro-batcher**: worker threads coalesce queued requests
  for the same spec up to ``max_batch`` or ``max_wait_ms``, then run
  one forward pass per batch;
- **per-request deterministic noise**: before each batch forward, every
  AMS injector gets one generator per batch *row*, derived from
  ``point_seed_sequence(seed, request_id)`` — a request's injected
  error depends only on ``(spec, seed, request_id)``, never on which
  other requests happened to share its batch.  Identical requests are
  therefore reproducible at any concurrency and any batch composition.

Each executed batch runs under an ``obs.span("serve.batch")`` trace
span, which forwards into the op profiler, so ``--profile-ops``
decomposes serving time with the same tooling the training paths use.
Request-level telemetry lives in :meth:`InferenceEngine.stats` — an
:class:`~repro.serve.stats.EngineStatsView` over the engine's own
:class:`~repro.obs.MetricRegistry` (``serve.*`` metrics: executed /
degraded request counters, exact batch-size histogram, queue-depth
gauge, compiled-vs-interpreted batch counters).
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serve.executor import forward_with_request_noise
from repro.serve.spec import ModelSpec
from repro.serve.stats import EngineStatsView


@dataclass
class Prediction:
    """The answer to one classify request."""

    request_id: int
    spec: ModelSpec
    label: int
    logits: np.ndarray
    batch_size: int
    latency_s: float
    degraded: bool = False


@dataclass
class _Request:
    spec: ModelSpec
    image: np.ndarray
    request_id: int
    future: Future
    enqueued_s: float


class InferenceEngine:
    """Micro-batching inference front end over a workbench.

    Parameters
    ----------
    workbench:
        Anything with ``.config`` and a train-or-load path — normally a
        :class:`repro.experiments.common.Workbench`.
    seed:
        Root of the per-request noise streams (default: the workbench
        config's seed).  Predictions are a pure function of
        ``(spec, seed, request_id, image)``.
    max_models:
        Warm-tier LRU capacity of the engine's model registry
        (ignored when an explicit ``registry`` is supplied).
    max_batch, max_wait_ms:
        Micro-batcher knobs: a batch closes when it reaches
        ``max_batch`` requests or the oldest request has waited
        ``max_wait_ms``, whichever comes first.
    workers:
        Batch-executor threads.  More workers overlap queue handling
        with compute; determinism per request is unaffected.
    compile_models:
        Lower cached models to the fused tape-free executor
        (:mod:`repro.compile`) when they load, and serve batches
        through it.  Predictions are bit-identical either way —
        including per-request AMS noise — so this is purely a speed
        knob; pass ``False`` to force the interpreted forward.
    registry:
        Share an existing :class:`repro.registry.ModelRegistry` (e.g.
        a cluster's) instead of building a private one; the registry's
        own capacity/compile knobs then apply.
    """

    def __init__(
        self,
        workbench,
        *,
        seed: Optional[int] = None,
        max_models: int = 4,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        workers: int = 1,
        compile_models: bool = True,
        registry=None,
    ):
        if max_models < 1:
            raise ConfigError(f"max_models must be >= 1, got {max_models}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ConfigError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workbench = workbench
        self.seed = workbench.config.seed if seed is None else seed
        self.max_models = max_models
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.workers = workers
        self.compile_models = compile_models
        self._queue: "queue.Queue[_Request]" = queue.Queue()
        self._stats = EngineStatsView()
        if registry is None:
            from repro.registry import ModelRegistry

            registry = ModelRegistry(
                workbench,
                warm_max_entries=max_models,
                metrics=self._stats.registry,
                compile_models=compile_models,
            )
        self.registry = registry
        self._queue_depth = self._stats.registry.gauge("serve.queue_depth")
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceEngine":
        """Spawn the batch-executor threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-batch-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop the executor threads; queued requests stay pending."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request API
    # ------------------------------------------------------------------
    def submit(self, spec: ModelSpec, image, request_id: int) -> Future:
        """Queue one classify request; resolves to a :class:`Prediction`.

        ``request_id`` is the caller's replay key: resubmitting the
        same ``(spec, image, request_id)`` reproduces the prediction
        bit-for-bit regardless of batching or concurrency.
        """
        spec = spec.resolved(self.workbench.config)
        future: Future = Future()
        self._queue.put(
            _Request(
                spec=spec,
                image=np.asarray(image, dtype=np.float32),
                request_id=int(request_id),
                future=future,
                enqueued_s=perf_counter(),
            )
        )
        self._queue_depth.inc()
        return future

    def classify(
        self,
        spec: ModelSpec,
        images: Sequence,
        request_ids: Optional[Sequence[int]] = None,
        timeout: Optional[float] = 60.0,
    ) -> List[Prediction]:
        """Submit a request set and wait for every prediction."""
        if not self._threads:
            raise ConfigError(
                "engine is not started; call start() (or use "
                "classify_direct for the synchronous path)"
            )
        if request_ids is None:
            request_ids = range(len(images))
        futures = [
            self.submit(spec, image, rid)
            for image, rid in zip(images, request_ids)
        ]
        return [future.result(timeout=timeout) for future in futures]

    def classify_direct(
        self,
        spec: ModelSpec,
        images: Sequence,
        request_ids: Optional[Sequence[int]] = None,
        degraded: bool = False,
    ) -> List[Prediction]:
        """One synchronous forward pass in the calling thread.

        Bypasses the queue and the batcher (used by the service's
        degradation path and by benchmarks); noise streams are keyed
        identically to the batched path, so the predictions match.
        """
        spec = spec.resolved(self.workbench.config)
        if request_ids is None:
            request_ids = range(len(images))
        batch = [
            _Request(
                spec=spec,
                image=np.asarray(image, dtype=np.float32),
                request_id=int(rid),
                future=Future(),
                enqueued_s=perf_counter(),
            )
            for image, rid in zip(images, request_ids)
        ]
        return self._execute(batch, degraded=degraded)

    def warm(self, *specs: ModelSpec) -> "InferenceEngine":
        """Promote ``specs`` into the registry's warm tier now."""
        for spec in specs:
            self._model_entry(spec.resolved(self.workbench.config))
        return self

    def stats(self) -> EngineStatsView:
        """The engine's live telemetry view (and its metric registry)."""
        return self._stats

    def cached_specs(self) -> List[ModelSpec]:
        """Warm-tier contents, least recently used first."""
        return self.registry.warm_specs()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _model_entry(self, spec: ModelSpec) -> Tuple[object, threading.Lock]:
        # The registry owns the tiers: warm hit, cold promotion, or a
        # train on a true miss — with the LRU/quota bookkeeping and
        # compile-at-admission the old private cache did by hand.
        entry = self.registry.entry(spec)
        return entry.model, entry.lock

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            self._queue_depth.dec()
            batch = [first]
            deadline = monotonic() + self.max_wait_ms / 1e3
            requeue = None
            while len(batch) < self.max_batch:
                remaining = deadline - monotonic()
                try:
                    if remaining <= 0:
                        nxt = self._queue.get_nowait()
                    else:
                        nxt = self._queue.get(timeout=min(remaining, 0.05))
                except queue.Empty:
                    if remaining <= 0:
                        break
                    continue
                self._queue_depth.dec()
                if nxt.spec == batch[0].spec:
                    batch.append(nxt)
                else:
                    # Different spec: close this batch, hand the
                    # stranger back for another worker (or this one's
                    # next iteration) to coalesce with its own kind.
                    requeue = nxt
                    break
            if requeue is not None:
                self._queue.put(requeue)
                self._queue_depth.inc()
            try:
                predictions = self._execute(batch)
            except BaseException as exc:  # noqa: BLE001 - fail the requests
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
                continue
            for request, prediction in zip(batch, predictions):
                request.future.set_result(prediction)

    def _execute(
        self, batch: List[_Request], degraded: bool = False
    ) -> List[Prediction]:
        spec = batch[0].spec
        model, lock = self._model_entry(spec)
        images = np.stack([request.image for request in batch])
        ids = [request.request_id for request in batch]
        with lock:
            logits = self._forward(model, images, ids)
        now = perf_counter()
        latencies = [now - request.enqueued_s for request in batch]
        labels = logits.argmax(axis=1)
        self._stats.record_batch(spec.token(), latencies, degraded=degraded)
        return [
            Prediction(
                request_id=request.request_id,
                spec=spec,
                label=int(labels[row]),
                logits=logits[row].copy(),
                batch_size=len(batch),
                latency_s=latencies[row],
                degraded=degraded,
            )
            for row, request in enumerate(batch)
        ]

    def _forward(
        self, model, images: np.ndarray, request_ids: List[int]
    ) -> np.ndarray:
        # The per-request noise-row contract lives in the shared
        # executor so the cluster workers run the identical code path.
        return forward_with_request_noise(
            model,
            images,
            request_ids,
            self.seed,
            registry=self._stats.registry,
            compile_models=self.compile_models,
        )
