"""Asyncio front door: admit, batch, route — the one admission layer.

One :class:`FrontDoor` instance owns all admission and batching policy
over an executor: the in-process
:class:`~repro.serve.executor.InProcessExecutor` or the multi-process
:class:`~repro.serve.cluster.ServeCluster`.  Per model spec it keeps a
bounded :class:`asyncio.Queue` and one batcher coroutine that
coalesces requests (up to ``max_batch``) and dispatches whole batches
to the executor, which routes each to its least-loaded eligible
replica.  Batching is **work-conserving**: a lane takes whatever is
queued and dispatches it at once while a replica eligible for it is
idle.  Only when every such replica already has a batch in flight does
a partial batch wait for stragglers — until it fills, ``max_wait_s``
passes, or one of the door's dispatches completes and may have freed a
replica.  Light load therefore pays no coalescing window, and under
load batches still fill while the replicas are busy.  It is the only
code that admits, sheds, degrades or expires a request:

- **load shedding** — a full queue fails ``submit`` fast with
  :class:`~repro.errors.ServiceOverloadError`
  (``serve.requests_shed``), or serves the request from
  ``fallback_spec`` marked ``degraded=True``
  (``serve.requests_fallback``);
- **deadlines** — requests that expire while queued resolve to
  :class:`~repro.errors.ServiceTimeoutError`
  (``serve.deadline_missed``) instead of wasting replica time;
- **backpressure** — a per-spec semaphore bounds batches in flight to
  2x the eligible replica count, so a slow replica backs traffic up
  into the bounded queue (where shedding happens) rather than growing
  an unbounded dispatch backlog;
- **warm-on-miss** — a request for a spec the executor has not warmed
  yet never blocks the door behind a train-or-load: it triggers the
  executor's background ``warm_async`` (deduplicated per spec by the
  cluster, queued on its one thread by the in-process executor) and
  is immediately degraded to ``fallback_spec`` when that is already
  warm, or shed with a retry hint (``registry.warmup_triggered``).  A
  retry after the warm-up lands is served from the registry's warm
  tier.

This module is **strictly non-blocking**: every wait is an ``await``.
Rule ``serve-blocking`` of ``tools/lint.py`` (tier-1) rejects any
blocking call — sleeps, synchronous file or socket I/O,
``Future.result`` — appearing here, so the event loop can never stall
behind a stray synchronous call.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, ServiceOverloadError, ServiceTimeoutError
from repro.serve.spec import ModelSpec

#: Queue sentinel: a batcher drains remaining items and exits on it.
_STOP = object()


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


async def _woken(event: asyncio.Event) -> None:
    """``event.wait()`` as a coroutine ``asyncio.wait_for`` can bound."""
    await event.wait()


@dataclass
class _Pending:
    spec: ModelSpec
    image: np.ndarray
    request_id: int
    future: "asyncio.Future[Prediction]"
    deadline: float
    enqueued_s: float = field(default_factory=monotonic)


class FrontDoor:
    """Admission control and micro-batching over an executor.

    Parameters
    ----------
    cluster:
        The executor: an :class:`~repro.serve.executor.InProcessExecutor`
        or a started :class:`~repro.serve.cluster.ServeCluster` (anything
        with ``resolve`` / ``submit_batch`` / ``replica_count`` /
        ``has_idle_replica`` / ``stats`` / ``is_warm`` /
        ``warm_async``).  The front door owns admission and batching
        policy only; the executor owns replicas and weights.
    queue_size:
        Admission bound per spec; a full queue sheds (or degrades).
    max_batch:
        Largest batch handed to a replica in one dispatch.
    max_wait_s:
        The longest a partial batch waits for stragglers while every
        replica eligible for its spec is busy.  A partial batch with an
        idle replica to go to never waits.
    timeout_s:
        Per-request deadline, measured from admission.
    fallback_spec:
        Optional cheaper spec served (marked ``degraded=True``) when a
        queue is saturated, instead of shedding.
    """

    def __init__(
        self,
        cluster,
        *,
        queue_size: int = 64,
        max_batch: int = 8,
        max_wait_s: float = 0.005,
        timeout_s: float = 30.0,
        fallback_spec: Optional[ModelSpec] = None,
    ):
        if queue_size < 1:
            raise ConfigError(f"queue_size must be >= 1, got {queue_size}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0, got {timeout_s}")
        self.cluster = cluster
        self.queue_size = queue_size
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.timeout_s = timeout_s
        self.fallback_spec = fallback_spec
        registry = cluster.stats().registry
        self._shed = registry.counter("serve.requests_shed")
        self._fallbacks = registry.counter("serve.requests_fallback")
        self._warmups_triggered = registry.counter(
            "registry.warmup_triggered"
        )
        self._deadline_missed = registry.counter("serve.deadline_missed")
        self._door_depth = registry.gauge("serve.frontdoor_depth")
        self._queues: Dict[str, asyncio.Queue] = {}
        self._batchers: Dict[str, asyncio.Task] = {}
        self._dispatch_slots: Dict[str, asyncio.Semaphore] = {}
        #: Per lane: set on each admission and each completed dispatch,
        #: so a held partial batch re-checks for stragglers and idle
        #: replicas.
        self._wakeups: Dict[str, asyncio.Event] = {}
        self._dispatches: set = set()
        self._draining = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def submit(
        self, spec: ModelSpec, image, request_id: int
    ) -> "asyncio.Future[Prediction]":
        """Admit one request; the returned future resolves to its
        :class:`Prediction`.

        A saturated queue either degrades to ``fallback_spec`` or
        raises :class:`~repro.errors.ServiceOverloadError` immediately
        — admission never waits.  Nor does a cold spec: a request for
        an unwarmed model starts the executor's background warm-up
        and is degraded or shed right away (retry once warm).
        """
        if self._draining:
            raise ServiceOverloadError("front door is draining")
        spec = self.cluster.resolve(spec)
        token = spec.token()
        if not self.cluster.is_warm(token):
            return await self._handle_cold(spec, token, image, request_id)
        queue = self._ensure_lane(token)
        item = _Pending(
            spec=spec,
            image=np.asarray(image, dtype=np.float32),
            request_id=int(request_id),
            future=asyncio.get_running_loop().create_future(),
            deadline=monotonic() + self.timeout_s,
        )
        try:
            queue.put_nowait(item)
            self._door_depth.inc()
            self._wakeups[token].set()
        except asyncio.QueueFull:
            if self.fallback_spec is not None:
                self._fallbacks.inc()
                return await self._degrade(item)
            self._shed.inc()
            raise ServiceOverloadError(
                f"front door queue for {token!r} is full "
                f"({self.queue_size} pending); back off and retry, or "
                "configure fallback_spec for degradation"
            ) from None
        return item.future

    async def classify(
        self, spec: ModelSpec, image, request_id: int
    ) -> Prediction:
        """Submit one request and await its prediction."""
        future = await self.submit(spec, image, request_id)
        return await future

    async def drain(self) -> None:
        """Stop admitting, flush every lane, await in-flight batches."""
        self._draining = True
        for token, queue in self._queues.items():
            queue.put_nowait(_STOP)
            self._wakeups[token].set()
        if self._batchers:
            await asyncio.gather(
                *self._batchers.values(), return_exceptions=True
            )
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        self._batchers.clear()
        self._queues.clear()
        self._wakeups.clear()

    # ------------------------------------------------------------------
    # lanes and batching
    # ------------------------------------------------------------------
    def _ensure_lane(self, token: str) -> asyncio.Queue:
        queue = self._queues.get(token)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.queue_size)
            self._queues[token] = queue
            self._wakeups[token] = asyncio.Event()
            # 2x the eligible replicas: enough in-flight batches to
            # keep every replica busy, few enough that a stall backs
            # up into the bounded queue where shedding applies.
            slots = max(2, 2 * self.cluster.replica_count())
            self._dispatch_slots[token] = asyncio.Semaphore(slots)
            self._batchers[token] = asyncio.get_running_loop().create_task(
                self._batcher(token, queue), name=f"frontdoor-{token}"
            )
        return queue

    async def _collect_batch(self, token: str, queue: asyncio.Queue):
        """Coalesce up to ``max_batch`` live requests from one lane.

        Waits indefinitely for the first request, then takes whatever
        else is queued.  A partial batch goes out at once while a
        replica eligible for the lane is idle; otherwise it waits for
        stragglers until it fills, ``max_wait_s`` has passed since the
        first request, or a completed dispatch frees a replica.
        Expired requests are resolved to timeout errors here — before
        they cost a replica anything.  Returns ``(batch, stop)``; the
        batch can be empty without stopping when every collected
        request had expired.
        """
        batch: List[_Pending] = []
        stop = False
        wakeup = self._wakeups[token]
        item = await queue.get()
        cutoff = monotonic() + self.max_wait_s
        while True:
            if item is _STOP:
                stop = True
            else:
                self._door_depth.dec()
                if monotonic() >= item.deadline:
                    self._expire(item)
                else:
                    batch.append(item)
            if stop or len(batch) >= self.max_batch:
                break
            while queue.empty():
                if not batch or self.cluster.has_idle_replica(token):
                    return batch, stop
                remaining = cutoff - monotonic()
                if remaining <= 0:
                    return batch, stop
                wakeup.clear()
                try:
                    await asyncio.wait_for(_woken(wakeup), timeout=remaining)
                except asyncio.TimeoutError:
                    return batch, stop
            item = queue.get_nowait()
        return batch, stop

    async def _batcher(self, token: str, queue: asyncio.Queue) -> None:
        """One lane's coalescing loop: collect, dispatch, repeat.

        Dispatch is fire-and-forget behind the lane's semaphore, so a
        batch executing on one replica never stops the next batch from
        being coalesced and routed to another.
        """
        slots = self._dispatch_slots[token]
        while True:
            batch, stop = await self._collect_batch(token, queue)
            if batch:
                await slots.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(token, batch)
                )
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)
                task.add_done_callback(lambda _t, s=slots: s.release())
                task.add_done_callback(self._wake_lanes)
            if stop:
                return

    def _wake_lanes(self, _task) -> None:
        """A dispatch finished: its replica may be idle for any lane."""
        for wakeup in self._wakeups.values():
            wakeup.set()

    async def _dispatch(self, token: str, batch: List[_Pending]) -> None:
        """Run one batch on the executor and resolve its futures."""
        spec = batch[0].spec
        images = np.stack([item.image for item in batch])
        request_ids = [item.request_id for item in batch]
        try:
            logits = await asyncio.wrap_future(
                self.cluster.submit_batch(spec, images, request_ids)
            )
        except BaseException as exc:  # noqa: BLE001 - report per request
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        now = monotonic()
        stats = self.cluster.stats()
        latencies = [now - item.enqueued_s for item in batch]
        stats.record_batch(token, latencies)
        for row, item in enumerate(batch):
            if item.future.done():
                continue
            if now >= item.deadline:
                self._expire(item, in_flight=True)
                continue
            item.future.set_result(
                Prediction(
                    request_id=item.request_id,
                    spec=spec,
                    label=int(np.argmax(logits[row])),
                    logits=logits[row],
                    batch_size=len(batch),
                    latency_s=now - item.enqueued_s,
                )
            )

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _expire(self, item: _Pending, in_flight: bool = False) -> None:
        self._deadline_missed.inc()
        where = "in flight" if in_flight else "in queue"
        if not item.future.done():
            item.future.set_exception(
                ServiceTimeoutError(
                    f"request {item.request_id} missed its "
                    f"{self.timeout_s}s deadline {where}"
                )
            )

    async def _handle_cold(
        self, spec: ModelSpec, token: str, image, request_id: int
    ) -> "asyncio.Future[Prediction]":
        """Admission path for a spec no replica can serve yet.

        Kicks off (or joins) the executor's background
        warm-up, then degrades to ``fallback_spec`` when that is
        already warm — otherwise sheds with a retry hint.  Either way
        the event loop never waits on the train-or-load.
        """
        self._warmups_triggered.inc()
        self.cluster.warm_async(spec)
        fallback_warm = (
            self.fallback_spec is not None
            and self.cluster.is_warm(
                self.cluster.resolve(self.fallback_spec).token()
            )
        )
        if fallback_warm:
            self._fallbacks.inc()
            item = _Pending(
                spec=spec,
                image=np.asarray(image, dtype=np.float32),
                request_id=int(request_id),
                future=asyncio.get_running_loop().create_future(),
                deadline=monotonic() + self.timeout_s,
            )
            return await self._degrade(item)
        self._shed.inc()
        raise ServiceOverloadError(
            f"model {token!r} is not warm; background warm-up started — "
            "retry shortly (or configure a warm fallback_spec)"
        )

    async def _degrade(self, item: _Pending) -> "asyncio.Future[Prediction]":
        """Serve a shed request from the fallback spec, degraded."""
        spec = self.cluster.resolve(self.fallback_spec)
        future = item.future
        try:
            logits = await asyncio.wrap_future(
                self.cluster.submit_batch(
                    spec, item.image[None], [item.request_id]
                )
            )
            now = monotonic()
            self.cluster.stats().record_batch(
                spec.token(), [now - item.enqueued_s], degraded=True
            )
            future.set_result(
                Prediction(
                    request_id=item.request_id,
                    spec=spec,
                    label=int(np.argmax(logits[0])),
                    logits=logits[0],
                    batch_size=1,
                    latency_s=now - item.enqueued_s,
                    degraded=True,
                )
            )
        except BaseException as exc:  # noqa: BLE001 - report to caller
            if not future.done():
                future.set_exception(exc)
        return future


__all__ = ["FrontDoor", "Prediction"]
