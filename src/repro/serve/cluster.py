"""Shared-nothing multi-process serving cluster.

:class:`ServeCluster` is the multi-process implementation of the
executor interface the :class:`~repro.serve.frontdoor.FrontDoor`
drives: N replica **processes**, each running the same forward
(:func:`repro.serve.executor.forward_with_request_noise`) the
in-process :class:`~repro.serve.executor.InProcessExecutor` runs —
which is what makes per-request determinism structural: the same
``(spec, seed, request_id, image)`` produces bit-identical logits at
any replica count, for every registered error model.

Key mechanics:

- **published weights** — the parent resolves each spec once through
  the model registry (:mod:`repro.registry` — warm hit, cold-tier
  promotion, or a train on a true miss), pins the warm entry for the
  lifetime of the publication, and publishes the state dict as one
  artifact file (:func:`repro.utils.save_state`), and replicas map it
  (:mod:`repro.serve.shared`) and bind parameter arrays as read-only
  views straight into the mapping.  No per-worker weight
  copy, under any multiprocessing start method.
- **replica protocol** — one duplex pipe per replica; the parent's
  reader thread resolves futures as replies arrive, so any number of
  batches can be in flight across replicas.  Workers are
  single-threaded request loops: recv, execute, reply.
- **routing** — ``shard_by="model"`` pins each spec to one replica
  (CRC of the spec token), shrinking per-replica working sets;
  ``shard_by="none"`` lets every replica serve every spec and the
  dispatcher picks the least-loaded eligible one (ties rotate
  round-robin).
- **drain / rolling restart** — workers run under
  :mod:`repro.ckpt.signals`: SIGTERM (or a ``drain`` command) lets the
  in-flight batch finish before the process exits, and
  :meth:`ServeCluster.rolling_restart` swaps replicas one at a time —
  warm the replacement, shift routing, drain the old — so a restart
  never drops below N-0 serving capacity.
- **telemetry** — the parent records per-replica batch counts,
  in-flight depth and exact p50/p99 into a
  :class:`~repro.serve.stats.ServeStats`; worker-local counters
  (compiled/interpreted batches, worker wall time) are drained and
  merged under a ``replica`` label via the atomic
  ``MetricRegistry.merge_snapshot``, so ``obs summary`` reconstructs
  the cluster report from the journal.

:class:`ClusterService` is the synchronous facade over either
executor: it runs the asyncio front door (:mod:`repro.serve.frontdoor`)
on a dedicated event-loop thread and exposes blocking
``submit``/``classify`` calls.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
import traceback
from concurrent.futures import Future
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

import numpy as np

from repro.errors import (
    ConfigError,
    ReplicaError,
    ServiceOverloadError,
    ServiceTimeoutError,
    WorkerLostError,
)
from repro.obs.journal import journal_event
from repro.obs.metrics import MetricRegistry
from repro.parallel.runner import start_method
from repro.serve.shared import bind_shared, bound_fraction, process_rss_kb
from repro.serve.spec import ModelSpec
from repro.serve.stats import LATENCY_MS_BUCKETS, ServeStats
from repro.utils.serialization import save_state

#: Recognized request-routing policies.
SHARD_POLICIES: Tuple[str, ...] = ("none", "model")

#: Seconds a worker's recv loop waits per poll before re-checking the
#: drain flag; also the parent's join granularity.
_POLL_S = 0.05

#: Default seconds to wait for a replica to spawn, warm, or drain.
_DEFAULT_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, conn, init: dict) -> None:
    """Replica entry point: bind shared weights, answer batch commands.

    Runs in its own process.  The loop polls the pipe so a drain signal
    (SIGTERM via :mod:`repro.ckpt.signals`, or SIGINT forwarded to the
    whole process group by the terminal) is honored at the next message
    boundary — the in-flight batch always completes and is replied to
    before the process exits.
    """
    from repro import compile as repro_compile
    from repro.ckpt.signals import clear_interrupt, install_handlers
    from repro.ckpt.signals import interrupt_requested
    from repro.experiments.common import Workbench
    from repro.serve.executor import forward_with_request_noise

    clear_interrupt()
    install_handlers()
    bench = Workbench(init["config"])
    seed = init["seed"]
    repro_compile.set_enabled(init["compile"])
    registry = MetricRegistry()
    models: Dict[str, object] = {}

    def _warm(published: Dict[str, dict]) -> dict:
        bound = 0
        for token, entry in published.items():
            if token in models:
                continue
            spec = ModelSpec.parse(token)
            model = bench.build(spec, calibrate=False)
            bound += bind_shared(model, entry["path"])
            # The input quantizer's rescale constant is a plain
            # attribute, not state-dict state — restore it from the
            # parent's calibrated value instead of materializing the
            # training split here.
            if entry.get("input_max_abs") is not None:
                model.input_adapter.max_abs = entry["input_max_abs"]
            model.eval()
            repro_compile.maybe_compiled(model)
            models[token] = model
        fractions = [bound_fraction(m) for m in models.values()]
        return {
            "bound_bytes": bound,
            "shared_fraction": min(fractions) if fractions else 0.0,
            "rss_kb": process_rss_kb(),
        }

    def _batch(payload) -> np.ndarray:
        token, images, request_ids = payload
        model = models.get(token)
        if model is None:
            raise ConfigError(
                f"replica {worker_id} was never warmed for {token!r}; "
                "call ServeCluster.warm(spec) before submitting traffic"
            )
        start = perf_counter()
        logits = forward_with_request_noise(
            model, images, request_ids, seed, registry=registry
        )
        # Looked up per batch, like the counters: the "stats" command
        # drains the registry, which unregisters every metric.
        registry.histogram(
            "serve.worker_batch_ms", buckets=LATENCY_MS_BUCKETS
        ).observe(1e3 * (perf_counter() - start))
        registry.counter("serve.worker_batches").inc()
        registry.counter("serve.worker_requests").inc(len(request_ids))
        return logits

    handlers = {
        "ping": lambda payload: {"worker": worker_id, "pid": os.getpid()},
        "warm": _warm,
        "batch": _batch,
        "stats": lambda payload: registry.drain(),
        "meminfo": lambda payload: {
            "rss_kb": process_rss_kb(),
            "models": len(models),
            "shared_fraction": (
                min(bound_fraction(m) for m in models.values())
                if models
                else 0.0
            ),
        },
    }
    draining = False
    try:
        while not draining:
            if interrupt_requested():
                break
            if not conn.poll(_POLL_S):
                continue
            try:
                msg_id, cmd, payload = conn.recv()
            except (EOFError, OSError):
                break
            if cmd == "drain":
                draining = True
                conn.send((msg_id, "ok", {"worker": worker_id}))
                continue
            handler = handlers.get(cmd)
            if handler is None:
                conn.send(
                    (msg_id, "error",
                     ("ConfigError", f"unknown command {cmd!r}", ""))
                )
                continue
            try:
                result = handler(payload)
            except BaseException as exc:  # noqa: BLE001 - ship to parent
                conn.send(
                    (
                        msg_id,
                        "error",
                        (
                            type(exc).__name__,
                            str(exc),
                            traceback.format_exc(),
                        ),
                    )
                )
                continue
            conn.send((msg_id, "ok", result))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# parent-side replica handle
# ----------------------------------------------------------------------
class Replica:
    """Parent-side handle to one worker process.

    ``call`` is pipelined: a writer lock serializes sends, a reader
    thread resolves futures as replies arrive, so several batches can
    be outstanding on one replica (they execute serially worker-side).
    """

    def __init__(self, replica_id: int, ctx, init: dict):
        self.replica_id = replica_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(replica_id, child_conn, init),
            name=f"serve-replica-{replica_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._ids = itertools.count()
        self._send_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._pending_lock = threading.Lock()
        self._lost = False
        self._draining = False
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"serve-replica-{replica_id}-reader",
            daemon=True,
        )
        self._reader.start()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._lost and self.process.is_alive()

    @property
    def accepting(self) -> bool:
        """Whether the dispatcher may route new work here."""
        return self.alive and not self._draining

    @property
    def inflight(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def call(self, cmd: str, payload=None) -> Future:
        """Send one command; the future resolves with the reply."""
        future: Future = Future()
        if self._lost:
            future.set_exception(
                WorkerLostError(f"replica {self.replica_id} is gone")
            )
            return future
        with self._send_lock:
            msg_id = next(self._ids)
            with self._pending_lock:
                self._pending[msg_id] = future
            try:
                self._conn.send((msg_id, cmd, payload))
            except (OSError, ValueError, BrokenPipeError) as exc:
                with self._pending_lock:
                    self._pending.pop(msg_id, None)
                future.set_exception(
                    WorkerLostError(
                        f"replica {self.replica_id} pipe closed: {exc}"
                    )
                )
        return future

    def _read_loop(self) -> None:
        while True:
            try:
                msg_id, status, result = self._conn.recv()
            except (EOFError, OSError):
                break
            with self._pending_lock:
                future = self._pending.pop(msg_id, None)
            if future is None or future.done():
                continue
            if status == "ok":
                future.set_result(result)
            else:
                kind, message, worker_tb = result
                future.set_exception(
                    ReplicaError(
                        f"replica {self.replica_id} failed: "
                        f"{kind}: {message}",
                        worker_traceback=worker_tb,
                    )
                )
        self._lost = True
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    WorkerLostError(
                        f"replica {self.replica_id} exited with "
                        f"{len(pending)} request(s) in flight"
                    )
                )

    def drain(self, timeout: float = _DEFAULT_TIMEOUT_S) -> bool:
        """Graceful stop: finish in-flight work, then exit.

        Marks the replica non-accepting immediately, sends the drain
        command (falling back to SIGTERM — the
        :mod:`repro.ckpt.signals` path — if the pipe is gone), and
        joins.  Returns True when the process exited by itself;
        a stuck process is terminated after ``timeout``.
        """
        self._draining = True
        try:
            self.call("drain").result(timeout=timeout)
        except Exception:
            if self.process.is_alive():
                self.process.terminate()
        self.process.join(timeout=timeout)
        clean = not self.process.is_alive()
        if not clean:
            self.process.kill()
            self.process.join(timeout=5.0)
        self._lost = True
        try:
            self._conn.close()
        except OSError:
            pass
        return clean


# ----------------------------------------------------------------------
# the cluster
# ----------------------------------------------------------------------
class ServeCluster:
    """N replica processes behind one weight store and one stats view.

    Parameters
    ----------
    workbench:
        Anything with ``.config`` and a train-or-load path — normally a
        :class:`repro.experiments.common.Workbench`.  Only the parent
        touches training and the dataset; replicas receive the config
        and the paths of the published weight files.
    workers:
        Replica process count.
    shard_by:
        ``"none"`` routes every spec to every replica (least-loaded);
        ``"model"`` pins each spec to one replica by token CRC.
    seed:
        Root of the per-request noise streams (default: the workbench
        config's seed) — the same contract as the in-process executor.
    share_dir:
        Directory for the published weight files (default: a fresh
        temp dir, removed on :meth:`stop`).
    registry:
        The :class:`repro.registry.ModelRegistry` the parent acquires
        models through (default: a private one over ``workbench``
        reporting into the cluster's metric registry).  Published specs
        are **pinned** warm entries: registry eviction demotes them to
        the evictable tier instead of dropping them, so the files
        replicas map stay backed until :meth:`stop` unpins.
    tenant:
        The registry tenant this cluster's acquisitions are charged to.
    """

    def __init__(
        self,
        workbench,
        *,
        workers: int = 2,
        shard_by: str = "none",
        seed: Optional[int] = None,
        share_dir: Optional[str] = None,
        registry=None,
        tenant: str = "default",
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if shard_by not in SHARD_POLICIES:
            import difflib

            close = difflib.get_close_matches(shard_by, SHARD_POLICIES, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigError(
                f"unknown shard_by {shard_by!r}; options: "
                f"{list(SHARD_POLICIES)}{hint}"
            )
        self.workbench = workbench
        self.workers = workers
        self.shard_by = shard_by
        self.seed = workbench.config.seed if seed is None else seed
        self._own_share_dir = share_dir is None
        self.share_dir = share_dir
        self._ctx = multiprocessing.get_context(start_method())
        self._replicas: List[Replica] = []
        self._replica_ids = itertools.count()
        #: Rotates least-loaded ties over the eligible replicas.
        self._turns = itertools.count()
        #: token -> warm payload ({"path": published file, ...}).
        self._published: Dict[str, dict] = {}
        self._stats = ServeStats()
        self._lock = threading.Lock()
        self._started = False
        self.tenant = tenant
        if registry is None:
            from repro.registry import ModelRegistry

            registry = ModelRegistry(
                workbench, metrics=self._stats.registry
            )
        self.registry = registry
        #: token -> in-flight background warm-up (deduplication).
        self._warmups: Dict[str, Future] = {}
        self._warmup_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeCluster":
        """Spawn the replica processes (idempotent)."""
        if self._started:
            return self
        if self.share_dir is None:
            self.share_dir = tempfile.mkdtemp(prefix="repro-serve-shared-")
        self._started = True
        for _ in range(self.workers):
            self._spawn_replica()
        return self

    def _init_payload(self) -> dict:
        from repro import compile as repro_compile

        # The compile switch as read at spawn, so a spawned replica
        # follows --no-compile / compile.disabled() like a forked one.
        return {
            "config": self.workbench.config,
            "seed": self.seed,
            "compile": repro_compile.enabled(),
        }

    def _spawn_replica(self) -> Replica:
        replica = Replica(
            next(self._replica_ids), self._ctx, self._init_payload()
        )
        replica.call("ping").result(timeout=_DEFAULT_TIMEOUT_S)
        if self._published:
            replica.call("warm", dict(self._published)).result(
                timeout=_DEFAULT_TIMEOUT_S
            )
        with self._lock:
            self._replicas.append(replica)
        journal_event(
            "serve.replica", replica=replica.replica_id, action="started"
        )
        return replica

    def stop(self) -> None:
        """Drain every replica and remove the published files."""
        with self._lock:
            replicas, self._replicas = self._replicas, []
        for replica in replicas:
            replica.drain()
            journal_event(
                "serve.replica", replica=replica.replica_id, action="drained"
            )
        if self._own_share_dir and self.share_dir:
            shutil.rmtree(self.share_dir, ignore_errors=True)
            self.share_dir = None
        self._started = False
        for token in list(self._published):
            self.registry.unpin(ModelSpec.parse(token), tenant=self.tenant)
        self._published.clear()

    def __enter__(self) -> "ServeCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def resolve(self, spec: ModelSpec) -> ModelSpec:
        return spec.resolved(self.workbench.config)

    def warm(self, *specs: ModelSpec) -> "ServeCluster":
        """Acquire, publish, and bind ``specs`` on every replica.

        The parent resolves each spec through the model registry (warm
        hit, cold promotion, or a train on a true miss), pins the warm
        entry so registry eviction cannot drop it while replicas hold
        the mmap, and pays the single publication write; each eligible
        replica binds the mapping zero-copy and compiles.  Idempotent
        per spec.
        """
        if not self._started:
            raise ConfigError("cluster is not started; call start() first")
        for spec in specs:
            spec = self.resolve(spec)
            token = spec.token()
            if token in self._published:
                continue
            model, _meta = self.registry.get(spec, tenant=self.tenant)
            path = os.path.abspath(
                os.path.join(self.share_dir, f"{spec.cache_name()}.state")
            )
            state = model.state_dict()
            save_state(path, state)
            entry = {
                "path": path,
                "input_max_abs": getattr(
                    model.input_adapter, "max_abs", None
                ),
            }
            self._published[token] = entry
            self.registry.pin(spec, tenant=self.tenant)
            journal_event(
                "serve.shared",
                spec=token,
                bytes=sum(arr.nbytes for arr in state.values()),
                path=path,
            )
            futures = [
                (replica, replica.call("warm", {token: entry}))
                for replica in self._eligible(token)
            ]
            try:
                for replica, future in futures:
                    info = future.result(timeout=_DEFAULT_TIMEOUT_S)
                    journal_event(
                        "serve.replica",
                        replica=replica.replica_id,
                        action="warmed",
                        spec=token,
                        rss_kb=info.get("rss_kb"),
                    )
            except BaseException:
                # A spec some replica could not bind is not published:
                # a later warm retries it instead of trusting it.
                del self._published[token]
                self.registry.unpin(spec, tenant=self.tenant)
                raise
        return self

    def published_specs(self) -> List[str]:
        """Tokens of every spec published to the cluster so far."""
        return sorted(self._published)

    def is_warm(self, token: str) -> bool:
        """Whether ``token`` is published (replicas can serve it now)."""
        return token in self._published

    def warm_async(
        self,
        spec: ModelSpec,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Background :meth:`warm` — the front door's miss path.

        Returns a future resolving to the spec token once the spec is
        published and bound on every eligible replica.  Warm-ups are
        deduplicated per token, so a request racing its own warm-up
        joins the in-flight one instead of training twice.
        ``deadline_s`` bounds how long a warm-up may take end to end;
        a late one journals ``registry.warmup`` ``status="expired"``
        and fails with :class:`~repro.errors.ServiceTimeoutError`.
        The journal carries the full started/done lifecycle, so ``obs
        summary`` reconstructs background warm-ups from events alone.
        """
        spec = self.resolve(spec)
        token = spec.token()
        with self._warmup_lock:
            pending = self._warmups.get(token)
            if pending is not None:
                return pending
            future: Future = Future()
            self._warmups[token] = future
        deadline = None if deadline_s is None else monotonic() + deadline_s
        journal_event("registry.warmup", spec=token, status="started")
        self._stats.registry.counter("registry.warmup_started").inc()

        def _run() -> None:
            try:
                self.warm(spec)
                if deadline is not None and monotonic() > deadline:
                    journal_event(
                        "registry.warmup", spec=token, status="expired"
                    )
                    raise ServiceTimeoutError(
                        f"warm-up of {token!r} finished after its "
                        f"{deadline_s}s deadline"
                    )
            except BaseException as exc:  # noqa: BLE001 - ship to waiter
                if not isinstance(exc, ServiceTimeoutError):
                    journal_event(
                        "registry.warmup",
                        spec=token,
                        status="failed",
                        error=str(exc),
                    )
                future.set_exception(exc)
            else:
                journal_event("registry.warmup", spec=token, status="done")
                future.set_result(token)
            finally:
                with self._warmup_lock:
                    self._warmups.pop(token, None)

        threading.Thread(
            target=_run, name=f"serve-warmup-{token}", daemon=True
        ).start()
        return future

    # ------------------------------------------------------------------
    # routing + execution
    # ------------------------------------------------------------------
    def _eligible(self, token: str) -> List[Replica]:
        with self._lock:
            accepting = [r for r in self._replicas if r.accepting]
        if not accepting:
            raise WorkerLostError("no live replicas accepting traffic")
        if self.shard_by == "model":
            return [accepting[crc32(token.encode()) % len(accepting)]]
        return accepting

    def pick_replica(self, token: str) -> Replica:
        """The least-loaded replica eligible for ``token``.

        Ties on in-flight depth rotate round-robin, so light sequential
        traffic spreads evenly instead of always landing on the first.
        """
        eligible = self._eligible(token)
        turn = next(self._turns) % len(eligible)
        rotated = eligible[turn:] + eligible[:turn]
        return min(rotated, key=lambda r: r.inflight)

    def has_idle_replica(self, token: str) -> bool:
        """Whether a replica eligible for ``token`` has nothing in flight.

        With no accepting replica at all this is True, so the caller
        dispatches at once and the batch fails fast with
        :class:`~repro.errors.WorkerLostError` instead of waiting.
        """
        try:
            eligible = self._eligible(token)
        except WorkerLostError:
            return True
        return any(r.inflight == 0 for r in eligible)

    def submit_batch(
        self,
        spec: ModelSpec,
        images: np.ndarray,
        request_ids: Sequence[int],
    ) -> "Future[np.ndarray]":
        """Dispatch one ready-made batch; resolves to the logits array.

        Picks the least-loaded eligible replica, tracks its in-flight
        depth, and records the batch into the cluster stats on reply.
        """
        token = self.resolve(spec).token()
        replica = self.pick_replica(token)
        payload = (
            token,
            np.asarray(images, dtype=np.float32),
            [int(rid) for rid in request_ids],
        )
        depth = self._stats.registry.gauge(
            "serve.replica_inflight", replica=str(replica.replica_id)
        )
        depth.inc()
        started = monotonic()
        future = replica.call("batch", payload)

        def _done(f: Future) -> None:
            depth.dec()
            if f.cancelled() or f.exception() is not None:
                return
            self._stats.record_replica_batch(
                replica.replica_id, len(payload[2]), monotonic() - started
            )

        future.add_done_callback(_done)
        return future

    def execute(
        self,
        spec: ModelSpec,
        images,
        request_ids: Optional[Sequence[int]] = None,
        timeout: float = _DEFAULT_TIMEOUT_S,
    ) -> np.ndarray:
        """Synchronous one-batch convenience (tests, benchmarks)."""
        images = np.stack(
            [np.asarray(image, dtype=np.float32) for image in images]
        )
        if request_ids is None:
            request_ids = range(len(images))
        return self.submit_batch(spec, images, request_ids).result(
            timeout=timeout
        )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def rolling_restart(self) -> None:
        """Replace every replica one at a time, without losing capacity.

        For each old replica: spawn and warm a replacement (traffic
        keeps flowing to the others), shift routing to it, then drain
        the old one — in-flight batches complete before its process
        exits, via the same signal-drain contract training runs use.
        """
        with self._lock:
            old = list(self._replicas)
        for replica in old:
            self._spawn_replica()
            replica._draining = True  # stop routing new work here
            replica.drain()
            with self._lock:
                self._replicas = [
                    r for r in self._replicas if r is not replica
                ]
            journal_event(
                "serve.replica",
                replica=replica.replica_id,
                action="restarted",
            )

    def flush_worker_stats(self) -> None:
        """Drain every worker's local registry into the cluster view."""
        with self._lock:
            replicas = [r for r in self._replicas if r.alive]
        futures = [(r, r.call("stats")) for r in replicas]
        for replica, future in futures:
            try:
                snapshot = future.result(timeout=_DEFAULT_TIMEOUT_S)
            except (WorkerLostError, ReplicaError):
                continue
            self._stats.merge_worker(replica.replica_id, snapshot)

    def meminfo(self) -> Dict[int, dict]:
        """Per-replica RSS and shared-binding report."""
        with self._lock:
            replicas = [r for r in self._replicas if r.alive]
        futures = [(r, r.call("meminfo")) for r in replicas]
        out: Dict[int, dict] = {}
        for replica, future in futures:
            out[replica.replica_id] = future.result(
                timeout=_DEFAULT_TIMEOUT_S
            )
        return out

    def stats(self) -> ServeStats:
        """The cluster's live telemetry view (front door + replicas)."""
        return self._stats

    def replica_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._replicas if r.accepting)


# ----------------------------------------------------------------------
# synchronous facade over the async front door
# ----------------------------------------------------------------------
class ClusterService:
    """Blocking client for an executor: the front door on a loop thread.

    For callers that are not async themselves (the CLI, tests,
    notebooks): ``submit`` returns a
    :class:`concurrent.futures.Future`, ``classify`` blocks.  The
    executor is a :class:`ServeCluster` or an
    :class:`~repro.serve.executor.InProcessExecutor`; all admission
    control, batching, shedding and deadline logic lives in
    :class:`repro.serve.frontdoor.FrontDoor`.
    """

    def __init__(self, cluster, **frontdoor_kwargs):
        from repro.serve.frontdoor import FrontDoor

        self.cluster = cluster
        self._door = FrontDoor(cluster, **frontdoor_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="serve-frontdoor",
            daemon=True,
        )
        self._thread.start()

    def _run(self, coroutine) -> Future:
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def submit(self, spec: ModelSpec, image, request_id: int) -> Future:
        """Admit one request; resolves to a Prediction (or raises the
        front door's overload/timeout errors)."""
        if self._loop.is_closed():
            raise ServiceOverloadError("service is closed")

        async def _submit():
            future = await self._door.submit(spec, image, request_id)
            return await future

        return self._run(_submit())

    def classify(
        self,
        spec: ModelSpec,
        images: Sequence,
        request_ids: Optional[Sequence[int]] = None,
        timeout: Optional[float] = _DEFAULT_TIMEOUT_S,
    ) -> List:
        """Submit a request set and wait for every prediction."""
        if request_ids is None:
            request_ids = range(len(images))
        futures = [
            self.submit(spec, image, rid)
            for image, rid in zip(images, request_ids)
        ]
        return [future.result(timeout=timeout) for future in futures]

    def close(self, timeout: float = _DEFAULT_TIMEOUT_S) -> None:
        """Drain the front door, then stop the loop thread."""
        if not self._thread.is_alive():
            return
        try:
            self._run(self._door.drain()).result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
            self._loop.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "ClusterService",
    "Replica",
    "SHARD_POLICIES",
    "ServeCluster",
]
