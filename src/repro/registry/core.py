"""The tiered, multi-tenant model-artifact registry.

:class:`ModelRegistry` is the single model-acquisition path: every
consumer — the experiment harness, the in-process serving executor, the
multi-process cluster — asks it for ``(model, metadata)`` by
:class:`~repro.serve.spec.ModelSpec`, and the registry decides which
tier answers:

- **warm** — a built model held in memory, compiled if requested,
  ready for :func:`repro.serve.executor.forward_with_request_noise`.
  One LRU pool across tenants, bounded by ``warm_max_entries`` and by
  per-tenant byte quotas.
- **cold** — the on-disk ``.state`` artifact under the workbench cache
  layout (:mod:`repro.registry.layout`).  A warm miss with a cold hit
  loads and *promotes*; nothing retrains.
- **evictable** — warm LRU victims still pinned by a consumer (a
  serving cluster holding the published mmap).  They leave the LRU
  accounting immediately but are only dropped when the last pin is
  released, so eviction can never yank a model out from under a
  replica.

A true miss (no artifact on disk) trains via the workbench's
train-or-load path — the *identical* code the legacy
``Workbench.model`` ran, which is what makes registry-resolved logits
bit-identical to the legacy path for every variant and error model.

Tier traffic is instrumented on a :class:`~repro.obs.MetricRegistry`
(``registry.tier_hit`` / ``tier_miss`` / ``tier_promote`` /
``tier_evict``, labeled by tier and tenant) and journaled as
``registry.tier`` / ``registry.warmup`` events, so ``obs summary``
reconstructs the tier behaviour of a run from its journal alone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, ServiceTimeoutError
from repro.obs.journal import journal_event
from repro.obs.metrics import MetricRegistry, default_registry
from repro.registry import layout
from repro.serve.spec import ModelSpec


def model_nbytes(model) -> int:
    """Byte footprint of a model's parameters and buffers."""
    return sum(
        np.asarray(value).nbytes for value in model.state_dict().values()
    )


@dataclass
class WarmEntry:
    """One warm-tier resident: the model plus its serving lock."""

    spec: ModelSpec
    tenant: str
    model: object
    meta: dict
    nbytes: int
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def token(self) -> str:
        return self.spec.token()


class ModelRegistry:
    """Tiered model acquisition over one workbench.

    Parameters
    ----------
    workbench:
        Anything with ``.config``, ``.build(spec)`` and
        ``._train_or_load(spec)`` — normally a
        :class:`repro.experiments.common.Workbench`.
    warm_max_entries:
        Global LRU capacity of the warm tier (across tenants).
    tenant_quotas:
        ``{tenant: max warm bytes}``.  A tenant without an entry is
        unbounded (the global LRU still applies); quota ``0`` means
        the tenant may never hold a warm entry — its requests are
        served straight from the cold tier every time.
    default_tenant:
        Tenant charged when ``get``/``entry`` are called without one.
    metrics:
        The :class:`~repro.obs.MetricRegistry` tier counters land on
        (default: the process-wide registry, so experiment runs see
        their tier traffic in the final journal snapshot).
    compile_models:
        Lower models to the compiled executor when they enter the warm
        tier (unless :func:`repro.compile.disabled` is in effect), so
        the first served batch does not pay the lowering.  The cold
        (``fresh=True``) path never compiles, matching the legacy
        workbench behaviour bit for bit.
    """

    def __init__(
        self,
        workbench,
        *,
        warm_max_entries: int = 8,
        tenant_quotas: Optional[Dict[str, int]] = None,
        default_tenant: str = "default",
        metrics: Optional[MetricRegistry] = None,
        compile_models: bool = False,
    ):
        if warm_max_entries < 1:
            raise ConfigError(
                f"warm_max_entries must be >= 1, got {warm_max_entries}"
            )
        for tenant, quota in (tenant_quotas or {}).items():
            if quota is not None and quota < 0:
                raise ConfigError(
                    f"tenant {tenant!r} quota must be >= 0 bytes, "
                    f"got {quota}"
                )
        self.workbench = workbench
        self.warm_max_entries = warm_max_entries
        self.tenant_quotas = dict(tenant_quotas or {})
        self.default_tenant = default_tenant
        self.metrics = metrics if metrics is not None else default_registry()
        self.compile_models = compile_models
        self._lock = threading.RLock()
        #: (tenant, token) -> WarmEntry, least recently used first.
        self._warm: "OrderedDict[Tuple[str, str], WarmEntry]" = OrderedDict()
        #: Warm victims still pinned: dropped at last unpin.
        self._evictable: Dict[Tuple[str, str], WarmEntry] = {}
        self._pins: Dict[Tuple[str, str], int] = {}
        #: token -> in-flight background warm-up (deduplication).
        self._warmups: Dict[str, Future] = {}

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------
    def get(
        self,
        spec: ModelSpec,
        *,
        tenant: Optional[str] = None,
        fresh: bool = False,
    ) -> Tuple[object, dict]:
        """``(model, metadata)`` for ``spec`` — the one entry point.

        ``fresh=True`` reproduces the legacy ``Workbench.model``
        contract exactly: a newly constructed model object per call
        (experiments mutate models — reseeding injectors, loading other
        weights into them — so they must not share the serving pool's
        residents), loaded from the cold tier when the artifact exists,
        trained otherwise.  The warm tier is neither consulted nor
        populated.

        ``fresh=False`` (serving) answers from the warm tier when
        possible, promotes a cold artifact on a warm miss, and trains
        on a true miss; the returned model is the shared warm resident
        (guard forward passes with :meth:`entry`'s lock).
        """
        spec = spec.resolved(self.workbench.config)
        tenant = tenant or self.default_tenant
        if fresh:
            tier = self._present_tier(spec)
            self._count_lookup(tier, tenant)
            model, meta = self.workbench._train_or_load(spec)
            return model, meta
        entry = self.entry(spec, tenant=tenant)
        return entry.model, entry.meta

    def entry(
        self, spec: ModelSpec, *, tenant: Optional[str] = None
    ) -> WarmEntry:
        """The warm-tier entry for ``spec``, loading/promoting on miss.

        For a zero-quota tenant the entry is built but never admitted,
        so the caller still gets a usable model while the warm pool
        stays untouched.
        """
        spec = spec.resolved(self.workbench.config)
        tenant = tenant or self.default_tenant
        key = (tenant, spec.token())
        with self._lock:
            entry = self._warm.get(key)
            if entry is not None:
                self._warm.move_to_end(key)
                self._count_lookup("warm", tenant)
                return entry
        # Build outside the registry lock: a cold spec may train for
        # seconds and must not block other tenants' warm hits.
        # Concurrent builders of the same spec are safe — the cold tier
        # is write-then-rename — and the loser's build is discarded.
        tier = self._present_tier(spec)
        self._count_lookup(tier, tenant)
        model, meta = self.workbench._train_or_load(spec)
        if self.compile_models:
            from repro.compile import maybe_compiled

            maybe_compiled(model)
        entry = WarmEntry(
            spec=spec,
            tenant=tenant,
            model=model,
            meta=meta,
            nbytes=model_nbytes(model),
        )
        with self._lock:
            existing = self._warm.get(key)
            if existing is not None:
                # Lost the build race; the first admission wins.
                self._warm.move_to_end(key)
                return existing
            if self._admit(entry):
                self.metrics.counter(
                    "registry.tier_promote", tenant=tenant
                ).inc()
                journal_event(
                    "registry.tier",
                    spec=entry.token,
                    action="promote",
                    tier="warm",
                    tenant=tenant,
                )
            return entry

    def warm(self, *specs: ModelSpec, tenant: Optional[str] = None):
        """Promote ``specs`` into the warm tier now (train-or-load)."""
        for spec in specs:
            self.entry(spec, tenant=tenant)
        return self

    def warm_async(
        self,
        spec: ModelSpec,
        *,
        tenant: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Background train-or-load + promotion for ``spec``.

        Returns a future resolving to the spec token when the entry is
        warm.  Warm-ups are deduplicated per token — a request racing
        its own warm-up gets the in-flight future, not a second
        training run.  ``deadline_s`` bounds how long a queued warm-up
        may wait before starting; an expired one journals
        ``registry.warmup`` ``status="expired"`` and fails with
        :class:`~repro.errors.ServiceTimeoutError`.
        """
        spec = spec.resolved(self.workbench.config)
        token = spec.token()
        with self._lock:
            pending = self._warmups.get(token)
            if pending is not None:
                return pending
            future: Future = Future()
            self._warmups[token] = future
        deadline = None if deadline_s is None else monotonic() + deadline_s
        journal_event("registry.warmup", spec=token, status="started")
        self.metrics.counter("registry.warmup_started").inc()

        def _run() -> None:
            try:
                if deadline is not None and monotonic() > deadline:
                    journal_event(
                        "registry.warmup", spec=token, status="expired"
                    )
                    raise ServiceTimeoutError(
                        f"warm-up of {token!r} missed its "
                        f"{deadline_s}s deadline before starting"
                    )
                self.entry(spec, tenant=tenant)
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
                with self._lock:
                    self._warmups.pop(token, None)

        threading.Thread(
            target=_run, name=f"registry-warmup-{token}", daemon=True
        ).start()
        return future

    # ------------------------------------------------------------------
    # pins (consumers holding a published mmap)
    # ------------------------------------------------------------------
    def pin(self, spec: ModelSpec, tenant: Optional[str] = None) -> None:
        """Protect ``spec``'s warm entry from being dropped on eviction.

        An evicted-but-pinned entry moves to the *evictable* tier: it
        stops counting against the LRU and quotas but stays alive until
        :meth:`unpin` releases the last pin.
        """
        key = self._key(spec, tenant)
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, spec: ModelSpec, tenant: Optional[str] = None) -> None:
        """Release one pin; drops the entry if it was pending eviction."""
        key = self._key(spec, tenant)
        with self._lock:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
                return
            self._pins.pop(key, None)
            if self._evictable.pop(key, None) is not None:
                journal_event(
                    "registry.tier",
                    spec=key[1],
                    action="drop",
                    tier="evictable",
                    tenant=key[0],
                )

    # ------------------------------------------------------------------
    # eviction and introspection
    # ------------------------------------------------------------------
    def evict(
        self, spec: Optional[ModelSpec] = None,
        tenant: Optional[str] = None,
    ) -> int:
        """Demote warm entries (one spec, or a whole tenant's, or all).

        Returns the number of entries demoted.  Pinned entries land in
        the evictable tier; unpinned ones are dropped outright.  The
        cold tier is untouched — use :func:`repro.registry.layout.
        evict_artifacts` (or the ``registry evict`` CLI) for disk.
        """
        with self._lock:
            if spec is not None:
                keys = [self._key(spec, tenant)]
            elif tenant is not None:
                keys = [k for k in self._warm if k[0] == tenant]
            else:
                keys = list(self._warm)
            demoted = 0
            for key in keys:
                if key in self._warm:
                    self._evict_key(key)
                    demoted += 1
            return demoted

    def warm_specs(self, tenant: Optional[str] = None) -> List[ModelSpec]:
        """Warm-tier contents, least recently used first."""
        with self._lock:
            return [
                entry.spec
                for (entry_tenant, _), entry in self._warm.items()
                if tenant is None or entry_tenant == tenant
            ]

    def tenant_bytes(self, tenant: str) -> int:
        """Warm bytes currently charged to ``tenant``."""
        with self._lock:
            return sum(
                entry.nbytes
                for (entry_tenant, _), entry in self._warm.items()
                if entry_tenant == tenant
            )

    def stats(self) -> dict:
        """A JSON-able snapshot of tier occupancy and quotas."""
        with self._lock:
            tenants: Dict[str, dict] = {}
            for (tenant, _), entry in self._warm.items():
                bucket = tenants.setdefault(
                    tenant,
                    {
                        "entries": 0,
                        "bytes": 0,
                        "quota_bytes": self.tenant_quotas.get(tenant),
                    },
                )
                bucket["entries"] += 1
                bucket["bytes"] += entry.nbytes
            return {
                "warm": [entry.token for entry in self._warm.values()],
                "warm_max_entries": self.warm_max_entries,
                "evictable": sorted(
                    token for (_, token) in self._evictable
                ),
                "pinned": sorted(token for (_, token) in self._pins),
                "tenants": tenants,
            }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _key(
        self, spec: ModelSpec, tenant: Optional[str]
    ) -> Tuple[str, str]:
        spec = spec.resolved(self.workbench.config)
        return (tenant or self.default_tenant, spec.token())

    def _present_tier(self, spec: ModelSpec) -> str:
        """``"cold"`` when the artifact is on disk, else ``"miss"``."""
        try:
            name = spec.cache_name()
        except ConfigError:
            return "miss"
        return (
            "cold"
            if layout.artifact_exists(self.workbench.config, name)
            else "miss"
        )

    def _count_lookup(self, tier: str, tenant: str) -> None:
        if tier == "miss":
            self.metrics.counter("registry.tier_miss", tenant=tenant).inc()
        else:
            self.metrics.counter(
                "registry.tier_hit", tier=tier, tenant=tenant
            ).inc()

    def _quota(self, tenant: str) -> Optional[int]:
        return self.tenant_quotas.get(tenant)

    def _admit(self, entry: WarmEntry) -> bool:
        """Install ``entry`` in the warm tier; False when quota forbids.

        Caller holds the registry lock and has verified the key is not
        already warm.
        """
        quota = self._quota(entry.tenant)
        if quota is not None and (quota <= 0 or entry.nbytes > quota):
            return False
        key = (entry.tenant, entry.token)
        self._warm[key] = entry
        self._warm.move_to_end(key)
        self._shrink(entry.tenant)
        self._update_gauges(entry.tenant)
        return key in self._warm

    def _shrink(self, tenant: str) -> None:
        """Enforce the global LRU bound and ``tenant``'s byte quota."""
        while len(self._warm) > self.warm_max_entries:
            self._evict_key(next(iter(self._warm)))
        quota = self._quota(tenant)
        if quota is None:
            return
        while self.tenant_bytes(tenant) > quota:
            victim = next(
                (key for key in self._warm if key[0] == tenant), None
            )
            if victim is None:
                break
            self._evict_key(victim)

    def _evict_key(self, key: Tuple[str, str]) -> None:
        """Demote one warm entry (to evictable when pinned, else drop)."""
        entry = self._warm.pop(key, None)
        if entry is None:
            return
        pinned = self._pins.get(key, 0) > 0
        if pinned:
            self._evictable[key] = entry
        self.metrics.counter(
            "registry.tier_evict", tier="warm", tenant=key[0]
        ).inc()
        journal_event(
            "registry.tier",
            spec=key[1],
            action="evict",
            tier="evictable" if pinned else "warm",
            tenant=key[0],
        )
        self._update_gauges(key[0])

    def _update_gauges(self, tenant: str) -> None:
        entries = sum(1 for key in self._warm if key[0] == tenant)
        self.metrics.gauge(
            "registry.warm_entries", tenant=tenant
        ).set(entries)
        self.metrics.gauge("registry.warm_bytes", tenant=tenant).set(
            self.tenant_bytes(tenant)
        )


__all__ = ["ModelRegistry", "WarmEntry", "model_nbytes"]
