"""Serving telemetry as a view over the observability metric registry.

:class:`ServeStats` is the one stats class both serving executors
report into (:class:`~repro.serve.executor.InProcessExecutor` and
:class:`~repro.serve.cluster.ServeCluster`).  It owns no counters:
every batch is recorded into a :class:`~repro.obs.MetricRegistry` (one
registry per executor, so snapshots stay per-executor) under the
``serve.*`` metric names documented in ``docs/observability.md``:

- ``serve.requests_executed{spec}`` / ``serve.batches_executed{spec}``
  / ``serve.requests_degraded{spec}`` — counters, recorded by the
  front door;
- ``serve.batch_size{spec,size}`` — one counter per exact batch size
  (the batch-size histogram, reconstructible bit-for-bit from a
  journal metrics snapshot);
- ``serve.latency_ms{spec}`` — a fixed-bucket histogram;
- ``serve.replica_batches{replica}`` and friends — one row per
  replica, recorded by the executor (the in-process executor is
  replica ``0``), so both executors print the same report.

The view itself keeps only bounded reservoirs of raw latency samples,
because exact p50/p95 cannot be recovered from fixed buckets;
everything else in :meth:`ServeStats.snapshot` is read back from the
registry.  The op profiler (:mod:`repro.utils.profiler`) remains the
tool for *where the time goes* inside a forward pass.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricRegistry

#: Latency samples kept per spec; older samples are dropped FIFO so a
#: long-running service reports recent behaviour, bounded in memory.
MAX_LATENCY_SAMPLES = 100_000

#: Bucket bounds (milliseconds) for the registry latency histogram.
LATENCY_MS_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                      250.0, 1000.0, 5000.0)


def _percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile, matching numpy's default."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if low + 1 >= len(ordered):
        return ordered[-1]
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


class ServeStats:
    """Per-executor serving telemetry over a metric registry.

    The front door records request-level metrics through
    :meth:`record_batch`; the executor adds one row per replica with
    :meth:`record_replica_batch` — batches dispatched, requests
    served, exact p50/p99 from a per-replica latency reservoir — and
    the cluster merges worker registry flushes (compiled/interpreted
    counters, worker wall time) under a ``replica`` label via
    :meth:`~repro.obs.MetricRegistry.merge_snapshot`, which pairs with
    the lock-holding registry snapshot so readers never observe a torn
    flush.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.MetricRegistry` to record into.  By
        default each view creates its own, so two executors in one
        process never mix counts; pass a shared registry to aggregate.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None):
        self.registry = registry if registry is not None else MetricRegistry()
        self._lock = threading.Lock()
        self._latencies: Dict[str, List[float]] = {}
        self._started = perf_counter()

    # ------------------------------------------------------------------
    def _keep(self, key: str, latencies_s: Sequence[float]) -> None:
        with self._lock:
            samples = self._latencies.setdefault(key, [])
            samples.extend(latencies_s)
            overflow = len(samples) - MAX_LATENCY_SAMPLES
            if overflow > 0:
                del samples[:overflow]

    def record_batch(
        self,
        spec_key: str,
        latencies_s: Sequence[float],
        degraded: bool = False,
    ) -> None:
        """Record one answered batch and its per-request latencies."""
        size = len(latencies_s)
        registry = self.registry
        registry.counter("serve.requests_executed", spec=spec_key).inc(size)
        registry.counter("serve.batches_executed", spec=spec_key).inc()
        if degraded:
            registry.counter(
                "serve.requests_degraded", spec=spec_key
            ).inc(size)
        registry.counter(
            "serve.batch_size", spec=spec_key, size=str(size)
        ).inc()
        latency_hist = registry.histogram(
            "serve.latency_ms", buckets=LATENCY_MS_BUCKETS, spec=spec_key
        )
        for latency in latencies_s:
            latency_hist.observe(1e3 * latency)
        self._keep(spec_key, latencies_s)

    def record_replica_batch(
        self, replica: int, size: int, latency_s: float
    ) -> None:
        """Record one batch executed by ``replica`` (dispatch→reply)."""
        registry = self.registry
        rep = str(replica)
        registry.counter("serve.replica_batches", replica=rep).inc()
        registry.counter("serve.replica_requests", replica=rep).inc(size)
        registry.histogram(
            "serve.replica_latency_ms",
            buckets=LATENCY_MS_BUCKETS,
            replica=rep,
        ).observe(1e3 * latency_s)
        self._keep(f"replica:{rep}", [latency_s])

    def merge_worker(self, replica: int, snapshot: dict) -> None:
        """Fold one worker's registry flush in under its replica label."""
        self.registry.merge_snapshot(snapshot, replica=str(replica))

    # ------------------------------------------------------------------
    def _spec_keys(self) -> List[str]:
        keys = {
            dict(labels).get("spec")
            for labels in self.registry.children("serve.requests_executed")
        }
        keys.discard(None)
        return sorted(keys)

    def batch_hist(self, spec_key: str) -> Dict[int, int]:
        """Exact ``{batch size: count}`` read back from the registry."""
        hist: Dict[int, int] = {}
        for labels, metric in self.registry.children(
            "serve.batch_size"
        ).items():
            label_map = dict(labels)
            if label_map.get("spec") == spec_key:
                hist[int(label_map["size"])] = metric.value
        return dict(sorted(hist.items()))

    def percentile_ms(self, spec_key: str, q: float) -> float:
        """Exact latency percentile from the bounded sample reservoir."""
        with self._lock:
            samples = list(self._latencies.get(spec_key, ()))
        return 1e3 * _percentile(samples, q)

    def replica_ids(self) -> List[str]:
        ids = {
            dict(labels).get("replica")
            for labels in self.registry.children("serve.replica_batches")
        }
        ids.discard(None)
        return sorted(ids, key=int)

    def replica_snapshot(self) -> Dict[str, dict]:
        """Per-replica summary: ``{replica: {batches, requests, ...}}``."""
        registry = self.registry
        out: Dict[str, dict] = {}
        for rep in self.replica_ids():
            batches = registry.counter(
                "serve.replica_batches", replica=rep
            ).value
            requests = registry.counter(
                "serve.replica_requests", replica=rep
            ).value
            out[rep] = {
                "batches": batches,
                "requests": requests,
                "mean_batch": requests / batches if batches else 0.0,
                "inflight": registry.gauge(
                    "serve.replica_inflight", replica=rep
                ).value,
                "p50_ms": self.percentile_ms(f"replica:{rep}", 50),
                "p99_ms": self.percentile_ms(f"replica:{rep}", 99),
            }
        return out

    def snapshot(self) -> dict:
        """A JSON-able summary of everything recorded so far.

        Counts come from the registry, percentiles from the reservoirs;
        ``replicas`` holds the per-replica rows.
        """
        registry = self.registry
        elapsed = perf_counter() - self._started
        specs = {}
        total = 0
        for key in self._spec_keys():
            requests = registry.counter(
                "serve.requests_executed", spec=key
            ).value
            batches = registry.counter(
                "serve.batches_executed", spec=key
            ).value
            degraded = registry.counter(
                "serve.requests_degraded", spec=key
            ).value
            total += requests
            specs[key] = {
                "requests": requests,
                "batches": batches,
                "degraded": degraded,
                "mean_batch": requests / batches if batches else 0.0,
                "batch_hist": self.batch_hist(key),
                "p50_ms": self.percentile_ms(key, 50),
                "p95_ms": self.percentile_ms(key, 95),
            }
        return {
            "elapsed_s": elapsed,
            "requests": total,
            "throughput_rps": total / elapsed if elapsed > 0 else 0.0,
            "specs": specs,
            "replicas": self.replica_snapshot(),
        }

    def report(self) -> str:
        """Human-readable per-spec table, then one row per replica."""
        from repro.utils.tabulate import format_table

        snap = self.snapshot()
        rows = [
            [
                key,
                spec["requests"],
                spec["batches"],
                round(spec["mean_batch"], 2),
                round(spec["p50_ms"], 2),
                round(spec["p95_ms"], 2),
                spec["degraded"],
            ]
            for key, spec in sorted(snap["specs"].items())
        ] or [["(no requests)", 0, 0, 0.0, 0.0, 0.0, 0]]
        text = format_table(
            ["spec", "requests", "batches", "mean batch", "p50 ms",
             "p95 ms", "degraded"],
            rows,
            title="serving stats",
        ) + (
            f"\n  {snap['requests']} requests in {snap['elapsed_s']:.2f}s"
            f" ({snap['throughput_rps']:.1f} req/s)"
        )
        if not snap["replicas"]:
            return text
        rows = [
            [
                rep,
                data["batches"],
                data["requests"],
                round(data["mean_batch"], 2),
                round(data["p50_ms"], 2),
                round(data["p99_ms"], 2),
            ]
            for rep, data in snap["replicas"].items()
        ]
        return text + "\n\n" + format_table(
            ["replica", "batches", "requests", "mean batch", "p50 ms",
             "p99 ms"],
            rows,
            title="serve replicas",
        )
