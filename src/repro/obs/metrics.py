"""Process-wide metric registry: counters, gauges, histograms.

The registry is the single write path for operational telemetry.  It is
deliberately minimal so instrumented hot paths stay cheap:

- **zero dependencies** — no numpy on any code path here; values are
  plain ints/floats and percentile math is avoided (histograms hold
  fixed bucket counts, exact samples stay with the callers that need
  exact percentiles, e.g. :class:`repro.serve.stats.ServeStats`);
- **lock-protected** — every metric carries its own small lock; an
  ``inc`` is one acquire;
- **labeled children** — ``registry.counter("serve.requests_executed",
  spec="quant:bw8:bx8")`` returns a child keyed by the sorted label
  items, so one logical metric fans out per model/spec/worker.

Metric names follow ``subsystem.noun_verb`` (see
``docs/observability.md``): the prefix names the subsystem that owns
the value (``serve``, ``train``, ``sweep``, ``compile``) and the
suffix says what was counted or measured.  Names are validated at
creation time so typos fail loudly once, not silently forever.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: ``subsystem.noun_verb`` — lowercase dotted segments of word chars.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Default histogram bucket upper bounds (seconds-ish scale); callers
#: measuring other units pass explicit buckets.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_suffix(items: LabelItems) -> str:
    if not items:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a flat snapshot key ``name{a=b,c=d}`` into ``(name, labels)``.

    The inverse of the ``snapshot()`` key format; ``obs summary`` and
    :meth:`MetricRegistry.merge_snapshot` both round-trip through it.
    """
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for item in rest.rstrip("}").split(","):
        if item:
            label, _, value = item.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self):
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, last loss)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self):
        return self._value


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``buckets`` are inclusive upper bounds; one overflow bucket catches
    everything beyond the last bound.  Bucket counts plus ``sum`` and
    ``count`` are enough for mean and coarse quantiles without keeping
    samples — the registry never grows with traffic.
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts",
                 "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError(
                f"histogram {name} needs ascending bucket bounds, "
                f"got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def merge(self, snapshot: dict) -> None:
        """Add another histogram's ``snapshot()`` into this one.

        The whole application happens under this histogram's lock, so a
        concurrent :meth:`snapshot` can never observe bucket counts
        without the matching ``sum``/``count`` — the torn-histogram
        hazard cluster workers publishing into a shared registry would
        otherwise hit.
        """
        if tuple(snapshot.get("buckets", ())) != self.buckets:
            raise ConfigError(
                f"histogram {self.name} bucket mismatch: "
                f"{self.buckets} vs {tuple(snapshot.get('buckets', ()))}"
            )
        counts = snapshot["counts"]
        if len(counts) != len(self._counts):
            raise ConfigError(
                f"histogram {self.name} expects {len(self._counts)} "
                f"bucket counts, got {len(counts)}"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += int(c)
            self._sum += float(snapshot["sum"])
            self._count += int(snapshot["count"])

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def snapshot(self):
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricRegistry:
    """Thread-safe, name-keyed home for every metric of a process.

    One process-wide default instance (:func:`default_registry`) serves
    subsystems with global state (training, sweeps, compilation); each
    serving executor gets its own registry so per-executor snapshots
    stay independent (see :class:`repro.serve.stats.ServeStats`).
    """

    def __init__(self):
        # Reentrant: merge_snapshot holds it across get-or-create calls
        # so a whole remote snapshot lands atomically.
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: Dict[str, str],
                       **kwargs):
        if not _NAME_RE.match(name):
            raise ConfigError(
                f"metric name {name!r} does not follow "
                "'subsystem.noun_verb' (lowercase dotted segments); "
                "see docs/observability.md"
            )
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                registered = self._kinds.get(name)
                if registered is not None and registered != kind:
                    raise ConfigError(
                        f"metric {name!r} already registered as a "
                        f"{registered}, cannot re-register as a {kind}"
                    )
                self._kinds[name] = kind
                metric = _KINDS[kind](name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, _KINDS[kind]):
                raise ConfigError(
                    f"metric {name!r} is a "
                    f"{type(metric).__name__.lower()}, not a {kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get-or-create the counter ``name`` with ``labels``."""
        return self._get_or_create("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get-or-create the gauge ``name`` with ``labels``."""
        return self._get_or_create("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        """Get-or-create the histogram ``name`` with ``labels``.

        ``buckets`` is honoured on first creation; later calls reuse
        the existing bucket layout (passing different bounds for the
        same child is a :class:`~repro.errors.ConfigError`).
        """
        metric = self._get_or_create(
            "histogram", name, labels,
            **({"buckets": buckets} if buckets is not None else {}),
        )
        if buckets is not None and metric.buckets != tuple(
            float(b) for b in buckets
        ):
            raise ConfigError(
                f"histogram {name!r} already exists with buckets "
                f"{metric.buckets}; cannot change to {tuple(buckets)}"
            )
        return metric

    # ------------------------------------------------------------------
    def children(self, name: str) -> Dict[LabelItems, object]:
        """Every labeled child of ``name``: ``{label items: metric}``."""
        with self._lock:
            return {
                labels: metric
                for (metric_name, labels), metric in self._metrics.items()
                if metric_name == name
            }

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._kinds)

    def clear(self) -> None:
        """Drop every metric (tests and process-level resets)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()

    def snapshot(self) -> dict:
        """A JSON-able dump: ``{kind: {name{labels}: value}}``.

        Counter/gauge values are scalars; histogram values are
        ``{buckets, counts, sum, count}`` dicts.  The flat string keys
        (``name{label=value,...}``) round-trip through the run journal
        unambiguously because label items are sorted.

        The registry lock is held for the whole dump, so a snapshot is
        *consistent across metrics*: updates applied atomically under
        the same lock (:meth:`merge_snapshot`) are either fully visible
        or not at all — a reader can never see, say, a batch's request
        counter without its latency histogram entries.
        """
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}
        with self._lock:
            items = list(self._metrics.items())
            kinds = dict(self._kinds)
            for (name, labels), metric in sorted(
                items, key=lambda kv: kv[0]
            ):
                key = name + _label_suffix(labels)
                out[section[kinds[name]]][key] = metric.snapshot()
        return out

    def drain(self) -> dict:
        """Snapshot and reset every metric in one atomic step.

        Cluster worker processes flush their local registry with this
        and ship the snapshot to the parent, which applies it via
        :meth:`merge_snapshot`; draining (rather than re-sending
        cumulative values) makes the merge a plain addition.
        """
        with self._lock:
            snap = self.snapshot()
            self._metrics.clear()
            self._kinds.clear()
        return snap

    def merge_snapshot(self, snapshot: dict, **labels) -> None:
        """Apply another registry's :meth:`snapshot` into this one.

        Counter values add, gauge values overwrite, histograms merge
        bucket-wise (:meth:`Histogram.merge`).  ``labels`` are appended
        to every child — the cluster passes ``replica="3"`` so one
        parent registry holds the per-replica breakdown.  The whole
        merge happens under the registry lock, paired with the
        lock-holding :meth:`snapshot`: concurrent readers see all of a
        worker's flush or none of it, never a torn histogram or a
        request count without its batch count.
        """
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                name, child_labels = parse_metric_key(key)
                child_labels.update({k: str(v) for k, v in labels.items()})
                self.counter(name, **child_labels).inc(int(value))
            for key, value in snapshot.get("gauges", {}).items():
                name, child_labels = parse_metric_key(key)
                child_labels.update({k: str(v) for k, v in labels.items()})
                self.gauge(name, **child_labels).set(value)
            for key, value in snapshot.get("histograms", {}).items():
                name, child_labels = parse_metric_key(key)
                child_labels.update({k: str(v) for k, v in labels.items()})
                self.histogram(
                    name, buckets=value.get("buckets"), **child_labels
                ).merge(value)

    def report(self) -> str:
        """Human-readable table of every counter and gauge + histograms."""
        from repro.utils.tabulate import format_table

        snap = self.snapshot()
        rows = []
        for key, value in snap["counters"].items():
            rows.append([key, "counter", value])
        for key, value in snap["gauges"].items():
            rows.append([key, "gauge", value])
        for key, value in snap["histograms"].items():
            mean = value["sum"] / value["count"] if value["count"] else 0.0
            rows.append(
                [key, "histogram",
                 f"n={value['count']} mean={mean:.4g}"]
            )
        return format_table(
            ["metric", "kind", "value"],
            rows or [["(no metrics)", "", ""]],
            title="metric registry",
        )


#: The process-wide default registry.
_DEFAULT = MetricRegistry()


def default_registry() -> MetricRegistry:
    """The process-wide registry subsystem instrumentation writes to."""
    return _DEFAULT


def counter(name: str, **labels) -> Counter:
    """``default_registry().counter(...)`` — the common write path."""
    return _DEFAULT.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    """``default_registry().gauge(...)``."""
    return _DEFAULT.gauge(name, **labels)


def histogram(name: str, buckets=None, **labels) -> Histogram:
    """``default_registry().histogram(...)``."""
    return _DEFAULT.histogram(name, buckets=buckets, **labels)
