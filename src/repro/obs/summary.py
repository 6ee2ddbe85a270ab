"""Render run journals: ``obs tail`` / ``obs summary`` / ``obs diff``.

Everything here is a pure function from journal events to text (the
CLI does the printing), built on the same ``format_table`` /
``ascii_chart`` utilities the experiment harness renders with.  The
numbers come straight from the journal — floats round-trip through
JSON with ``repr`` precision — so a summary reproduces the live run's
values bit for bit (``tests/obs/test_e2e_demo.py`` holds this to
byte-identical table output).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.journal import list_runs, read_events, resolve_run_dir
from repro.obs.metrics import parse_metric_key
from repro.utils.tabulate import format_table


def events_of(events: List[dict], event_type: str) -> List[dict]:
    return [e for e in events if e.get("event") == event_type]


def last_metrics(
    events: List[dict], scope: Optional[str] = None
) -> Optional[dict]:
    """The final ``metrics`` snapshot (optionally of one scope)."""
    for event in reversed(events):
        if event.get("event") == "metrics" and (
            scope is None or event.get("scope") == scope
        ):
            return event["metrics"]
    return None


# ----------------------------------------------------------------------
# section extractors (structured, for tests and diffing)
# ----------------------------------------------------------------------
def _point_accuracy(result) -> Optional[float]:
    """Best-effort headline accuracy of one journaled point result.

    Understands the repo's result payloads: an
    :class:`~repro.obs.result.EvalResult` dict (``accuracy``), an
    ``EvalStats`` dict (``mean``), a bare number, or a list of any of
    those (first extractable element wins).  None when nothing fits.
    """
    if isinstance(result, bool):
        return None
    if isinstance(result, (int, float)):
        return result
    if isinstance(result, dict):
        for key in ("accuracy", "mean"):
            value = result.get(key)
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                return value
        return None
    if isinstance(result, list):
        for item in result:
            accuracy = _point_accuracy(item)
            if accuracy is not None:
                return accuracy
    return None


def sweep_rows(events: List[dict]) -> List[List[object]]:
    """One row per completed sweep point: ``[key, accuracy, seconds]``.

    ``accuracy`` is extracted via :func:`_point_accuracy`; None when
    the point's result carried no recognisable accuracy.
    """
    return [
        [event["key"], _point_accuracy(event.get("result")),
         event["seconds"]]
        for event in events_of(events, "sweep.point_done")
    ]


def serve_batch_hist(events: List[dict]) -> Dict[str, Dict[int, int]]:
    """``{spec: {batch size: count}}`` from the last serve.stats event."""
    stats_events = events_of(events, "serve.stats")
    if not stats_events:
        return {}
    specs = stats_events[-1]["stats"].get("specs", {})
    return {
        key: {int(size): count for size, count in spec["batch_hist"].items()}
        for key, spec in specs.items()
    }


def serve_replica_rows(events: List[dict]) -> List[List[object]]:
    """One row per serving replica from the last ``serve.stats`` event.

    ``[replica, batches, requests, mean batch, p50 ms, p99 ms]``;
    the in-process executor is replica ``0``.
    """
    stats_events = events_of(events, "serve.stats")
    if not stats_events:
        return []
    replicas = stats_events[-1]["stats"].get("replicas", {})
    return [
        [
            rep,
            data["batches"],
            data["requests"],
            round(data["mean_batch"], 2),
            round(data["p50_ms"], 2),
            round(data["p99_ms"], 2),
        ]
        for rep, data in sorted(replicas.items(), key=lambda kv: int(kv[0]))
    ]


def registry_tier_rows(events: List[dict]) -> List[List[object]]:
    """``[metric key, value]`` for every ``registry.*`` counter/gauge.

    Taken from the run's final ``metrics`` snapshot, so the rows
    reconstruct the registry's tier traffic (hits, misses, promotions,
    evictions, warm occupancy) from the journal alone.
    """
    metrics = last_metrics(events)
    if not metrics:
        return []
    rows: List[List[object]] = []
    for section in ("counters", "gauges"):
        for key, value in metrics.get(section, {}).items():
            if key.startswith("registry."):
                rows.append([key, value])
    return sorted(rows)


def registry_warmup_rows(events: List[dict]) -> List[List[object]]:
    """``[spec, status]`` per ``registry.warmup`` lifecycle event."""
    return [
        [event["spec"], event["status"]]
        for event in events_of(events, "registry.warmup")
    ]


def train_rows(events: List[dict]) -> List[List[object]]:
    return [
        [e["epoch"], e["train_loss"], e["val_accuracy"], e["lr"],
         e["epoch_seconds"]]
        for e in events_of(events, "train.epoch")
    ]


# ----------------------------------------------------------------------
# text renderers
# ----------------------------------------------------------------------
def _fmt_ts(ts: float) -> str:
    return time.strftime("%H:%M:%S", time.localtime(ts))


def _event_line(event: dict, t0: float) -> str:
    skip = ("event", "ts", "seq")
    fields = []
    for key, value in event.items():
        if key in skip:
            continue
        text = json.dumps(value) if isinstance(value, (dict, list)) else str(
            value
        )
        if len(text) > 60:
            text = text[:57] + "..."
        fields.append(f"{key}={text}")
    return (
        f"{_fmt_ts(event['ts'])} +{event['ts'] - t0:8.3f}s "
        f"{event['event']:<20s} " + " ".join(fields)
    )


def tail_run(run: str, results_dir: str = "results", n: int = 20) -> str:
    """The last ``n`` events of a run, one line each."""
    events = read_events(run, results_dir)
    if not events:
        return "(empty journal)"
    t0 = events[0]["ts"]
    lines = [_event_line(event, t0) for event in events[-n:]]
    if len(events) > n:
        lines.insert(0, f"... ({len(events) - n} earlier events)")
    return "\n".join(lines)


def render_metrics(metrics: dict) -> str:
    """One table over a ``metrics`` snapshot's counters and gauges."""
    rows: List[List[object]] = []
    for key, value in metrics.get("counters", {}).items():
        rows.append([key, "counter", value])
    for key, value in metrics.get("gauges", {}).items():
        rows.append([key, "gauge", value])
    for key, value in metrics.get("histograms", {}).items():
        mean = value["sum"] / value["count"] if value["count"] else 0.0
        rows.append([key, "histogram", f"n={value['count']} mean={mean:.4g}"])
    return format_table(
        ["metric", "kind", "value"],
        rows or [["(no metrics)", "", ""]],
        title="final metric snapshot",
    )


def summarize_run(run: str, results_dir: str = "results") -> str:
    """The full human-readable reconstruction of one run's journal."""
    run_dir = resolve_run_dir(run, results_dir)
    events = read_events(run_dir)
    parts: List[str] = []

    starts = events_of(events, "run_start")
    if starts:
        manifest = starts[0]
        parts.append(
            format_table(
                ["field", "value"],
                [
                    ["run_id", manifest.get("run_id")],
                    ["argv", " ".join(manifest.get("argv") or [])],
                    ["git_sha", manifest.get("git_sha")],
                    ["config_hash", manifest.get("config_hash")],
                    ["seed", manifest.get("seed")],
                    ["events", len(events)],
                ],
                title=f"run {manifest.get('run_id')}",
            )
        )

    epochs = train_rows(events)
    if epochs:
        parts.append(
            format_table(
                ["epoch", "train loss", "val accuracy", "lr", "seconds"],
                epochs,
                title="training (from train.epoch events)",
            )
        )

    points = sweep_rows(events)
    if points:
        parts.append(
            format_table(
                ["point", "accuracy", "seconds"],
                points,
                title="sweep (from sweep.point_done events)",
            )
        )
    failures = events_of(events, "sweep.point_failed")
    if failures:
        parts.append(
            format_table(
                ["point", "error"],
                [[e["key"], e["error"]] for e in failures],
                title=f"sweep failures ({len(failures)})",
            )
        )

    hists = serve_batch_hist(events)
    for spec, hist in hists.items():
        parts.append(
            format_table(
                ["batch size", "batches"],
                [[size, hist[size]] for size in sorted(hist)],
                title=f"serve batch-size histogram: {spec}",
            )
        )

    replicas = serve_replica_rows(events)
    if replicas:
        parts.append(
            format_table(
                ["replica", "batches", "requests", "mean batch",
                 "p50 ms", "p99 ms"],
                replicas,
                title="serve replicas (from serve.stats)",
            )
        )

    tiers = registry_tier_rows(events)
    if tiers:
        parts.append(
            format_table(
                ["metric", "value"],
                tiers,
                title="model registry tiers (from the final metrics)",
            )
        )

    warmups = registry_warmup_rows(events)
    if warmups:
        parts.append(
            format_table(
                ["spec", "status"],
                warmups,
                title="background warm-ups (from registry.warmup events)",
            )
        )

    if events_of(events, "explore.start"):
        # Lazy import: repro.explore imports the sweep/serve stack,
        # which in turn journals through this package.
        from repro.explore.report import render_explore

        parts.append(render_explore(events))

    metrics = last_metrics(events)
    if metrics is not None:
        parts.append(render_metrics(metrics))

    ends = events_of(events, "run_end")
    status = ends[-1]["status"] if ends else "(no run_end: crashed or live)"
    parts.append(f"status: {status}")
    return "\n\n".join(parts)


def _scalar_metrics(metrics: Optional[dict]) -> Dict[str, object]:
    if not metrics:
        return {}
    flat: Dict[str, object] = {}
    flat.update(metrics.get("counters", {}))
    flat.update(metrics.get("gauges", {}))
    return flat


def diff_runs(
    run_a: str, run_b: str, results_dir: str = "results"
) -> str:
    """Manifest, per-point accuracy and metric deltas of two runs."""
    events_a = read_events(run_a, results_dir)
    events_b = read_events(run_b, results_dir)
    label_a = os.path.basename(resolve_run_dir(run_a, results_dir))
    label_b = os.path.basename(resolve_run_dir(run_b, results_dir))
    parts: List[str] = []

    manifest_a = (events_of(events_a, "run_start") or [{}])[0]
    manifest_b = (events_of(events_b, "run_start") or [{}])[0]
    rows = []
    for field in ("git_sha", "config_hash", "seed"):
        va, vb = manifest_a.get(field), manifest_b.get(field)
        rows.append([field, va, vb, "same" if va == vb else "DIFFERS"])
    parts.append(
        format_table(
            ["field", label_a, label_b, ""],
            rows,
            title=f"manifest: {label_a} vs {label_b}",
        )
    )

    points_a = {row[0]: row[1] for row in sweep_rows(events_a)}
    points_b = {row[0]: row[1] for row in sweep_rows(events_b)}
    shared = [key for key in points_a if key in points_b]
    if shared:
        rows = []
        for key in shared:
            va, vb = points_a[key], points_b[key]
            delta = (
                vb - va
                if isinstance(va, (int, float)) and isinstance(vb, (int, float))
                else None
            )
            rows.append([key, va, vb, delta])
        parts.append(
            format_table(
                ["point", label_a, label_b, "delta"],
                rows,
                title="sweep accuracy",
            )
        )

    flat_a = _scalar_metrics(last_metrics(events_a))
    flat_b = _scalar_metrics(last_metrics(events_b))
    keys = sorted(set(flat_a) | set(flat_b))
    if keys:
        rows = []
        for key in keys:
            va, vb = flat_a.get(key), flat_b.get(key)
            delta = (
                vb - va
                if isinstance(va, (int, float)) and isinstance(vb, (int, float))
                else None
            )
            rows.append([key, va, vb, delta])
        parts.append(
            format_table(
                ["metric", label_a, label_b, "delta"],
                rows,
                title="final metrics",
            )
        )
    return "\n\n".join(parts)


def render_run_list(results_dir: str = "results") -> str:
    """One line per recorded run under ``<results_dir>/runs``."""
    rows = []
    for run_id in list_runs(results_dir):
        run_dir = os.path.join(results_dir, "runs", run_id)
        try:
            events = read_events(run_dir)
        except Exception:  # noqa: BLE001 - a listing must not die
            rows.append([run_id, "?", "(unreadable)"])
            continue
        ends = events_of(events, "run_end")
        status = ends[-1]["status"] if ends else "live/crashed"
        rows.append([run_id, len(events), status])
    return format_table(
        ["run", "events", "status"],
        rows or [["(no runs recorded)", "", ""]],
        title=f"runs under {os.path.join(results_dir, 'runs')}",
    )
