"""Per-run JSONL event journal under ``results/runs/<run_id>/``.

One run — a CLI invocation, a test, a serving session — owns one
directory::

    results/runs/<run_id>/
        manifest.json   # run-start manifest (atomic write-then-rename)
        events.jsonl    # append-only event stream
        summary.json    # run-end summary (atomic write-then-rename)

Every line of ``events.jsonl`` is one JSON object with at least
``event`` (a registered type, see :data:`EVENT_SCHEMAS`), ``ts``
(wall-clock seconds) and ``seq`` (monotone per-run sequence number).
Floats are serialized with ``repr`` precision by the ``json`` module,
so numeric payloads (accuracies, losses, medians) round-trip **bit
exactly** — ``obs summary`` can reproduce a live run's numbers from
the journal alone.

Crash safety: the stream is append-and-flush, so a crash can tear at
most the final line; :func:`read_events` skips a torn final line and
raises :class:`~repro.errors.JournalError` only for corruption earlier
in the stream.  The manifest and summary use an atomic
write-tmp-then-rename protocol (the same one the workbench's model
cache uses), so those files are either absent or complete.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from hashlib import sha256
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, JournalError
from repro.utils.serialization import atomic_write_json as _atomic_write_json

#: Journal format version, recorded in the manifest and run_start event.
SCHEMA_VERSION = 1

#: Registered event types -> required payload fields.  ``journal.event``
#: validates against this at write time and
#: :func:`validate_event` at read time, so the schema check is a true
#: round trip.  Extra fields are always allowed.
EVENT_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    # lifecycle
    "run_start": ("run_id", "schema_version", "argv", "git_sha",
                  "config_hash", "seed"),
    "run_end": ("status",),
    # periodic registry dumps (any registry; ``scope`` names which)
    "metrics": ("scope", "metrics"),
    # training
    "train.epoch": ("epoch", "train_loss", "val_accuracy", "lr",
                    "epoch_seconds", "batches"),
    "train.fit": ("best_accuracy", "best_epoch", "epochs_run",
                  "stopped_early"),
    # fault tolerance (see repro.ckpt / docs/fault_tolerance.md)
    "train.checkpoint": ("epoch", "path"),
    "train.resume": ("epoch", "checkpoint"),
    "run.interrupted": ("signal",),
    # sweeps
    "sweep.start": ("points",),
    "sweep.point_done": ("index", "key", "seconds"),
    "sweep.point_failed": ("index", "key", "error", "traceback"),
    "sweep.point_retry": ("index", "key", "attempt"),
    "sweep.point_skipped": ("index", "key"),
    "sweep.resume": ("source_run", "reused"),
    "sweep.end": ("completed", "failed"),
    # design-space exploration (see repro.explore / docs/explore.md)
    "explore.start": ("name", "points", "strategy"),
    "explore.point": ("enob", "nmult", "eq_enob", "emac_pj", "status"),
    "explore.frontier": ("cells", "level_curves"),
    "explore.end": ("evaluated", "pruned", "merged", "frontier_size"),
    # serving
    "serve.stats": ("stats",),
    "serve.replica": ("replica", "action"),
    "serve.shared": ("spec", "bytes", "path"),
    # model registry tiers (see repro.registry / docs/registry.md)
    "registry.tier": ("spec", "action", "tier"),
    "registry.warmup": ("spec", "status"),
    # workbench artifacts
    "bench.artifact": ("name", "source"),
    # freeform annotation
    "note": ("message",),
}


def to_jsonable(value):
    """Best-effort conversion of ``value`` to JSON-serializable types.

    Handles the result shapes this repo produces — numpy scalars and
    arrays, dataclasses (``EvalStats``), :class:`~repro.obs.result.
    EvalResult` — recursively; anything else falls back to ``repr`` so
    journaling never fails on an exotic payload.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # EvalResult subclasses float but carries extra fields worth
        # keeping; as_dict preserves the accuracy bit-exactly.
        as_dict = getattr(value, "as_dict", None)
        if as_dict is not None:
            return to_jsonable(as_dict())
        return float(value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    item = getattr(value, "item", None)  # numpy scalars
    if item is not None and getattr(value, "shape", None) == ():
        return to_jsonable(item())
    tolist = getattr(value, "tolist", None)  # numpy arrays
    if tolist is not None:
        return to_jsonable(tolist())
    return repr(value)


def validate_event(event: dict) -> dict:
    """Check one journal event against :data:`EVENT_SCHEMAS`.

    Returns the event for chaining; raises
    :class:`~repro.errors.ConfigError` on an unknown type or a missing
    required field.
    """
    name = event.get("event")
    if name is None:
        raise ConfigError(f"journal event without an 'event' field: {event}")
    if name not in EVENT_SCHEMAS:
        raise ConfigError(
            f"unknown journal event type {name!r}; registered types: "
            f"{sorted(EVENT_SCHEMAS)}"
        )
    for field in ("ts", "seq"):
        if field not in event:
            raise ConfigError(f"journal event {name!r} missing {field!r}")
    missing = [f for f in EVENT_SCHEMAS[name] if f not in event]
    if missing:
        raise ConfigError(
            f"journal event {name!r} missing required fields {missing}"
        )
    return event


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` so ``path`` is either absent or complete.

    Delegates to the shared crash-safe primitive
    (:func:`repro.utils.serialization.atomic_write`): tmp + fsync +
    rename + parent-directory fsync, the same dance every durable
    artifact in the repo uses.
    """
    _atomic_write_json(path, payload, sort_keys=True)


def git_sha() -> Optional[str]:
    """Best-effort HEAD SHA of the current working tree, else None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def config_hash(config) -> Optional[str]:
    """Stable sha256 over a config dataclass (or dict), else None."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = to_jsonable(config)
    elif isinstance(config, dict):
        payload = to_jsonable(config)
    else:
        payload = repr(config)
    text = json.dumps(payload, sort_keys=True)
    return sha256(text.encode()).hexdigest()


class RunJournal:
    """Append-only JSONL event stream for one run.

    Use :meth:`start` (or the module-level :func:`start_run`) rather
    than the constructor; ``start`` creates the run directory, writes
    the manifest atomically, and opens the stream.
    """

    def __init__(self, run_dir: str, run_id: str, manifest: dict):
        self.run_dir = run_dir
        self.run_id = run_id
        self.manifest = manifest
        self.events_path = os.path.join(run_dir, "events.jsonl")
        self._lock = threading.Lock()
        self._seq = 0
        self._sweep_ordinal = 0
        self._fh = open(self.events_path, "a")
        self._closed = False
        self.event("run_start", **manifest)

    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        results_dir: str = "results",
        run_id: Optional[str] = None,
        argv: Optional[List[str]] = None,
        config=None,
        seed: Optional[int] = None,
    ) -> "RunJournal":
        """Open a journal under ``<results_dir>/runs/<run_id>/``.

        The manifest records what ran and how: CLI argv, git SHA, a
        stable hash of the experiment config, and the master seed —
        the provenance fields credible AMS benchmarking needs.
        """
        if run_id is None:
            run_id = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"
        if os.sep in run_id or run_id in ("", ".", ".."):
            raise ConfigError(f"invalid run_id {run_id!r}")
        run_dir = os.path.join(results_dir, "runs", run_id)
        os.makedirs(run_dir, exist_ok=True)
        manifest = {
            "run_id": run_id,
            "schema_version": SCHEMA_VERSION,
            "argv": list(sys.argv if argv is None else argv),
            "git_sha": git_sha(),
            "config_hash": config_hash(config),
            "seed": seed,
            "started_unix_s": time.time(),
        }
        atomic_write_json(os.path.join(run_dir, "manifest.json"), manifest)
        return cls(run_dir, run_id, manifest)

    # ------------------------------------------------------------------
    def event(self, event_type: str, **payload) -> dict:
        """Append one validated event; flushed so a crash tears <= 1 line."""
        if self._closed:
            raise ConfigError(
                f"journal for run {self.run_id!r} is closed"
            )
        with self._lock:
            record = {
                "event": event_type,
                "ts": time.time(),
                "seq": self._seq,
            }
            record.update(
                {k: to_jsonable(v) for k, v in payload.items()}
            )
            validate_event(record)
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()
            self._seq += 1
            return record

    def next_sweep_ordinal(self) -> int:
        """Position of the next ``sweep_map`` call within this run.

        Sweep-level resume (:mod:`repro.ckpt.resume`) matches the n-th
        sweep of a resumed run against the n-th sweep of the original,
        so the ordinal is allocated here, once per ``sweep.start``.
        """
        with self._lock:
            ordinal = self._sweep_ordinal
            self._sweep_ordinal += 1
            return ordinal

    def metrics_snapshot(self, registry, scope: str = "default") -> dict:
        """Journal a full dump of ``registry`` as a ``metrics`` event."""
        return self.event(
            "metrics", scope=scope, metrics=registry.snapshot()
        )

    def close(self, status: str = "ok", **summary) -> None:
        """Write the run-end event + atomic ``summary.json``; idempotent."""
        if self._closed:
            return
        self.event("run_end", status=status, **summary)
        self._closed = True
        try:
            os.fsync(self._fh.fileno())  # make the final events durable
        except OSError:
            pass
        self._fh.close()
        atomic_write_json(
            os.path.join(self.run_dir, "summary.json"),
            dict(
                {"run_id": self.run_id, "status": status},
                **{k: to_jsonable(v) for k, v in summary.items()},
            ),
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(status="ok" if exc_type is None else "failed")


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def resolve_run_dir(run: str, results_dir: str = "results") -> str:
    """Accept a run id or a run directory path; return the directory."""
    if os.path.isdir(run):
        return run
    run_dir = os.path.join(results_dir, "runs", run)
    if os.path.isdir(run_dir):
        return run_dir
    raise ConfigError(
        f"no run {run!r}: neither a directory nor under "
        f"{os.path.join(results_dir, 'runs')}"
    )


def read_events(
    run: str,
    results_dir: str = "results",
    validate: bool = False,
) -> List[dict]:
    """Every event of a run, tolerating a torn final line.

    A final line without a newline terminator or that fails to decode
    is the expected residue of a crash mid-append and is silently
    skipped; an undecodable line anywhere *else* raises
    :class:`~repro.errors.JournalError`.  With ``validate=True`` each
    surviving event is also checked against :data:`EVENT_SCHEMAS`.
    """
    run_dir = resolve_run_dir(run, results_dir)
    path = os.path.join(run_dir, "events.jsonl")
    if not os.path.exists(path):
        raise ConfigError(f"no events.jsonl under {run_dir}")
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # the normal trailing newline
    events = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if index == last:
                continue  # torn final line from a crash: skip, not fatal
            raise JournalError(
                f"corrupt journal line {index + 1} of {path}: {line[:80]!r}"
            ) from None
        if validate:
            validate_event(event)
        events.append(event)
    return events


def list_runs(results_dir: str = "results") -> List[str]:
    """Run ids under ``<results_dir>/runs``, oldest first."""
    root = os.path.join(results_dir, "runs")
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if os.path.isdir(os.path.join(root, name))
    )


# ----------------------------------------------------------------------
# the process-wide current run
# ----------------------------------------------------------------------
_CURRENT: Optional[RunJournal] = None


def start_run(
    results_dir: str = "results",
    run_id: Optional[str] = None,
    argv: Optional[List[str]] = None,
    config=None,
    seed: Optional[int] = None,
) -> RunJournal:
    """Open a journal and install it as the process's current run.

    Instrumented subsystems (trainer, sweep engine, CLI) publish
    through :func:`journal_event`, which no-ops when no run is active —
    so library code can journal unconditionally at near-zero cost.
    """
    global _CURRENT
    if _CURRENT is not None and not _CURRENT.closed:
        raise ConfigError(
            f"run {_CURRENT.run_id!r} is already active; call end_run() "
            "first (one journal per process)"
        )
    _CURRENT = RunJournal.start(
        results_dir=results_dir,
        run_id=run_id,
        argv=argv,
        config=config,
        seed=seed,
    )
    return _CURRENT


def current_journal() -> Optional[RunJournal]:
    """The active :class:`RunJournal`, or None outside a run."""
    return _CURRENT


def end_run(status: str = "ok", **summary) -> None:
    """Close the current run (no-op when none is active)."""
    global _CURRENT
    if _CURRENT is not None:
        _CURRENT.close(status=status, **summary)
        _CURRENT = None


def journal_event(event_type: str, **payload) -> bool:
    """Publish one event to the current run, if any.

    Returns True when the event was written.  The inactive path is one
    global read and a None check, cheap enough for library code to
    call unconditionally (bounded alongside the profiler's disabled
    brackets in ``tests/obs/test_disabled_cost.py``).
    """
    journal = _CURRENT
    if journal is None or journal.closed:
        return False
    journal.event(event_type, **payload)
    return True
