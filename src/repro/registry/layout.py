"""On-disk layout of the model-artifact registry (the cold tier).

Every trained artifact lives in one flat cache directory as one
atomic file, ``<prefix>-<cache_name>.state``, holding the state dict
and its training metadata (:func:`repro.utils.save_state`), with a
transient ``.ckpt`` checkpoint beside it while training is in flight.
``<prefix>`` is ``ExperimentConfig.cache_key_prefix()`` (profile,
seed, data shape), ``<cache_name>`` is
:meth:`repro.serve.spec.ModelSpec.cache_name` — the content address
the registry is keyed by.

This module is the **single home** for cache-directory path
construction and file suffixes: rule ``registry-cache-path`` of
``tools/lint.py`` (tier-1) rejects any other module under ``repro``
that touches ``config.cache_dir`` or spells the default cache path,
so tier bookkeeping can trust that every artifact on disk went through
these helpers — and through the crash-safe
:func:`repro.utils.atomic_write` protocol they build on.

Crashed writers leave pid-unique temporaries behind
(``<file>.tmp<pid>``).  :func:`scan_artifacts` classifies those as
*stale* only when the owning pid is gone; a temporary whose writer is
still alive is **live** and must never be deleted — removing it would
crash the writer's ``os.replace`` mid-publication, which is exactly
the torn-artifact race the registry exists to prevent.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: The conventional cache directory (``ExperimentConfig.cache_dir``'s
#: default).  CLI parsers take it from here so the literal path is
#: spelled exactly once outside the config dataclass.
DEFAULT_CACHE_DIR = ".cache/experiments"

#: Suffix of a complete cold-tier artifact (state dict + metadata).
STATE_SUFFIX = ".state"

#: Suffix of the transient per-epoch checkpoint beside it.
CKPT_SUFFIX = ".ckpt"

#: Leftovers of an atomic write: a process that died mid-save leaves
#: ``<name>.state.tmp<pid>`` or ``<name>.ckpt.tmp<pid>`` behind.
STALE_TMP = re.compile(r"\.(state|ckpt)\.tmp(\d+)$")


@dataclass(frozen=True)
class ArtifactPaths:
    """The files of one cold-tier artifact."""

    base: str
    state: str  # <base>.state — the trained state dict and metadata
    ckpt: str  # <base>.ckpt — transient per-epoch checkpoint


def artifact_base(config, name: str) -> str:
    """``<cache_dir>/<prefix>-<name>``, creating the cache directory.

    ``config`` is anything with ``cache_dir`` and
    ``cache_key_prefix()`` — normally an
    :class:`~repro.experiments.config.ExperimentConfig`.
    """
    os.makedirs(config.cache_dir, exist_ok=True)
    return os.path.join(
        config.cache_dir, f"{config.cache_key_prefix()}-{name}"
    )


def artifact_paths(config, name: str) -> ArtifactPaths:
    """The state and checkpoint paths of the artifact named ``name``."""
    base = artifact_base(config, name)
    return ArtifactPaths(
        base=base, state=base + STATE_SUFFIX, ckpt=base + CKPT_SUFFIX
    )


def artifact_exists(config, name: str) -> bool:
    """Whether a complete artifact is on disk."""
    return os.path.exists(artifact_paths(config, name).state)


def scratch_cache_dir(config, label: str) -> str:
    """A namespaced scratch cache *under* the configured cache dir.

    For callers that need a second cache whose artifacts must never
    collide with the main one — e.g. the explorer's short-train
    surrogate, whose models share cache names with fully trained ones
    because :meth:`~repro.experiments.config.ExperimentConfig.
    cache_key_prefix` deliberately excludes epoch counts.  Keeping the
    derivation here (the registry's single home for cache paths) is
    what lets rule ``registry-cache-path`` of ``tools/lint.py`` ban
    ad-hoc ``.cache_dir`` arithmetic everywhere else.
    """
    if not label or os.sep in label or label in (".", ".."):
        raise ValueError(f"invalid scratch cache label {label!r}")
    return os.path.join(config.cache_dir, label)


# ----------------------------------------------------------------------
# cache-directory scans (the CLI's view; no config object required)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArtifactEntry:
    """One complete ``.state`` entry found by :func:`scan_artifacts`."""

    name: str  # file name, e.g. quick-s77-...-fp32.state
    path: str
    size_bytes: int


def _tmp_pid(name: str) -> Optional[int]:
    """The writer pid encoded in a temporary's file name, else None."""
    match = STALE_TMP.search(name)
    return None if match is None else int(match.group(2))


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness check for ``pid`` (True when unsure)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def scan_artifacts(
    cache_dir: str,
) -> Tuple[List[ArtifactEntry], List[str], List[str]]:
    """Classify a cache directory: ``(entries, stale_tmps, live_tmps)``.

    ``entries`` are complete ``.state`` artifacts (never an in-flight
    checkpoint); ``stale_tmps`` are temporaries whose writer process is
    gone (safe to delete);
    ``live_tmps`` are temporaries a running writer still owns — an
    eviction in progress must leave them alone.
    """
    if not os.path.isdir(cache_dir):
        return [], [], []
    entries: List[ArtifactEntry] = []
    stale: List[str] = []
    live: List[str] = []
    for name in sorted(os.listdir(cache_dir)):
        pid = _tmp_pid(name)
        if pid is not None:
            (live if _pid_alive(pid) else stale).append(name)
            continue
        if name.endswith(STATE_SUFFIX):
            path = os.path.join(cache_dir, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue  # raced with a concurrent eviction
            entries.append(
                ArtifactEntry(name=name, path=path, size_bytes=size)
            )
    return entries, stale, live


def evict_artifacts(
    cache_dir: str,
    names: Optional[List[str]] = None,
    everything: bool = False,
) -> Tuple[int, List[str]]:
    """Delete cold artifacts; returns ``(removed count, live tmps kept)``.

    ``names`` selects artifact *stems* (the file name without its
    ``.state`` / ``.ckpt`` suffix) or exact file names; ``everything``
    removes every artifact and checkpoint.  Stale temporaries (dead
    writer pid) are always swept; **live** temporaries are never touched, so an
    eviction racing a worker mid-publication cannot tear the worker's
    atomic write.  Missing files are skipped silently — a concurrent
    eviction already won.
    """
    if not os.path.isdir(cache_dir):
        return 0, []
    wanted = set(names or ())
    removed = 0
    live_kept: List[str] = []
    for name in sorted(os.listdir(cache_dir)):
        pid = _tmp_pid(name)
        if pid is not None:
            if _pid_alive(pid):
                live_kept.append(name)
                continue
            target = True  # stale temporary: always sweep
        elif name.endswith((STATE_SUFFIX, CKPT_SUFFIX)):
            stem = os.path.splitext(name)[0]
            target = everything or name in wanted or stem in wanted
        else:
            target = False
        if not target:
            continue
        try:
            os.remove(os.path.join(cache_dir, name))
            removed += 1
        except FileNotFoundError:
            continue
        except OSError:
            continue
    return removed, live_kept


__all__ = [
    "ArtifactEntry",
    "ArtifactPaths",
    "DEFAULT_CACHE_DIR",
    "STALE_TMP",
    "artifact_base",
    "artifact_exists",
    "artifact_paths",
    "evict_artifacts",
    "scan_artifacts",
    "scratch_cache_dir",
]
