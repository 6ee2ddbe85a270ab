"""Warn-once deprecation helper shared by the deprecation shims.

The single per-process registry behind every deprecation shim (the
``Workbench.model``/keyword shims, the legacy injector constructor):
the first use of a deprecated entry point emits one
:class:`DeprecationWarning` per process, later uses are silent.  Tests
reset the registry via :func:`reset` to assert the exactly-once
contract.

Pool workers (sweep fan-out, serving replicas) inherit none of the
parent's module state, so without care every worker re-warns for a shim
the parent already warned about — N workers, N copies of the same
warning.  Worker entry points call :func:`mark_worker_process` right
after startup; a marked process suppresses deprecation warnings
entirely, on the grounds that the parent process owns the user-facing
warning.
"""

from __future__ import annotations

import warnings

#: Keys whose warning already fired this process.
_WARNED: set = set()

#: True in pool-worker processes, where warnings are suppressed.
_IN_WORKER = False


def warn_once(key: str, message: str, stacklevel: int = 3) -> bool:
    """Emit ``message`` as a DeprecationWarning once per ``key``.

    Returns True when the warning fired (first use), False on repeats
    and always in worker processes (see :func:`mark_worker_process`).
    """
    if _IN_WORKER or key in _WARNED:
        return False
    _WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)
    return True


def mark_worker_process(active: bool = True) -> None:
    """Flag this process as a pool worker (suppresses all warnings).

    Called by worker initializers (:func:`repro.parallel.sweep.
    _init_worker`, the serving cluster's replica entry point) so each
    fanned-out process does not repeat warnings the parent already
    emitted.  ``active=False`` unmarks — for tests.
    """
    global _IN_WORKER
    _IN_WORKER = active


def in_worker_process() -> bool:
    """True when this process was marked via :func:`mark_worker_process`."""
    return _IN_WORKER


def reset(key: str = None) -> None:
    """Forget fired warnings (all, or one key) — for tests."""
    if key is None:
        _WARNED.clear()
    else:
        _WARNED.discard(key)
