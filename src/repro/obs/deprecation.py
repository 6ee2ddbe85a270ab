"""The one per-process warn-once registry.

Some conditions deserve exactly one warning per process however often
they recur: a compiled model falling back to the interpreter (one
``RuntimeWarning`` per reason, :mod:`repro.compile`) and a shuffling
``DataLoader`` built without a generator (one ``UserWarning`` per call
site, :mod:`repro.data.dataloader`).  Both warn through
:func:`warn_once`, keyed by what makes the warning distinct.  Every
process keeps its own registry, so a pool worker warns on its own first
occurrence.  Tests re-arm keys via :func:`reset`.
"""

from __future__ import annotations

import warnings

#: Keys whose warning already fired this process.
_WARNED: set = set()


def warn_once(
    key: str, message: str, category: type, stacklevel: int = 2
) -> bool:
    """Emit ``message`` as a ``category`` warning once per ``key``.

    ``stacklevel`` means what it would for :func:`warnings.warn` called
    in place of this function.  Returns True when the warning fired
    (first use), False on repeats.
    """
    if key in _WARNED:
        return False
    _WARNED.add(key)
    warnings.warn(message, category, stacklevel=stacklevel + 1)
    return True


def reset(key: str = None) -> None:
    """Forget fired warnings (all, or one key) — for tests."""
    if key is None:
        _WARNED.clear()
    else:
        _WARNED.discard(key)
