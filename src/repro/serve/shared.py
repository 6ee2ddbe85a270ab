"""Zero-copy weight publication for the multi-process serving cluster.

A serving cluster runs N replica processes of the same trained model.
Loading the ``.npz`` cache entry in every replica would copy the full
parameter set per process; instead the parent **publishes** the state
dict once as one flat little-endian binary blob plus an in-memory
manifest, and every replica ``np.memmap``'s the blob read-only and
binds the parameter arrays as views directly into the mapping.  The
kernel then backs all replicas with the same physical page cache —
weights are shared, not copied, regardless of the multiprocessing
start method.

Binding contract:

- **parameters** are bound zero-copy: ``param.data`` becomes a
  read-only view into the mapping (inference never writes weights;
  an optimizer step on a bound model would fail loudly on the
  read-only array, which is the correct outcome for a serving
  replica).  Derived products — DoReFa-quantized weights, compiled
  kernel tapes — remain per-process, exactly as they are per-executor
  today.
- **buffers** (batch-norm running statistics, quantizer calibration)
  are copied in place, because modules hold live views into them;
  they are a few KB against MBs of weights.

The blob layout is ``align``-padded so every bound array is
cache-line aligned; the manifest travels to workers by pickle (it is
a plain dataclass), never through the filesystem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.utils.serialization import atomic_write

#: Byte alignment of every array inside a published blob.
ALIGN = 64


@dataclass(frozen=True)
class SharedWeights:
    """Picklable handle to one published weight blob.

    ``entries`` maps each state-dict key to ``(offset, shape, dtype
    string)`` inside the blob at ``path``; ``nbytes`` is the total
    payload (excluding alignment padding) for accounting.
    """

    path: str
    entries: Tuple[Tuple[str, Tuple[int, Tuple[int, ...], str]], ...]
    nbytes: int = 0

    def manifest(self) -> Dict[str, Tuple[int, Tuple[int, ...], str]]:
        return dict(self.entries)


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def publish_weights(state: Dict[str, np.ndarray], path: str) -> SharedWeights:
    """Write ``state`` as one flat blob; returns the mmap handle.

    The write is atomic (tmp + fsync + rename via
    :func:`repro.utils.atomic_write`), so a crashed publisher never
    leaves a half-written blob for replicas to map.
    """
    if not state:
        raise ConfigError("cannot publish an empty state dict")
    entries: List[Tuple[str, Tuple[int, Tuple[int, ...], str]]] = []
    offset = 0
    arrays = []
    payload = 0
    for name in sorted(state):
        # Not ascontiguousarray: that would promote 0-d arrays to 1-d
        # and break the shape round trip (0-d is always contiguous).
        arr = np.asarray(state[name])
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        offset = _aligned(offset)
        entries.append((name, (offset, tuple(arr.shape), arr.dtype.str)))
        arrays.append((offset, arr))
        offset += arr.nbytes
        payload += arr.nbytes
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path, "wb") as fh:
        position = 0
        for start, arr in arrays:
            if start > position:
                fh.write(b"\0" * (start - position))
            fh.write(arr.tobytes())
            position = start + arr.nbytes
    return SharedWeights(
        path=os.path.abspath(path), entries=tuple(entries), nbytes=payload
    )


def open_shared(shared: SharedWeights) -> Dict[str, np.ndarray]:
    """Map a published blob read-only: ``{state key: array view}``.

    Every returned array is a zero-copy view into one shared
    ``np.memmap``; ``view.base`` chains back to the mapping, which is
    what :func:`bound_fraction` checks.
    """
    if not os.path.exists(shared.path):
        raise ConfigError(f"no published weight blob at {shared.path}")
    mm = np.memmap(shared.path, dtype=np.uint8, mode="r")
    views: Dict[str, np.ndarray] = {}
    for name, (offset, shape, dtype) in shared.entries:
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + count * dt.itemsize
        if end > mm.size:
            raise ConfigError(
                f"published blob {shared.path} is truncated: entry "
                f"{name!r} needs bytes [{offset}, {end}) of {mm.size}"
            )
        view = np.frombuffer(mm, dtype=dt, count=count, offset=offset)
        views[name] = view.reshape(shape)
    return views


def bind_shared(model, shared: SharedWeights, strict: bool = True) -> int:
    """Bind a model's parameters to a published blob without copying.

    Parameters become read-only views into the mapping (zero-copy);
    buffers are loaded in place (modules hold views into them).  Shape
    and dtype mismatches raise :class:`~repro.errors.ConfigError`.
    Returns the number of parameter bytes bound zero-copy.
    """
    views = open_shared(shared)
    own_params = dict(model.named_parameters())
    own_buffers = {
        name: (module, local)
        for name, module, local in model._iter_buffer_slots()
    }
    expected = set(own_params) | set(own_buffers)
    provided = set(views)
    if strict and (expected - provided or provided - expected):
        raise ConfigError(
            "shared weights do not match the model: "
            f"missing={sorted(expected - provided)}, "
            f"unexpected={sorted(provided - expected)}"
        )
    bound = 0
    for name, view in views.items():
        if name in own_params:
            param = own_params[name]
            if param.data.shape != view.shape:
                raise ConfigError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {view.shape}"
                )
            if param.data.dtype != view.dtype:
                raise ConfigError(
                    f"dtype mismatch for {name}: "
                    f"{param.data.dtype} vs {view.dtype}"
                )
            param.data = view
            param.version = getattr(param, "version", 0) + 1
            bound += view.nbytes
        elif name in own_buffers:
            module, local = own_buffers[name]
            current = module._buffers[local]
            if current.shape != view.shape:
                raise ConfigError(
                    f"shape mismatch for buffer {name}: "
                    f"{current.shape} vs {view.shape}"
                )
            current[...] = view
    # Buffers changed in place; invalidate value-keyed caches the same
    # way load_state_dict does.
    object.__setattr__(
        model, "_generation", getattr(model, "_generation", 0) + 1
    )
    return bound


def bound_fraction(model) -> float:
    """Fraction of parameter bytes backed by a shared mapping.

    Walks each parameter's ``.base`` chain looking for an
    ``np.memmap``; 1.0 means every parameter byte is a zero-copy view
    into a published blob (the cluster's RSS guarantee).
    """
    total = 0
    shared = 0
    for _, param in model.named_parameters():
        total += param.data.nbytes
        base = param.data
        while base is not None:
            if isinstance(base, np.memmap):
                shared += param.data.nbytes
                break
            base = getattr(base, "base", None)
    return shared / total if total else 0.0


def process_rss_kb() -> int:
    """This process's resident set size in KB (Linux; 0 if unknown)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


__all__ = [
    "SharedWeights",
    "bind_shared",
    "bound_fraction",
    "open_shared",
    "process_rss_kb",
    "publish_weights",
]
