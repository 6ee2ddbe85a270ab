"""Zero-copy weight binding for the multi-process serving cluster.

A serving cluster runs N replica processes of the same trained model.
Copying the parameter set into every replica would cost one full copy
per process; instead the parent **publishes** the state dict once as an
artifact file (:func:`repro.utils.save_state`, the same format as the
registry cold tier and checkpoints) and every replica maps it
read-only (:func:`repro.utils.map_state`) and binds the parameter
arrays as views directly into the mapping.  The kernel then backs all
replicas with the same physical page cache — weights are shared, not
copied, regardless of the multiprocessing start method.

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

Every bound array is cache-line aligned (the format aligns each array
to 64 bytes), and a damaged file raises
:class:`~repro.errors.ArtifactError` before anything is bound.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.serialization import map_state


def bind_shared(model, path: str, strict: bool = True) -> int:
    """Bind a model's parameters to a published file without copying.

    Parameters become read-only views into the mapping (zero-copy);
    buffers are loaded in place (modules hold views into them).  Shape
    and dtype mismatches raise :class:`~repro.errors.ConfigError`.
    Returns the number of parameter bytes bound zero-copy.
    """
    views, _meta = map_state(path)
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
    into a published file (the cluster's RSS guarantee).
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
    "bind_shared",
    "bound_fraction",
    "process_rss_kb",
]
