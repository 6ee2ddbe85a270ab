"""Multi-tenant model registry with tiered warm pools.

``repro.registry`` is the single model-acquisition API: everything
that needs a trained model — experiments, the serving executor, the
multi-process cluster, the CLI — resolves a
:class:`~repro.serve.spec.ModelSpec` through a
:class:`ModelRegistry` and gets ``(model, metadata)`` back from
whichever tier answers fastest (**warm** in-memory, **cold** on-disk,
or a fresh training run on a true miss).

Typical use::

    from repro.registry import ModelRegistry

    registry = bench.registry                 # the workbench's registry
    model, meta = registry.get(spec)          # warm-tier (serving)
    model, meta = registry.get(spec, fresh=True)  # private copy (experiments)

or, process-wide::

    import repro.registry as registry

    registry.configure(bench, warm_max_entries=4)
    model, meta = registry.get(spec)

See ``docs/registry.md`` for tiers, quotas and background warm-up
semantics; the ``registry`` CLI subcommand
(``python -m repro.experiments registry list|evict|warm|stats``)
manages the cold tier on disk.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.registry.layout import (
    DEFAULT_CACHE_DIR,
    artifact_base,
    artifact_exists,
    artifact_paths,
    evict_artifacts,
    scan_artifacts,
    scratch_cache_dir,
)
from repro.registry.core import ModelRegistry, WarmEntry, model_nbytes
from repro.serve.spec import ModelSpec

#: The process-default registry installed by :func:`configure`.
_DEFAULT: Optional[ModelRegistry] = None


def configure(workbench, **options) -> ModelRegistry:
    """Install (and return) the process-default :class:`ModelRegistry`.

    ``options`` are forwarded to the :class:`ModelRegistry`
    constructor.  Re-configuring replaces the default; the previous
    registry keeps working for callers that hold a reference.
    """
    global _DEFAULT
    _DEFAULT = ModelRegistry(workbench, **options)
    return _DEFAULT


def current_registry() -> Optional[ModelRegistry]:
    """The process-default registry, or None before :func:`configure`."""
    return _DEFAULT


def get(
    spec: ModelSpec,
    *,
    tenant: Optional[str] = None,
    fresh: bool = False,
) -> Tuple[object, dict]:
    """``(model, metadata)`` from the process-default registry.

    The module-level convenience over
    :meth:`ModelRegistry.get`; requires a prior :func:`configure`.
    """
    if _DEFAULT is None:
        raise ConfigError(
            "no default model registry; call repro.registry.configure("
            "workbench) first, or use workbench.registry.get(spec)"
        )
    return _DEFAULT.get(spec, tenant=tenant, fresh=fresh)


__all__ = [
    "DEFAULT_CACHE_DIR",
    "ModelRegistry",
    "WarmEntry",
    "artifact_base",
    "artifact_exists",
    "artifact_paths",
    "configure",
    "current_registry",
    "evict_artifacts",
    "get",
    "model_nbytes",
    "scan_artifacts",
    "scratch_cache_dir",
]
