"""Versioned, schema-checked, atomically-written training checkpoints.

One checkpoint is one artifact file
(:func:`~repro.utils.serialization.save_state`) — a single file, so
the :func:`~repro.utils.serialization.atomic_write` rename makes the
whole capture atomic — holding the complete state of a
:meth:`repro.train.Trainer.fit` run at an epoch boundary:

- ``model.<name>``: the live model ``state_dict`` arrays,
- ``optim.<name>``: optimizer slot state (SGD velocity / Adam moments
  and step count),
- ``best.<name>``: the best-validation-epoch weight snapshot,
- JSON metadata in the file's header: schema version, epoch index,
  early-stop counters,
  the full epoch history, the training-config fingerprint, and every
  RNG state the remaining epochs depend on — the dataloader shuffle
  generator plus any stateful per-module noise generator (AMS error
  injectors advance their generator every forward pass).

Floats in the metadata round-trip bit-exactly (``json`` serializes
with ``repr`` precision), and arrays round-trip exactly by
construction, which is what makes kill-at-epoch-k + resume produce
final weights and history bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ArtifactError, CheckpointError
from repro.utils.serialization import load_state, save_state

#: Checkpoint format version; bump on any incompatible layout change.
CKPT_SCHEMA_VERSION = 1

#: Array-key prefixes for the three state-dict sections.
_SECTIONS = ("model", "optim", "best")

#: Metadata fields every checkpoint must carry.
_REQUIRED_META = (
    "schema_version",
    "epoch",
    "best_accuracy",
    "best_epoch",
    "epochs_since_best",
    "stopped_early",
    "history",
    "rng_states",
    "train_config",
)


@dataclass
class TrainCheckpoint:
    """Full training state at the end of epoch ``epoch``.

    ``rng_states`` maps stream names (``"loader"`` for the shuffle
    generator, ``"module:<qualname>"`` for per-module generators) to
    ``numpy`` bit-generator state dicts.  ``train_config`` is the
    fingerprint dict checked on resume — resuming under different
    hyperparameters would not reproduce the uninterrupted run, so it
    is an error rather than a silent divergence.
    """

    epoch: int
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, np.ndarray]
    best_state: Optional[Dict[str, np.ndarray]]
    best_accuracy: float
    best_epoch: int
    epochs_since_best: int
    history: List[dict]
    rng_states: Dict[str, dict]
    train_config: Dict[str, object] = field(default_factory=dict)
    stopped_early: bool = False
    schema_version: int = CKPT_SCHEMA_VERSION


def save_checkpoint(path: str, ckpt: TrainCheckpoint) -> str:
    """Atomically write ``ckpt`` to ``path`` (used as given); returns it."""
    arrays: Dict[str, np.ndarray] = {}
    sections = {
        "model": ckpt.model_state,
        "optim": ckpt.optimizer_state,
        "best": ckpt.best_state or {},
    }
    for section, state in sections.items():
        for name, value in state.items():
            arrays[f"{section}.{name}"] = value
    meta = {
        "schema_version": ckpt.schema_version,
        "epoch": ckpt.epoch,
        "best_accuracy": float(ckpt.best_accuracy),
        "best_epoch": ckpt.best_epoch,
        "epochs_since_best": ckpt.epochs_since_best,
        "stopped_early": ckpt.stopped_early,
        "history": ckpt.history,
        "rng_states": ckpt.rng_states,
        "train_config": ckpt.train_config,
        "has_best": ckpt.best_state is not None,
    }
    save_state(path, arrays, meta=meta)
    return path


def load_checkpoint(path: str) -> TrainCheckpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing or damaged, lacks checkpoint metadata, carries an
    unsupported schema version, or is missing required fields.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        arrays, meta = load_state(path)
    except ArtifactError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    if "schema_version" not in meta:
        raise CheckpointError(
            f"{path} is not a training checkpoint (no checkpoint "
            "metadata); was it written by save_state instead of "
            "save_checkpoint?"
        )
    missing = [name for name in _REQUIRED_META if name not in meta]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing metadata fields {missing}"
        )
    version = meta["schema_version"]
    if version != CKPT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version}; this build "
            f"reads version {CKPT_SCHEMA_VERSION}"
        )
    sections: Dict[str, Dict[str, np.ndarray]] = {s: {} for s in _SECTIONS}
    for key, value in arrays.items():
        section, _, name = key.partition(".")
        if section not in sections or not name:
            raise CheckpointError(
                f"checkpoint {path} has unrecognized array key {key!r}"
            )
        sections[section][name] = value
    return TrainCheckpoint(
        epoch=meta["epoch"],
        model_state=sections["model"],
        optimizer_state=sections["optim"],
        best_state=sections["best"] if meta.get("has_best") else None,
        best_accuracy=meta["best_accuracy"],
        best_epoch=meta["best_epoch"],
        epochs_since_best=meta["epochs_since_best"],
        history=meta["history"],
        rng_states=meta["rng_states"],
        train_config=meta["train_config"],
        stopped_early=meta["stopped_early"],
        schema_version=version,
    )


# ----------------------------------------------------------------------
# RNG capture: everything stochastic the remaining epochs depend on
# ----------------------------------------------------------------------
def capture_rng_states(model, loader=None) -> Dict[str, dict]:
    """Snapshot every generator the rest of training will draw from.

    Walks ``model.named_modules()`` for generator state: modules
    exposing ``rng_streams()`` (the AMS error injectors, which may own
    extra per-model streams on top of their main one) contribute every
    stream — the main one under the legacy ``module:<name>`` key so old
    checkpoints stay loadable, extras under ``module:<name>:<stream>``
    — and plain ``rng`` attributes that are ``numpy`` generators
    contribute one state each.  The dataloader's shuffle generator is
    included under ``"loader"``.  The states are plain dicts of ints
    and strings, JSON-serializable bit-exactly.
    """
    states: Dict[str, dict] = {}
    if loader is not None:
        states["loader"] = loader.rng_state()
    for name, gen in _model_streams(model).items():
        states[name] = gen.bit_generator.state
    return states


def _model_streams(model) -> Dict[str, "np.random.Generator"]:
    """Every checkpointable generator in ``model``, by checkpoint key."""
    streams: Dict[str, np.random.Generator] = {}
    for name, module in model.named_modules():
        collect = getattr(module, "rng_streams", None)
        if callable(collect):
            for stream, gen in collect().items():
                key = (
                    f"module:{name}" if stream == ""
                    else f"module:{name}:{stream}"
                )
                streams[key] = gen
            continue
        gen = getattr(module, "rng", None)
        if isinstance(gen, np.random.Generator):
            streams[f"module:{name}"] = gen
    return streams


def restore_rng_states(states: Dict[str, dict], model, loader=None) -> None:
    """Restore a :func:`capture_rng_states` snapshot onto live objects.

    Raises :class:`~repro.errors.CheckpointError` when the checkpoint
    names a generator the rebuilt model does not have — resuming a
    different architecture cannot be bit-identical.
    """
    streams = _model_streams(model)
    for name, state in states.items():
        if name == "loader":
            if loader is not None:
                loader.set_rng_state(state)
            continue
        if name not in streams:
            raise CheckpointError(
                f"checkpoint records RNG state for {name!r} but the "
                "rebuilt model has no such generator; the architecture "
                "does not match the checkpoint"
            )
        streams[name].bit_generator.state = state
