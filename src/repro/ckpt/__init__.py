"""Fault tolerance: atomic checkpoints, resume, and graceful drain.

The paper's expensive step is error-in-the-loop retraining (Section 4)
fanned out over ``(ENOB, Nmult)`` grids; this subpackage makes that
work survive being killed:

- :mod:`~repro.ckpt.checkpoint` — versioned, schema-checked, atomically
  written training checkpoints capturing model weights, optimizer
  slots, the best-epoch snapshot, early-stop counters, epoch history,
  and every RNG stream the remaining epochs depend on.  A
  ``Trainer.fit`` killed at any epoch boundary and resumed produces
  bit-identical final weights and history.
- :mod:`~repro.ckpt.resume` — sweep-level resume: replay a run journal,
  reuse completed grid points, re-run only failed/missing ones
  (``python -m repro.experiments run <exp> --resume <run_id>``).
- :mod:`~repro.ckpt.signals` — SIGINT/SIGTERM graceful drain: finish
  the current epoch/point, write a final checkpoint, journal
  ``run.interrupted``, exit 130.

See ``docs/fault_tolerance.md`` for the checkpoint format and the
resume semantics.
"""

from repro.ckpt.checkpoint import (
    CKPT_SCHEMA_VERSION,
    TrainCheckpoint,
    capture_rng_states,
    load_checkpoint,
    restore_rng_states,
    save_checkpoint,
)
from repro.ckpt.resume import (
    load_sweep_results,
    store_sweep_result,
    sweep_point_path,
)
from repro.ckpt.signals import (
    clear_interrupt,
    graceful_shutdown,
    install_handlers,
    interrupt_requested,
    uninstall_handlers,
)

__all__ = [
    "CKPT_SCHEMA_VERSION",
    "TrainCheckpoint",
    "capture_rng_states",
    "clear_interrupt",
    "graceful_shutdown",
    "install_handlers",
    "interrupt_requested",
    "load_checkpoint",
    "load_sweep_results",
    "restore_rng_states",
    "save_checkpoint",
    "store_sweep_result",
    "sweep_point_path",
    "uninstall_handlers",
]
