"""Training loop with the paper's retraining protocol.

"All runs involving retraining use a minibatch size of 1024 with a
learning rate of 0.004; ... Learning rate scheduling is not implemented
here; if the validation set accuracy begins to decrease after some
time, the training run is stopped and the maximum validation accuracy
is reported."

:class:`Trainer` implements exactly that: constant LR SGD, per-epoch
validation, patience-based stopping when accuracy declines, and
restoration of the best-epoch weights ("the best epoch of the quantized
retrained network ... was used").

Every epoch runs under an ``obs.span("train.epoch")`` trace span (which
also feeds ``--profile-ops``) and, when a run journal is active, emits
one ``train.epoch`` event (loss, validation accuracy, LR, wall time,
batch count) plus a closing ``train.fit`` event — the journal is the
durable form of :class:`TrainResult.history`.

Fault tolerance (see :mod:`repro.ckpt` and ``docs/fault_tolerance.md``):
pass ``checkpoint_path`` to :meth:`Trainer.fit` and every epoch
boundary atomically persists the full training state — weights,
optimizer slots, best-epoch snapshot, early-stop counters, epoch
history, and every RNG stream the remaining epochs depend on.  A run
killed at any boundary and re-invoked with ``resume=True`` produces
final weights and history bit-identical to an uninterrupted run.  A
pending SIGINT/SIGTERM (:func:`repro.ckpt.interrupt_requested`) is
honored at the boundary: final checkpoint, ``run.interrupted`` journal
event, then :class:`~repro.errors.RunInterrupted`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.ckpt.checkpoint import (
    TrainCheckpoint,
    capture_rng_states,
    load_checkpoint,
    restore_rng_states,
    save_checkpoint,
)
from repro.ckpt.signals import interrupt_requested
from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.errors import CheckpointError, ConfigError, RunInterrupted
from repro.nn.module import Module
from repro.obs.journal import journal_event
from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.optim.sgd import SGD
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.train.evaluate import evaluate_accuracy
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for a (re)training run.

    The defaults mirror the paper's retraining recipe scaled to the
    synthetic workload: constant learning rate, SGD with momentum,
    early stop when validation accuracy declines.
    """

    epochs: int = 20
    batch_size: int = 128
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4
    patience: int = 3
    shuffle_seed: int = 0
    log: Optional[Callable[[str], None]] = None
    #: Optional batch transform (see :mod:`repro.data.transforms`)
    #: applied to training images each epoch.
    augment: Optional[Callable] = None
    #: Called with the epoch index after each epoch's bookkeeping (and
    #: checkpoint write, when enabled).  This is the controlled crash /
    #: instrumentation point the fault-tolerance tests rely on.
    on_epoch_end: Optional[Callable[[int], None]] = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")

    def fingerprint(self) -> Dict[str, object]:
        """The resume-compatibility fields, as stored in checkpoints.

        Resuming under different hyperparameters cannot reproduce the
        uninterrupted run, so :meth:`Trainer.fit` refuses a checkpoint
        whose fingerprint disagrees.
        """
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "patience": self.patience,
            "shuffle_seed": self.shuffle_seed,
            "augmented": self.augment is not None,
        }


@dataclass
class TrainResult:
    """Outcome of a training run."""

    best_accuracy: float
    best_epoch: int
    history: List[Dict[str, float]] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.history)


class Trainer:
    """Runs the paper's retraining protocol on a model."""

    def __init__(self, config: TrainConfig = TrainConfig()):
        self.config = config

    def _log(self, message: str) -> None:
        if self.config.log is not None:
            self.config.log(message)

    def fit(
        self,
        model: Module,
        train_data: ArrayDataset,
        val_data: ArrayDataset,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
    ) -> TrainResult:
        """Train ``model``; restore and report the best-epoch weights.

        The model is left holding its best-validation-accuracy weights
        (the paper reports "the maximum validation accuracy").

        With ``checkpoint_path`` set, every epoch boundary atomically
        writes a :class:`~repro.ckpt.TrainCheckpoint` there; with
        ``resume=True`` as well, an existing checkpoint is loaded and
        training continues from the epoch after it (a missing file
        simply starts from scratch, so the flag is safe on first runs).
        """
        cfg = self.config
        if cfg.augment is not None:
            from repro.data.transforms import AugmentingDataLoader

            loader = AugmentingDataLoader(
                train_data,
                batch_size=cfg.batch_size,
                transform=cfg.augment,
                shuffle=True,
                drop_last=True,
                rng=new_rng(cfg.shuffle_seed),
            )
        else:
            loader = DataLoader(
                train_data,
                batch_size=cfg.batch_size,
                shuffle=True,
                drop_last=True,
                rng=new_rng(cfg.shuffle_seed),
            )
        optimizer = SGD(
            model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
        result = TrainResult(best_accuracy=-1.0, best_epoch=-1)
        best_state = None
        epochs_since_best = 0
        start_epoch = 0
        if resume:
            if checkpoint_path is None:
                raise ConfigError(
                    "Trainer.fit(resume=True) requires checkpoint_path"
                )
            if os.path.exists(checkpoint_path):
                ckpt = load_checkpoint(checkpoint_path)
                self._check_compatible(ckpt, checkpoint_path)
                model.load_state_dict(ckpt.model_state)
                optimizer.load_state_dict(ckpt.optimizer_state)
                restore_rng_states(ckpt.rng_states, model, loader)
                result.history = [dict(entry) for entry in ckpt.history]
                result.best_accuracy = ckpt.best_accuracy
                result.best_epoch = ckpt.best_epoch
                result.stopped_early = ckpt.stopped_early
                best_state = ckpt.best_state
                epochs_since_best = ckpt.epochs_since_best
                start_epoch = ckpt.epoch + 1
                journal_event(
                    "train.resume", epoch=ckpt.epoch, checkpoint=checkpoint_path
                )
                self._log(
                    f"resumed epoch {ckpt.epoch} from {checkpoint_path}"
                )
        registry = default_registry()
        epochs = range(start_epoch, 0 if result.stopped_early else cfg.epochs)
        for epoch in epochs:
            loss, batches, epoch_seconds = self._run_epoch(
                model, loader, optimizer
            )
            accuracy = evaluate_accuracy(model, val_data, cfg.batch_size)
            result.history.append(
                {"epoch": epoch, "train_loss": loss, "val_accuracy": accuracy}
            )
            registry.counter("train.epochs_completed").inc()
            registry.histogram("train.epoch_seconds").observe(epoch_seconds)
            journal_event(
                "train.epoch",
                epoch=epoch,
                train_loss=loss,
                val_accuracy=float(accuracy),
                lr=cfg.lr,
                epoch_seconds=epoch_seconds,
                batches=batches,
            )
            self._log(
                f"epoch {epoch}: loss={loss:.4f} val_acc={accuracy:.4f}"
            )
            if accuracy > result.best_accuracy:
                result.best_accuracy = accuracy
                result.best_epoch = epoch
                best_state = model.state_dict()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= cfg.patience:
                    result.stopped_early = True
                    self._log(
                        f"stopping: no improvement for {cfg.patience} epochs"
                    )
            # --- epoch boundary: persist, then honor pending signals ---
            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path,
                    TrainCheckpoint(
                        epoch=epoch,
                        model_state=model.state_dict(),
                        optimizer_state=optimizer.state_dict(),
                        best_state=best_state,
                        best_accuracy=float(result.best_accuracy),
                        best_epoch=result.best_epoch,
                        epochs_since_best=epochs_since_best,
                        history=result.history,
                        rng_states=capture_rng_states(model, loader),
                        train_config=cfg.fingerprint(),
                        stopped_early=result.stopped_early,
                    ),
                )
                journal_event(
                    "train.checkpoint", epoch=epoch, path=checkpoint_path
                )
            if cfg.on_epoch_end is not None:
                cfg.on_epoch_end(epoch)
            drain_signal = interrupt_requested()
            if drain_signal is not None:
                journal_event(
                    "run.interrupted",
                    signal=drain_signal,
                    phase="train",
                    epoch=epoch,
                )
                self._log(f"{drain_signal}: drained after epoch {epoch}")
                raise RunInterrupted(
                    f"training drained after epoch {epoch} on {drain_signal}"
                    + (
                        f"; resume from {checkpoint_path}"
                        if checkpoint_path is not None
                        else ""
                    ),
                    signal_name=drain_signal,
                )
            if result.stopped_early:
                break
        if best_state is not None:
            model.load_state_dict(best_state)
        journal_event(
            "train.fit",
            best_accuracy=float(result.best_accuracy),
            best_epoch=result.best_epoch,
            epochs_run=result.epochs_run,
            stopped_early=result.stopped_early,
        )
        return result

    def _check_compatible(self, ckpt, path: str) -> None:
        """Refuse to resume a checkpoint written under other hyperparams."""
        recorded = ckpt.train_config
        current = self.config.fingerprint()
        if recorded != current:
            changed = sorted(
                name
                for name in set(recorded) | set(current)
                if recorded.get(name) != current.get(name)
            )
            raise CheckpointError(
                f"checkpoint {path} was written with different training "
                f"hyperparameters (changed: {changed}); resuming would "
                "not reproduce the uninterrupted run"
            )

    def _run_epoch(
        self, model: Module, loader: DataLoader, optimizer: SGD
    ) -> tuple:
        """One pass over the loader: ``(mean loss, batches, seconds)``."""
        model.train()
        total_loss = 0.0
        batches = 0
        with span("train.epoch") as epoch_span:
            for images, labels in loader:
                optimizer.zero_grad()
                logits = model(Tensor(images))
                loss = F.cross_entropy(logits, labels)
                loss.backward()
                optimizer.step()
                total_loss += loss.item()
                batches += 1
        if batches == 0:
            raise ConfigError(
                "no training batches; dataset smaller than batch_size "
                "with drop_last"
            )
        return total_loss / batches, batches, epoch_span.duration_s
