"""Shared experiment infrastructure: the :class:`Workbench`.

The paper's experiments share trained artifacts (the pretrained FP32
ResNet-50, retrained quantized baselines, AMS-retrained variants).  The
workbench builds them on demand, caches state dicts + metadata on disk,
and hands out freshly constructed models with the cached weights loaded,
so running ``fig4`` after ``table1`` does not retrain the 8b baseline.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ams.vmac import VMACConfig
from repro.data.synthetic import SynthImageNet, SynthImageNetConfig
from repro.errors import ArtifactError
from repro.experiments.config import ExperimentConfig
from repro.models.factory import AMSFactory, DoReFaFactory, FP32Factory
from repro.models.resnet import ResNet, resnet_small
from repro.nn.module import Module
from repro.quant.qmodules import InputQuantizer, QuantConfig
from repro.serve.spec import ModelSpec
from repro.train.evaluate import EvalStats, repeated_evaluate
from repro.train.freeze import freeze_layers
from repro.train.trainer import TrainConfig, Trainer
from repro.utils.serialization import load_state, save_state
from repro.utils.tabulate import format_table


@dataclass
class ExperimentResult:
    """Printable/serializable result of one experiment."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    charts: List[str] = field(default_factory=list)

    def table(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        for chart in self.charts:
            text += "\n\n" + chart
        return text

    def save(self, results_dir: str) -> str:
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"{self.experiment_id}.json")
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": self.headers,
            "rows": self.rows,
            "notes": self.notes,
            "extras": self.extras,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=_jsonable)
        return path


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


class Workbench:
    """Builds, trains and caches the models the experiments share.

    ``jobs`` is the worker-process count the sweep engine
    (:func:`repro.parallel.sweep_map`) uses when an experiment fans its
    grid points out; ``1`` (the default) keeps every experiment on the
    historical serial path, bit for bit.

    ``resume_run`` (the CLI's ``--resume <run_id>``) enables fault
    recovery: training loads per-epoch checkpoints written beside the
    cache entries, and sweeps reuse the named run's completed grid
    points (see ``docs/fault_tolerance.md``).  ``retries`` /
    ``retry_backoff`` tune the sweep engine's tolerance for dying
    worker processes.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        jobs: int = 1,
        resume_run: Optional[str] = None,
        retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
    ):
        self.config = config
        self.jobs = jobs
        self.resume_run = resume_run
        if retries is not None:
            self.retries = retries
        if retry_backoff is not None:
            self.retry_backoff = retry_backoff
        self._data: Optional[SynthImageNet] = None
        self._accuracy_cache: Dict[str, dict] = {}
        self._registry = None

    # ------------------------------------------------------------------
    # model acquisition (the registry owns all tiers)
    # ------------------------------------------------------------------
    @property
    def registry(self):
        """This workbench's :class:`repro.registry.ModelRegistry`.

        The single model-acquisition entry point:
        ``bench.registry.get(spec, fresh=True)`` trains or loads the
        artifact for ``spec``.
        """
        if self._registry is None:
            from repro.registry import ModelRegistry

            self._registry = ModelRegistry(self)
        return self._registry

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    @property
    def data(self) -> SynthImageNet:
        if self._data is None:
            cfg = self.config
            self._data = SynthImageNet(
                SynthImageNetConfig(
                    num_classes=cfg.num_classes,
                    image_size=cfg.image_size,
                    train_per_class=cfg.train_per_class,
                    val_per_class=cfg.val_per_class,
                    distractor_mix=cfg.distractor_mix,
                    noise_std=cfg.noise_std,
                    seed=cfg.seed,
                )
            )
        return self._data

    # ------------------------------------------------------------------
    # model construction (untrained)
    # ------------------------------------------------------------------
    def _finish(self, model: ResNet) -> ResNet:
        """Post-construction calibration shared by all variants."""
        if isinstance(model.input_adapter, InputQuantizer):
            model.input_adapter.calibrate(self.data.train.images)
        return model

    def build(
        self,
        spec: ModelSpec,
        *,
        with_probes: bool = False,
        noise_tag: str = "",
        calibrate: bool = True,
    ) -> ResNet:
        """Construct the untrained, input-calibrated network for ``spec``.

        ``with_probes`` inserts activation probes (Fig. 6
        instrumentation; parameter names are unchanged, so state dicts
        stay interchangeable).  ``noise_tag`` labels the AMS noise
        stream of custom eval-time studies; ``ams_eval`` defaults to
        the historical ``"evalonly"`` tag so existing results
        reproduce bit for bit.  ``calibrate=False`` skips the
        input-quantizer data calibration — for processes (serving
        replicas) that receive the calibration constant out of band
        and must not pay for materializing the training split.
        """
        spec = spec.resolved(self.config)
        cfg = self.config
        if spec.variant == "fp32":
            factory = FP32Factory(seed=cfg.seed + 1, with_probes=with_probes)
        elif spec.variant == "quant":
            factory = DoReFaFactory(
                QuantConfig(spec.bw, spec.bx),
                seed=cfg.seed + 1,
                with_probes=with_probes,
            )
        else:
            if spec.variant == "ams_eval" and not noise_tag:
                noise_tag = "evalonly"
            noise_seed = zlib.crc32(
                f"{cfg.seed}-{spec.enob}-{spec.nmult}-{noise_tag}".encode()
            )
            factory = AMSFactory(
                QuantConfig(spec.bw, spec.bx),
                VMACConfig(
                    enob=spec.enob, nmult=spec.nmult, bw=spec.bw, bx=spec.bx
                ),
                seed=cfg.seed + 1,
                noise_seed=noise_seed,
                inject_last_in_training=spec.inject_last_in_training,
                with_probes=with_probes,
                error_model=spec.error_model or "lumped_gaussian",
                error_model_params=dict(spec.error_model_params),
            )
        model = resnet_small(factory, num_classes=cfg.num_classes)
        return self._finish(model) if calibrate else model

    # ------------------------------------------------------------------
    # cached training
    # ------------------------------------------------------------------
    def _train_cached(
        self,
        name: str,
        build: Callable[[], ResNet],
        train_config: TrainConfig,
        init_state: Optional[dict] = None,
        freeze: Sequence[str] = (),
    ) -> Tuple[ResNet, dict]:
        """Train-or-load a model by cache name.

        Returns ``(model_with_best_weights, metadata)`` where metadata
        records the best validation accuracy and training history.  A
        damaged cache file is a miss: it is journaled as
        ``source="corrupt"``, retrained and overwritten.
        """
        from repro.obs.journal import journal_event
        # The registry layout is the single home for cache paths and
        # suffixes (rule registry-cache-path of tools/lint.py forbids
        # building them anywhere else).
        from repro.registry.layout import artifact_paths

        paths = artifact_paths(self.config, name)
        model = build()
        if os.path.exists(paths.state):
            try:
                state, meta = load_state(paths.state)
            except ArtifactError:
                journal_event("bench.artifact", name=name, source="corrupt")
            else:
                model.load_state_dict(state)
                journal_event("bench.artifact", name=name, source="cache")
                return model, meta

        if init_state is not None:
            model.load_state_dict(init_state)
        if freeze:
            freeze_layers(model, freeze)
        # Per-epoch checkpoints make a killed training run resumable
        # (``--resume``); writing them is cheap next to an epoch, so
        # they are always on.  Resume is only honored when requested —
        # a stale checkpoint must never silently shape a fresh run.
        resume = self.resume_run is not None and os.path.exists(paths.ckpt)
        result = Trainer(train_config).fit(
            model,
            self.data.train,
            self.data.val,
            checkpoint_path=paths.ckpt,
            resume=resume,
        )
        meta = {
            "name": name,
            "best_accuracy": result.best_accuracy,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            "stopped_early": result.stopped_early,
            "history": result.history,
        }
        # save_state is crash-safe (tmp + fsync + rename + dir fsync,
        # pid-unique temporaries), and weights and metadata are one
        # file: sweep workers sharing cache_dir never observe a partial
        # artifact, and even two processes redundantly training the
        # same artifact cannot corrupt it.
        save_state(paths.state, model.state_dict(), meta=meta)
        try:
            os.remove(paths.ckpt)  # the cached artifact supersedes it
        except OSError:
            pass
        journal_event("bench.artifact", name=name, source="trained")
        return model, meta

    def _pretrain_config(self) -> TrainConfig:
        cfg = self.config
        return TrainConfig(
            epochs=cfg.pretrain_epochs,
            batch_size=cfg.batch_size,
            lr=cfg.lr,
            patience=cfg.patience,
            shuffle_seed=cfg.seed + 7,
        )

    def _retrain_config(self) -> TrainConfig:
        cfg = self.config
        return TrainConfig(
            epochs=cfg.retrain_epochs,
            batch_size=cfg.batch_size,
            lr=cfg.retrain_lr,
            patience=cfg.patience,
            shuffle_seed=cfg.seed + 8,
        )

    # ------------------------------------------------------------------
    # the shared artifacts: train-or-load, keyed by ModelSpec
    # ------------------------------------------------------------------
    def _train_or_load(self, spec: ModelSpec) -> Tuple[ResNet, dict]:
        """Train-or-load the artifact named by ``spec``.

        The registry's cold-tier/miss backend (reach it through
        :meth:`registry`).  Cache file names are exactly those the
        pre-spec keyword API wrote, so older caches load without
        retraining.

        - ``fp32``: pretrained from scratch.
        - ``quant``: DoReFa-retrained from ``fp32`` with a doubled
          epoch budget (early stopping still applies) so the baseline
          is at convergence — otherwise AMS retraining at high ENOB
          would beat it merely by training longer, inverting the
          paper's Fig. 4 high-ENOB behaviour.
        - ``ams``: AMS-error-in-the-loop retraining from the matching
          ``quant`` baseline (optionally with frozen layers).
        - ``ams_eval``: the ``quant`` baseline's best weights with AMS
          error injected at evaluation time only; the returned
          metadata is the baseline's, marked ``eval_only``.
        """
        spec = spec.resolved(self.config)
        if spec.variant == "fp32":
            return self._train_cached(
                spec.cache_name(),
                lambda: self.build(spec),
                self._pretrain_config(),
            )
        if spec.variant == "quant":
            fp32, _ = self._train_or_load(spec.baseline())
            retrain = self._retrain_config()
            retrain = dc_replace(retrain, epochs=retrain.epochs * 2)
            return self._train_cached(
                spec.cache_name(),
                lambda: self.build(spec),
                retrain,
                init_state=fp32.state_dict(),
            )
        if spec.variant == "ams":
            quant, _ = self._train_or_load(spec.baseline())
            return self._train_cached(
                spec.cache_name(),
                lambda: self.build(spec),
                self._retrain_config(),
                init_state=quant.state_dict(),
                freeze=spec.freeze,
            )
        quant, quant_meta = self._train_or_load(spec.baseline())
        model = self.build(spec)
        model.load_state_dict(quant.state_dict())
        return model, dict(quant_meta, eval_only=True)

    # ------------------------------------------------------------------
    # probed rebuilds (Fig. 6): same weights, instrumented layers
    # ------------------------------------------------------------------
    def probed(self, spec: ModelSpec) -> ResNet:
        """The trained artifact for ``spec`` rebuilt with activation probes."""
        trained, _ = self.registry.get(spec, fresh=True)
        model = self.build(spec, with_probes=True)
        model.load_state_dict(trained.state_dict())
        return model

    def build_fp32_probed(self) -> ResNet:
        """The trained FP32 baseline rebuilt with activation probes."""
        return self.probed(ModelSpec("fp32"))

    def build_quantized_probed(self, bw: int, bx: int) -> ResNet:
        """A trained quantized baseline rebuilt with activation probes."""
        return self.probed(ModelSpec("quant", bw=bw, bx=bx))

    def ams_retrained_probed(
        self, enob: float, nmult: Optional[int] = None
    ) -> ResNet:
        """An AMS-retrained model rebuilt with activation probes."""
        return self.probed(ModelSpec("ams", enob=enob, nmult=nmult))

    # ------------------------------------------------------------------
    def stats(self, model: Module) -> EvalStats:
        """The paper's reporting protocol on the validation split."""
        return repeated_evaluate(
            model,
            self.data.val,
            passes=self.config.eval_passes,
            batch_size=self.config.batch_size,
        )
