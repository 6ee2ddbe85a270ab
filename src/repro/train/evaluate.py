"""Evaluation: top-1 accuracy and the paper's repeated-pass statistics.

"Each reported accuracy is the sample mean of five passes of the
validation dataset through the network, with error bars showing the
sample standard deviation."  With AMS error injection active, each pass
draws fresh noise, so the spread measures the run-to-run variability of
the modeled hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.errors import ConfigError
from repro.nn.module import Module
from repro.obs.result import EvalResult, hash_logits
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import profiler as _profiler
from repro.utils.rng import point_seed_sequence


def evaluate_accuracy(
    model: Module,
    data: Union[ArrayDataset, DataLoader],
    batch_size: int = 256,
    k: int = 1,
    noise_seed: Optional[int] = None,
) -> EvalResult:
    """Top-k accuracy of ``model`` on ``data`` (model left in eval mode).

    The paper reports top-1 throughout and notes "top-5 accuracies
    generally tracked top-1 accuracies"; pass ``k=5`` to check the same
    property here.

    Returns an :class:`~repro.obs.EvalResult` — a float (the accuracy,
    so every existing call site is unchanged) that also carries the
    chained logits hash, the pass wall time, and ``noise_seed`` (pure
    provenance: pass the seed the caller reseeded the injectors with;
    this function never reseeds).
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    loader = (
        data
        if isinstance(data, DataLoader)
        else DataLoader(data, batch_size=batch_size)
    )
    model.eval()
    from repro.compile import maybe_compiled
    from repro.tensor.pool import default_pool
    from time import perf_counter

    compiled = maybe_compiled(model)
    correct = 0
    total = 0
    logits_hash = 0
    started = perf_counter()
    with no_grad():
        for images, labels in loader:
            if compiled is not None:
                logits = compiled.run(images)
            else:
                logits = model(Tensor(images)).data
            # Hash before any buffer release: the compiled path's
            # logits live in a pooled buffer reused by the next batch.
            logits_hash = hash_logits(logits, logits_hash)
            if k == 1:
                hits = logits.argmax(axis=1) == labels
            else:
                top = np.argpartition(-logits, kth=min(k, logits.shape[1]) - 1,
                                      axis=1)[:, :k]
                hits = (top == labels[:, None]).any(axis=1)
            correct += int(hits.sum())
            total += len(labels)
            if compiled is not None:
                # compiled.run hands out a pooled buffer; we are done
                # with it once the hits are counted.
                default_pool().release(logits)
    return EvalResult(
        correct / total,
        logits_hash=f"{logits_hash:08x}",
        wall_time_s=perf_counter() - started,
        noise_seed=noise_seed,
    )


@dataclass(frozen=True)
class EvalStats:
    """Mean +/- sample std over repeated validation passes."""

    mean: float
    std: float
    values: tuple

    def __str__(self) -> str:
        return f"{self.mean:.4f} +/- {self.std:.2e}"


def ams_injectors(model: Module) -> List:
    """Every :class:`~repro.ams.models.AMSErrorInjector` in ``model``.

    Returned in module order, which is the order all reseeding helpers
    (and the serving executor's per-request noise streams) key their
    spawned child generators by.
    """
    from repro.ams.models import AMSErrorInjector

    return [m for m in model.modules() if isinstance(m, AMSErrorInjector)]


def predict_logits(model: Module, images: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass returning the raw logits array.

    The shared inference primitive: one gradient-free forward over a
    stacked NCHW batch.  The caller owns reseeding (per-pass via
    :func:`reseed_noise`, or per-row via ``AMSErrorInjector.set_row_rngs``
    as the serving executor does).
    """
    model.eval()
    from repro.compile import maybe_compiled

    compiled = maybe_compiled(model)
    if compiled is not None:
        return compiled.predict(images)
    with no_grad():
        return model(Tensor(images)).data


def reseed_noise(model: Module, seed: int, index: int) -> int:
    """Reseed every AMS injector in ``model`` from ``(seed, index)``.

    Each injector gets an independent child stream of the point's seed
    sequence, keyed only by its position in module order — so the noise
    drawn afterwards depends on ``(seed, index)`` alone, never on which
    process or in what order the pass runs.  Injectors hosting error
    models with extra declared streams reseed those too (spawned from
    the same child, so models without extras reproduce the historical
    streams bit for bit).  Returns the injector count.
    """
    injectors = ams_injectors(model)
    if injectors:
        children = point_seed_sequence(seed, index).spawn(len(injectors))
        for injector, child in zip(injectors, children):
            injector.reseed(child)
    return len(injectors)


#: Worker-process state for parallel evaluation passes, set once per
#: worker by :func:`_init_eval_worker`.
_EVAL_STATE = None


def _init_eval_worker(model, dataset, batch_size, seed) -> None:
    global _EVAL_STATE
    _EVAL_STATE = (model, dataset, batch_size, seed)


def _eval_pass(pass_index: int) -> float:
    model, dataset, batch_size, seed = _EVAL_STATE
    reseed_noise(model, seed, pass_index)
    return evaluate_accuracy(model, dataset, batch_size, noise_seed=seed)


def repeated_evaluate(
    model: Module,
    dataset: ArrayDataset,
    passes: int = 5,
    batch_size: int = 256,
    jobs: int = 1,
    seed: Optional[int] = None,
) -> EvalStats:
    """The paper's reporting protocol: ``passes`` full validation passes.

    Each pass re-samples every stochastic element (AMS noise); the
    sample standard deviation is computed with ddof=1 as usual for a
    sample statistic.

    With the defaults the passes run sequentially, drawing noise from
    whatever generator state each injector currently holds — exactly the
    historical behaviour.  Passing ``seed`` switches to *per-pass*
    noise streams derived from ``(seed, pass_index)``, which makes the
    result independent of execution order and therefore safe to fan out
    with ``jobs > 1`` (bit-identical for any worker count).  ``jobs > 1``
    without a ``seed`` is a :class:`~repro.errors.ConfigError`: the
    sequential generator state cannot be shared across processes.
    """
    if jobs > 1 and seed is None:
        raise ConfigError(
            "repeated_evaluate(jobs>1) requires an explicit seed; "
            "sequential injector streams cannot span processes"
        )
    token = _profiler.op_start()
    if seed is None:
        values: List[float] = [
            evaluate_accuracy(model, dataset, batch_size)
            for _ in range(passes)
        ]
    else:
        from repro.parallel.runner import SweepRunner

        runner = SweepRunner(
            jobs=jobs,
            initializer=_init_eval_worker,
            initargs=(model, dataset, batch_size, seed),
        )
        values = runner.map(_eval_pass, list(range(passes)))
    _profiler.op_end(token, "eval.pass")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return EvalStats(mean=mean, std=std, values=tuple(values))
