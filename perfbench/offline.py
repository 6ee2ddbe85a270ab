"""The ``offline`` workload: the paper's reporting protocol.

``repeated_evaluate`` (3 seeded passes, batch 256, ``jobs=1``) over the
800-image validation split of the full profile's shape, for three
models: ``quant:8:8`` (no noise), ``ams:e5.5:n8`` (lumped Gaussian,
retrained) and ``ams_eval:e5.5:n8`` with the data-dependent
``state_dependent`` zoo model.  Compiled kernels and the noise draw do
all the work, at large batch and in one process: no admission, pipe or
process pool.  One round evaluates every model once; a run repeats
rounds for ``--seconds``.  Every round's ``EvalStats`` must equal the
values recorded in ``expected.json`` for the run's config seed.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Dict, List

from repro.compile import maybe_compiled
from repro.experiments.common import Workbench
from repro.serve import ModelSpec
from repro.train.evaluate import repeated_evaluate

from common import (
    config_seed,
    median,
    peak_rss_mb,
    percentile,
    reap_children,
    scratch_dir,
    serving_config,
)
from layers import compute_layers, setup_layers
from tracing import Tracer

#: (name, spec token) of the evaluated models, in evaluation order.
MODELS = (
    ("quant", "quant"),
    ("ams", "ams:e5.5:n8"),
    ("state_dependent", "ams_eval:e5.5:n8:mstate_dependent"),
)
PASSES = 3
BATCH = 256
SETUP_REPS = 3


def _setup(root: str, seed: int):
    """Workbench, data, train-or-load and compile of every model."""
    start = perf_counter()
    bench = Workbench(serving_config(root, seed))
    bench.data
    models = {}
    for name, token in MODELS:
        model, _ = bench.registry.get(ModelSpec.parse(token), fresh=True)
        maybe_compiled(model)
        models[name] = model
    return bench, models, perf_counter() - start


def _round(bench, models, seed: int) -> Dict[str, object]:
    """One ``repeated_evaluate`` per model; returns the EvalStats."""
    return {
        name: repeated_evaluate(
            model,
            bench.data.val,
            passes=PASSES,
            batch_size=BATCH,
            jobs=1,
            seed=seed,
        )
        for name, model in models.items()
    }


def stats_record(stats) -> dict:
    """The JSON form of an EvalStats, as ``expected.json`` stores it."""
    return {
        "mean": stats.mean,
        "std": stats.std,
        "values": [float(v) for v in stats.values],
    }


def _check(results: Dict[str, object], expected: dict) -> List[str]:
    return [
        f"{name}: EvalStats {stats_record(stats)} != recorded "
        f"{expected.get(name)}"
        for name, stats in results.items()
        if stats_record(stats) != expected.get(name)
    ]


def record(seed: int) -> dict:
    """The outputs ``expected.json`` records for config seed ``seed``."""
    with scratch_dir() as root:
        bench, models, _ = _setup(root, seed)
        results = _round(bench, models, seed)
    return {name: stats_record(stats) for name, stats in results.items()}


def _pass_times(results) -> Dict[str, List[float]]:
    """Wall time of every validation pass, per model."""
    return {
        name: [v.wall_time_s for v in stats.values]
        for name, stats in results.items()
    }


def run(seed: int, seconds: float, expected: dict) -> dict:
    cseed = config_seed(seed)
    expected = expected[str(cseed)]
    setups = []
    rounds = []
    passes: Dict[str, List[float]] = {name: [] for name, _ in MODELS}
    problems: List[str] = []
    with contextlib.ExitStack() as stack:
        for _ in range(SETUP_REPS):
            root = stack.enter_context(scratch_dir())
            bench, models, setup_s = _setup(root, cseed)
            setups.append(setup_s)
        deadline = perf_counter() + seconds
        while not rounds or perf_counter() + median(rounds) <= deadline:
            start = perf_counter()
            results = _round(bench, models, cseed)
            rounds.append(perf_counter() - start)
            for name, walls in _pass_times(results).items():
                passes[name].extend(walls)
            problems.extend(_check(results, expected))
    reap_children()
    attempted = len(rounds) * len(models)
    failed = len(problems)
    # Noise on the recording host only ever slows a pass down, so each
    # model's figure is its fastest pass of the run.
    fastest = sorted(min(walls) for walls in passes.values())
    details = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": failed / attempted,
        "images_per_s": len(models) * len(bench.data.val) / sum(fastest),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "config_seed": cseed,
        "invalid": [],
        "details": details,
        "samples": {
            "setups": len(setups),
            "rounds": len(rounds),
            "passes": sum(len(walls) for walls in passes.values()),
            "images per round": PASSES * len(models) * len(bench.data.val),
        },
        "metrics": {
            "setup_s": details["setup_s"],
            "peak_rss_mb": details["peak_rss_mb"],
            "latency_p50_ms": 1e3 * median(fastest),
            "latency_p95_ms": 1e3 * percentile(fastest, 95),
            "throughput_per_s": details["images_per_s"],
        },
    }


def trace(seed: int, seconds: float, expected: dict) -> dict:
    """Setup traced, one round untraced, one round traced."""
    cseed = config_seed(seed)
    expected = expected[str(cseed)]
    with scratch_dir() as root:
        with Tracer() as setup_tracer:
            with setup_tracer.section("setup"):
                bench, models, _ = _setup(root, cseed)
        start = perf_counter()
        untraced = _round(bench, models, cseed)
        untraced_wall = perf_counter() - start
        with Tracer() as tracer:
            with tracer.section("round"):
                start = perf_counter()
                traced = _round(bench, models, cseed)
                traced_wall = perf_counter() - start
    reap_children()
    problems = _check(untraced, expected) + _check(traced, expected)
    layers = setup_layers(setup_tracer)
    layers.update(compute_layers(tracer))
    for name, walls in _pass_times(traced).items():
        layers[f"evaluate.pass_ms.{name}"] = 1e3 * sum(walls) / len(walls)
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {
        "attempted": 2 * len(models),
        "failed": len(problems),
        "problems": problems,
        "config_seed": cseed,
        "invalid": [],
        "layers": layers,
        "tables": setup_tracer.layer_tables() + tracer.layer_tables(),
        "breakdown": [],
    }
