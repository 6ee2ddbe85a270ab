"""Benchmark: serving — direct forward vs the process cluster.

Times 64 requests against the noisy eval-only AMS model three ways: one
synchronous whole-set forward through
:func:`~repro.serve.executor.forward_with_request_noise` (the floor),
and through the multi-process :class:`~repro.serve.ServeCluster` at 1
and 4 replica processes.  The checked-in ``BENCH_serve.json`` medians
carry the ``host`` block they were measured on;
``tools/bench_compare.py`` downgrades regressions to warnings when the
current machine's CPU count differs, so the numbers stay meaningful
without hand-edited caveats.

``test_cluster_scaling_multicore`` asserts the headline perf claim —
>= 1.5x throughput at 4 replica processes vs 1 — and is skipped below
4 CPUs, where separate processes cannot overlap compute.  The memory
claim (every replica binds the published mmap) is a tier-1 test:
``tests/serve/test_shared.py::test_cluster_weights_are_shared``.
"""

import os
from time import perf_counter

import numpy as np
import pytest

from benchmarks.conftest import bench_config, run_rounds
from repro.experiments.common import Workbench
from repro.serve import ModelSpec, ServeCluster
from repro.serve.executor import forward_with_request_noise

SPEC = ModelSpec("ams_eval", enob=4.0)
REQUESTS = 64
#: Cluster dispatch granularity: 8 batches of 8 keeps all replicas busy.
CLUSTER_BATCH = 8


def _requests(bench):
    images = bench.data.val.images
    reps = -(-REQUESTS // len(images))
    return np.concatenate([images] * reps)[:REQUESTS]


def _warm_cluster(tmp_path, workers):
    """A started, warmed replica cluster (model trained beforehand)."""
    bench = Workbench(bench_config(tmp_path))
    cluster = ServeCluster(bench, workers=workers).start()
    cluster.warm(SPEC)
    return cluster, _requests(bench)


def _serve_all(cluster, images):
    """Push REQUESTS through the cluster as concurrent batches."""
    futures = []
    for start in range(0, len(images), CLUSTER_BATCH):
        chunk = images[start : start + CLUSTER_BATCH]
        futures.append(
            cluster.submit_batch(
                SPEC, chunk, range(start, start + len(chunk))
            )
        )
    return [future.result(timeout=120) for future in futures]


@pytest.mark.benchmark(group="serve")
def test_serve_direct(benchmark, tmp_path):
    bench = Workbench(bench_config(tmp_path))
    model, _meta = bench.registry.get(SPEC)
    images = _requests(bench)
    ids = list(range(REQUESTS))
    seed = bench.config.seed
    run_rounds(
        benchmark,
        lambda: forward_with_request_noise(model, images, ids, seed),
    )


@pytest.mark.benchmark(group="serve-cluster")
def test_serve_cluster_w1(benchmark, tmp_path):
    cluster, images = _warm_cluster(tmp_path, workers=1)
    try:
        run_rounds(benchmark, lambda: _serve_all(cluster, images))
    finally:
        cluster.stop()


@pytest.mark.benchmark(group="serve-cluster")
def test_serve_cluster_w4(benchmark, tmp_path):
    cluster, images = _warm_cluster(tmp_path, workers=4)
    try:
        run_rounds(benchmark, lambda: _serve_all(cluster, images))
    finally:
        cluster.stop()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="process scaling needs >= 4 CPUs to overlap replica compute",
)
def test_cluster_scaling_multicore(tmp_path):
    """The perf claim: >= 1.5x throughput at 4 replicas vs 1.

    One workbench (one training) serves both configurations; each gets
    a warm-up pass so process spawn and compile cost stay out of the
    timed region.
    """
    bench = Workbench(bench_config(tmp_path))
    images = _requests(bench)
    elapsed = {}
    for workers in (1, 4):
        cluster = ServeCluster(bench, workers=workers).start()
        try:
            cluster.warm(SPEC)
            _serve_all(cluster, images)  # warm-up: JIT-ish caches, pipes
            start = perf_counter()
            _serve_all(cluster, images)
            elapsed[workers] = perf_counter() - start
        finally:
            cluster.stop()
    speedup = elapsed[1] / elapsed[4]
    assert speedup >= 1.5, (
        f"4 replica processes gave only {speedup:.2f}x over 1 "
        f"(w1={elapsed[1]:.3f}s, w4={elapsed[4]:.3f}s)"
    )
