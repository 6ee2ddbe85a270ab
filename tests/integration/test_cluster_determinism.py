"""Cluster determinism: 1 process, 4 processes, in-process — identical.

The serving contract (the same one the in-process executor holds, see
``tests/serve/test_engine.py::TestDeterminism``): logits are a pure
function of ``(spec, seed, request_id, image)`` **and the batch they
execute in** — for a fixed batch composition they are bit-identical no
matter where the batch runs, and across batch compositions the labels
are invariant (BLAS picks different kernels for different matrix
shapes, so float sums may differ in the last ulp).

These tests hold both halves across process boundaries: the same
batches produce bit-identical logits from the in-process executor, a
1-replica cluster, and a 4-replica cluster that spreads them over four
processes — for every model variant and a spread of zoo error models,
including a data-dependent one that reads the pre-activations.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import Workbench
from repro.experiments.config import make_config
from repro.serve import InProcessExecutor, ModelSpec, ServeCluster

#: Request ids deliberately non-contiguous: determinism must key on the
#: id itself, not on batch position.
REQUEST_IDS = [3, 11, 4, 17, 5, 28, 6, 40]

#: Batch shape used everywhere bit-identity is asserted.
CHUNK = 2

SPEC_TOKENS = [
    "fp32",
    "quant:bw8:bx8",
    "ams:e4.0",
    "ams_eval:e4.0",
    # Zoo coverage: a correlated generator with its own stream shape,
    # and a data-dependent model (reads pre-activations).
    "ams_eval:e4.0:mtile_correlated",
    "ams_eval:e4.0:mstate_dependent",
]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster-determinism")
    config = replace(
        make_config(profile="quick", seed=77),
        num_classes=4,
        image_size=8,
        train_per_class=24,
        val_per_class=10,
        pretrain_epochs=3,
        retrain_epochs=2,
        batch_size=32,
        patience=2,
        eval_passes=2,
        enob_sweep=(4.0,),
        table2_enob=4.0,
        fig6_enobs=(4.0,),
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
    )
    return Workbench(config)


@pytest.fixture(scope="module")
def images(bench):
    return bench.data.val.images[: len(REQUEST_IDS)]


def _chunked(cluster, spec, images, request_ids, size):
    """Execute as separate concurrent batches on any executor;
    reassemble by position."""
    futures = []
    for start in range(0, len(images), size):
        futures.append(
            cluster.submit_batch(
                spec,
                images[start : start + size],
                request_ids[start : start + size],
            )
        )
    return np.concatenate([f.result(timeout=120) for f in futures])


@pytest.mark.parametrize("token", SPEC_TOKENS)
def test_logits_bit_identical_at_any_worker_count(token, bench, images):
    """Same batches, 1 vs 4 replica processes vs in-process: bit-equal."""
    spec = ModelSpec.parse(token)
    # The in-process executor run over the identical batch shapes.
    with InProcessExecutor(bench) as local:
        local.warm(spec)
        reference = _chunked(local, spec, images, REQUEST_IDS, CHUNK)

    with ServeCluster(bench, workers=1) as single:
        single.warm(spec)
        one = _chunked(single, spec, images, REQUEST_IDS, CHUNK)
    np.testing.assert_array_equal(
        one, reference, err_msg=f"{token}: 1-replica cluster diverged"
    )

    with ServeCluster(bench, workers=4) as quad:
        quad.warm(spec)
        # The same four batches, landing on four different processes.
        four = _chunked(quad, spec, images, REQUEST_IDS, CHUNK)
    np.testing.assert_array_equal(
        four, reference, err_msg=f"{token}: 4-replica cluster diverged"
    )


def test_labels_invariant_across_batch_compositions(bench, images):
    """8-row, 2-row and 1-row batches agree on every label."""
    spec = ModelSpec.parse("ams_eval:e4.0")
    with ServeCluster(bench, workers=2) as cluster:
        cluster.warm(spec)
        whole = cluster.execute(spec, images, REQUEST_IDS)
        pairs = _chunked(cluster, spec, images, REQUEST_IDS, size=2)
        singles = _chunked(cluster, spec, images, REQUEST_IDS, size=1)
    np.testing.assert_array_equal(
        np.argmax(whole, axis=1), np.argmax(pairs, axis=1)
    )
    np.testing.assert_array_equal(
        np.argmax(whole, axis=1), np.argmax(singles, axis=1)
    )


def test_noiseless_spec_identical_across_replicas(bench, images):
    """A noise-free spec gives one replica's answer from every replica."""
    spec = ModelSpec.parse("quant:bw8:bx8")
    with ServeCluster(bench, workers=4) as cluster:
        cluster.warm(spec)
        first = _chunked(cluster, spec, images, REQUEST_IDS, CHUNK)
        second = _chunked(cluster, spec, images, REQUEST_IDS, CHUNK)
    np.testing.assert_array_equal(first, second)
