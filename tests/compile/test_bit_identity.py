"""Compiled executor vs interpreted forward: bitwise-identical logits.

The compiler's whole contract is that fusing conv+BN+activation, baking
quantized weights and precomputing im2col indices changes *nothing*
numerically — every test here compares full logit arrays with
``np.array_equal`` (exact equality), never argmax or allclose.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ams import VMACConfig
from repro.ams.models import AMSErrorInjector, InjectionPolicy
from repro.compile import compile_model, disabled, maybe_compiled
from repro.models import AMSFactory, resnet_small
from repro.quant import QuantConfig
from repro.serve import InProcessExecutor, ModelSpec, ServeCluster
from repro.tensor.tensor import Tensor, no_grad
from repro.train.evaluate import predict_logits, reseed_noise
from repro.train.hooks import collect_probes, set_probes_enabled

SPECS = [
    ModelSpec("fp32"),
    ModelSpec("quant", bw=8, bx=8),
    ModelSpec("ams", enob=4.0),
    ModelSpec("ams_eval", enob=4.0),
]


def _interpreted(model, images):
    model.eval()
    with no_grad():
        return np.array(model(Tensor(images)).data, copy=True)


class TestBitIdentity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
    def test_logits_identical_all_variants(self, compile_bench, batch, spec):
        model = compile_bench.build(spec.resolved(compile_bench.config))
        model.eval()
        reseed_noise(model, 7, 0)
        expected = _interpreted(model, batch)
        compiled = compile_model(model)
        reseed_noise(model, 7, 0)
        actual = compiled.predict(batch)
        assert actual.dtype == expected.dtype
        assert np.array_equal(expected, actual)

    def test_identical_across_batch_sizes(self, compile_bench, batch):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        compiled = compile_model(model)
        for size in (1, 3, len(batch)):
            expected = _interpreted(model, batch[:size])
            assert np.array_equal(expected, compiled.predict(batch[:size]))

    def test_probe_statistics_match(self, compile_bench, batch):
        spec = ModelSpec("ams_eval", enob=4.0).resolved(compile_bench.config)
        model = compile_bench.build(spec, with_probes=True)
        model.eval()
        compiled = compile_model(model)
        set_probes_enabled(model, True)
        reseed_noise(model, 11, 0)
        _interpreted(model, batch)
        expected = [
            (p.count, p.mean, p.std) for p in collect_probes(model)
        ]
        assert any(count for count, _, _ in expected)
        set_probes_enabled(model, True)  # reset
        reseed_noise(model, 11, 0)
        compiled.predict(batch)
        actual = [(p.count, p.mean, p.std) for p in collect_probes(model)]
        assert expected == actual

    def test_predict_logits_routes_through_compiler(
        self, compile_bench, batch
    ):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        expected = _interpreted(model, batch)
        assert maybe_compiled(model) is not None
        assert np.array_equal(expected, predict_logits(model, batch))


class TestPoolingLayout:
    """Global average pooling sums the interpreter's memory layout.

    The interpreter's conv output is an NHWC-strided view, BN and the
    activation keep that layout, and adding noise (C-ordered) or adding
    two differently laid-out branches gives a C-ordered array.  numpy
    sums a 4x4 map in a different order for each layout, so at 16x16
    inputs the compiled pooling must follow the layout through the
    last block, whichever of its injectors are quiet.
    """

    @pytest.mark.parametrize(
        "quiet",
        [(), ("conv2",), ("downsample",), ("conv2", "downsample")],
        ids=lambda q: "+".join(q) or "none",
    )
    def test_last_block_layouts_match(self, quiet):
        model = resnet_small(
            AMSFactory(QuantConfig(8, 8), VMACConfig(enob=5.5, nmult=8), seed=0),
            num_classes=20,
        )
        model.eval()
        for name, module in model.named_modules():
            if isinstance(module, AMSErrorInjector) and name.startswith(
                tuple(f"blocks.2.{q}" for q in quiet)
            ):
                module.policy = InjectionPolicy(in_eval=False)
        images = (
            np.random.default_rng(0)
            .standard_normal((8, 3, 16, 16))
            .astype(np.float32)
        )
        reseed_noise(model, 5, 0)
        expected = _interpreted(model, images)
        compiled = compile_model(model)
        reseed_noise(model, 5, 0)
        assert np.array_equal(expected, compiled.predict(images))


class TestServeDeterminism:
    """Per-request AMS noise is reproducible in process and over replica
    processes, compiled or not."""

    SPEC = ModelSpec("ams_eval", enob=4.0)

    def _logits(self, executor, images):
        executor.warm(self.SPEC)
        futures = [
            executor.submit_batch(
                self.SPEC, images[start : start + 4], range(start, start + 4)
            )
            for start in range(0, len(images), 4)
        ]
        return np.concatenate([f.result(timeout=120) for f in futures])

    def test_workers_and_compilation_invariant(self, compile_bench):
        images = compile_bench.data.val.images[:12]
        with InProcessExecutor(compile_bench) as local:
            reference = self._logits(local, images)
        counted = local.stats().registry.counter("serve.batches_compiled")
        assert counted.value == 3
        with ServeCluster(compile_bench, workers=2) as cluster:
            two = self._logits(cluster, images)
        with disabled(), InProcessExecutor(compile_bench) as local:
            interpreted = self._logits(local, images)
        counted = local.stats().registry.counter("serve.batches_interpreted")
        assert counted.value == 3
        assert np.array_equal(reference, two)
        assert np.array_equal(reference, interpreted)
