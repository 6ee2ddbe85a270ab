"""The error-model determinism grid: every registered model, every path.

For each model in the registry: interpreter vs compiled-reference
bit-identity, per-request serving determinism in process and over two
replica processes, checkpoint capture/restore of every declared RNG
stream, and trainer kill/resume bit-identity for the model with extra
streams.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.ams.models import list_models
from repro.ckpt import capture_rng_states, restore_rng_states
from repro.compile import compile_model, maybe_compiled
from repro.experiments.common import Workbench
from repro.experiments.config import make_config
from repro.models import AMSFactory
from repro.models.simple import SimpleCNN
from repro.obs import deprecation
from repro.obs.metrics import default_registry
from repro.serve import InProcessExecutor, ModelSpec, ServeCluster
from repro.tensor.tensor import Tensor, no_grad
from repro.train import TrainConfig, Trainer
from repro.train.evaluate import ams_injectors, reseed_noise

#: (model name, params) — every registered model with micro-scale
#: parameters where the defaults would degenerate (tile_size=2 so the
#: 4-channel test model spans multiple tiles).
GRID = [
    ("lumped_gaussian", {}),
    ("per_vmac", {}),
    ("partitioned", {"nw": 2, "nx": 2}),
    ("reference_scaled", {"alpha": 0.5}),
    ("state_dependent", {"floor": 0.5, "slope": 1.0}),
    ("tile_correlated", {"tile_size": 2, "rho": 0.5}),
]

GRID_IDS = [name for name, _ in GRID]


def test_grid_covers_the_whole_registry():
    assert sorted(dict(GRID)) == list_models()


@pytest.fixture(scope="module")
def grid_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("errgrid")
    config = make_config(profile="quick", seed=77)
    return replace(
        config,
        num_classes=4,
        image_size=8,
        train_per_class=24,
        val_per_class=10,
        pretrain_epochs=3,
        retrain_epochs=2,
        batch_size=32,
        patience=2,
        eval_passes=2,
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
    )


@pytest.fixture(scope="module")
def grid_bench(grid_config):
    return Workbench(grid_config)


@pytest.fixture(scope="module")
def batch(grid_bench):
    return grid_bench.data.val.images[:8]


def _spec(name, params):
    return ModelSpec(
        "ams_eval",
        enob=4.0,
        error_model=name,
        error_model_params=params,
    )


def _build(bench, name, params):
    spec = _spec(name, params).resolved(bench.config)
    model = bench.build(spec)
    model.eval()
    return model


def _interpreted(model, images):
    model.eval()
    with no_grad():
        return np.array(model(Tensor(images)).data, copy=True)


class TestCompiledPaths:
    @pytest.mark.parametrize("name,params", GRID, ids=GRID_IDS)
    def test_reference_backend_is_bit_identical(
        self, grid_bench, batch, name, params
    ):
        model = _build(grid_bench, name, params)
        reseed_noise(model, 7, 0)
        expected = _interpreted(model, batch)
        compiled = compile_model(model)
        reseed_noise(model, 7, 0)
        actual = compiled.predict(batch)
        assert actual.dtype == expected.dtype
        assert np.array_equal(expected, actual)


@pytest.fixture(scope="module")
def grid_cluster(grid_bench):
    with ServeCluster(grid_bench, workers=2) as cluster:
        yield cluster


def _served(executor, spec, images, size=4):
    """Fixed batches of ``size`` on any executor; rows back in order."""
    futures = [
        executor.submit_batch(
            spec, images[start : start + size], range(start, start + size)
        )
        for start in range(0, len(images), size)
    ]
    return np.concatenate([f.result(timeout=120) for f in futures])


class TestServeDeterminism:
    @pytest.mark.parametrize("name,params", GRID, ids=GRID_IDS)
    def test_worker_count_invariance_and_replay(
        self, grid_bench, grid_cluster, name, params
    ):
        """In-process, replayed, and spread over two replica processes:
        the same batches give the same logits."""
        spec = _spec(name, params)
        images = grid_bench.data.val.images[:12]
        with InProcessExecutor(grid_bench) as local:
            local.warm(spec)
            reference = _served(local, spec, images)
            replay = _served(local, spec, images)
        grid_cluster.warm(spec)
        spread = _served(grid_cluster, spec, images)
        np.testing.assert_array_equal(reference, replay)
        np.testing.assert_array_equal(reference, spread)

    def test_request_id_keys_the_noise(self, grid_bench):
        spec = _spec("tile_correlated", {"tile_size": 2, "rho": 0.5})
        image = grid_bench.data.val.images[:1]
        with InProcessExecutor(grid_bench) as local:
            local.warm(spec)
            a, b, again = (
                local.submit_batch(spec, image, [rid]).result(60.0)
                for rid in (0, 1, 0)
            )
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, again)


class TestCheckpointStreams:
    @pytest.mark.parametrize("name,params", GRID, ids=GRID_IDS)
    def test_capture_restore_round_trips_noise(
        self, grid_bench, batch, name, params
    ):
        model = _build(grid_bench, name, params)
        reseed_noise(model, 21, 0)
        states = capture_rng_states(model)
        first = _interpreted(model, batch)
        # The draw advanced the streams: a second pass differs ...
        assert not np.array_equal(first, _interpreted(model, batch))
        # ... until the captured states are restored.
        restore_rng_states(states, model)
        np.testing.assert_array_equal(first, _interpreted(model, batch))

    def test_extra_streams_get_their_own_keys(self, grid_bench):
        model = _build(
            grid_bench, "tile_correlated", {"tile_size": 2, "rho": 0.5}
        )
        states = capture_rng_states(model)
        tile_keys = [key for key in states if key.endswith(":tile")]
        assert len(tile_keys) == len(ams_injectors(model))
        for key in tile_keys:
            # The main stream keeps the legacy module:<name> key.
            assert key[: -len(":tile")] in states


class TestTrainerResume:
    """Kill/resume stays bit-identical with extra per-model streams."""

    class _Kill(Exception):
        pass

    def _factory(self):
        return AMSFactory(
            seed=1,
            noise_seed=7,
            error_model="tile_correlated",
            error_model_params={"tile_size": 2, "rho": 0.5},
        )

    def _config(self, **overrides):
        defaults = dict(
            epochs=3, batch_size=16, lr=0.05, patience=4, shuffle_seed=3
        )
        defaults.update(overrides)
        return TrainConfig(**defaults)

    def test_kill_then_resume_bit_identical(self, tiny_data, tmp_path):
        baseline = SimpleCNN(self._factory(), num_classes=4, widths=(4,))
        expected = Trainer(self._config()).fit(
            baseline, tiny_data.train, tiny_data.val
        )

        ckpt = str(tmp_path / "train.ckpt")

        def _crash(epoch):
            if epoch == 1:
                raise self._Kill

        killed = SimpleCNN(self._factory(), num_classes=4, widths=(4,))
        with pytest.raises(self._Kill):
            Trainer(self._config(on_epoch_end=_crash)).fit(
                killed, tiny_data.train, tiny_data.val, checkpoint_path=ckpt
            )

        resumed = SimpleCNN(self._factory(), num_classes=4, widths=(4,))
        result = Trainer(self._config()).fit(
            resumed,
            tiny_data.train,
            tiny_data.val,
            checkpoint_path=ckpt,
            resume=True,
        )
        assert result.history == expected.history
        final = resumed.state_dict()
        for key, value in baseline.state_dict().items():
            np.testing.assert_array_equal(value, final[key])


class TestUnfusableFallback:
    """compiled_safe=False falls back loudly: metric + one warning."""

    class Unfusable:
        name = "unfusable_test_model"
        data_dependent = False
        compiled_safe = False
        extra_streams = ()

    def test_fallback_reason_and_warn_once(self, grid_bench, batch):
        model = _build(grid_bench, "lumped_gaussian", {})
        for injector in ams_injectors(model):
            injector.model = self.Unfusable()
        deprecation.reset("compile.interpreter_fallback.error_model")
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="error_model"
        )
        before = counter.value
        with pytest.warns(RuntimeWarning, match="compiled inference"):
            assert maybe_compiled(model) is None
        assert counter.value == before + 1
        # The cached failure replays the reason without re-warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert maybe_compiled(model) is None
        assert counter.value == before + 2
