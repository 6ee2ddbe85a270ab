"""Zero-copy weight publication: publish / map / bind round trips."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import Linear
from repro.serve.shared import (
    ALIGN,
    SharedWeights,
    bind_shared,
    bound_fraction,
    open_shared,
    process_rss_kb,
    publish_weights,
)
from tests.serve.conftest import AMS_SPEC


class TestPublishAndOpen:
    def test_round_trip_bit_exact(self, tmp_path):
        state = {
            "a.weight": np.arange(12, dtype=np.float32).reshape(3, 4),
            "a.bias": np.arange(3, dtype=np.float32),
            "stat": np.array(2.5, dtype=np.float64),
        }
        shared = publish_weights(state, str(tmp_path / "w.bin"))
        views = open_shared(shared)
        assert set(views) == set(state)
        for name, arr in state.items():
            assert views[name].dtype == arr.dtype
            assert views[name].shape == arr.shape
            np.testing.assert_array_equal(views[name], arr)

    def test_views_are_memmap_backed_and_aligned(self, tmp_path):
        state = {
            "w": np.ones((5, 5), dtype=np.float32),
            "v": np.ones(7, dtype=np.float32),
        }
        shared = publish_weights(state, str(tmp_path / "w.bin"))
        for _name, (offset, _shape, _dtype) in shared.entries:
            assert offset % ALIGN == 0
        for view in open_shared(shared).values():
            base = view
            while base is not None and not isinstance(base, np.memmap):
                base = base.base
            assert isinstance(base, np.memmap)

    def test_empty_state_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty state dict"):
            publish_weights({}, str(tmp_path / "w.bin"))

    def test_missing_blob_rejected(self, tmp_path):
        shared = SharedWeights(
            path=str(tmp_path / "gone.bin"),
            entries=(("w", (0, (2,), "<f4")),),
        )
        with pytest.raises(ConfigError, match="no published weight blob"):
            open_shared(shared)

    def test_truncated_blob_rejected(self, tmp_path):
        state = {"w": np.ones(64, dtype=np.float32)}
        shared = publish_weights(state, str(tmp_path / "w.bin"))
        with open(shared.path, "r+b") as fh:
            fh.truncate(32)
        with pytest.raises(ConfigError, match="truncated"):
            open_shared(shared)


class TestBindShared:
    def _layer(self, seed=0):
        return Linear(4, 3, rng=np.random.default_rng(seed))

    def test_bind_replaces_params_with_readonly_views(self, tmp_path):
        source = self._layer(seed=1)
        target = self._layer(seed=2)
        shared = publish_weights(
            source.state_dict(), str(tmp_path / "w.bin")
        )
        bound = bind_shared(target, shared)
        assert bound == sum(
            p.data.nbytes for _, p in target.named_parameters()
        )
        np.testing.assert_array_equal(
            target.weight.data, source.weight.data
        )
        assert not target.weight.data.flags.writeable
        assert bound_fraction(target) == 1.0
        assert bound_fraction(source) == 0.0

    def test_bind_bumps_parameter_versions(self, tmp_path):
        source, target = self._layer(1), self._layer(2)
        shared = publish_weights(
            source.state_dict(), str(tmp_path / "w.bin")
        )
        before = target.weight.version
        bind_shared(target, shared)
        assert target.weight.version == before + 1

    def test_strict_mismatch_rejected(self, tmp_path):
        shared = publish_weights(
            {"stranger": np.ones(3, dtype=np.float32)},
            str(tmp_path / "w.bin"),
        )
        with pytest.raises(ConfigError, match="do not match the model"):
            bind_shared(self._layer(), shared)

    def test_shape_mismatch_rejected(self, tmp_path):
        state = self._layer().state_dict()
        state["weight"] = np.ones((2, 2), dtype=np.float32)
        shared = publish_weights(state, str(tmp_path / "w.bin"))
        with pytest.raises(ConfigError, match="shape mismatch"):
            bind_shared(self._layer(), shared)


class TestModelLevelBinding:
    def test_bound_model_forward_matches_source(self, serve_bench, tmp_path):
        """A calibration-skipping rebuild bound to the published blob
        produces the same logits as the trained source model."""
        spec = AMS_SPEC.resolved(serve_bench.config)
        model, _ = serve_bench.registry.get(spec, fresh=True)
        model.eval()
        shared = publish_weights(
            model.state_dict(), str(tmp_path / "m.bin")
        )
        rebuilt = serve_bench.build(spec, calibrate=False)
        bind_shared(rebuilt, shared)
        rebuilt.input_adapter.max_abs = model.input_adapter.max_abs
        rebuilt.eval()
        assert bound_fraction(rebuilt) == 1.0

        from repro.compile import disabled
        from repro.serve.executor import forward_with_request_noise

        images = serve_bench.data.val.images[:4]
        ids = [0, 1, 2, 3]
        seed = serve_bench.config.seed
        with disabled():
            ref = forward_with_request_noise(model, images, ids, seed)
            got = forward_with_request_noise(rebuilt, images, ids, seed)
        np.testing.assert_array_equal(ref, got)


def test_cluster_weights_are_shared(serve_bench, val_images):
    """The memory claim: replicas bind the published mmap, not copies.

    Every replica must report 100% of its parameter bytes backed by
    the shared mapping; the per-replica RSS is reported alongside so a
    regression to copied weights shows up as both a fraction drop and
    an RSS jump.
    """
    from repro.serve import ServeCluster

    with ServeCluster(serve_bench, workers=2) as cluster:
        cluster.warm(AMS_SPEC)
        # Fault the mapping in on both replicas before reading.
        futures = [
            cluster.submit_batch(
                AMS_SPEC, val_images[i : i + 4], range(i, i + 4)
            )
            for i in (0, 4)
        ]
        for future in futures:
            future.result(timeout=120)
        info = cluster.meminfo()
    assert len(info) == 2
    for replica, report in info.items():
        assert report["models"] == 1
        assert report["shared_fraction"] == pytest.approx(1.0), (
            f"replica {replica} copied weights instead of binding "
            f"the shared mapping: {report}"
        )
        assert report["rss_kb"] > 0


def test_process_rss_reports_positive_on_linux():
    assert process_rss_kb() >= 0
