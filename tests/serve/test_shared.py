"""Zero-copy weight publication: publish / map / bind round trips.

Publication writes the one artifact format (``save_state``); replicas
map it (``map_state``) and bind parameters as views into the mapping.
"""

import numpy as np
import pytest

from repro.errors import ArtifactError, ConfigError, ReplicaError
from repro.nn import Linear
from repro.serve.shared import bind_shared, bound_fraction, process_rss_kb
from repro.utils.serialization import ALIGN, map_state, save_state
from tests.serve.conftest import AMS_SPEC


def _publish(state, path) -> str:
    save_state(str(path), state)
    return str(path)


class TestPublishAndOpen:
    def test_round_trip_bit_exact(self, tmp_path):
        state = {
            "a.weight": np.arange(12, dtype=np.float32).reshape(3, 4),
            "a.bias": np.arange(3, dtype=np.float32),
            "stat": np.array(2.5, dtype=np.float64),
        }
        views, _ = map_state(_publish(state, tmp_path / "w.state"))
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
        views, _ = map_state(_publish(state, tmp_path / "w.state"))
        for view in views.values():
            assert view.ctypes.data % ALIGN == 0
            base = view
            while base is not None and not isinstance(base, np.memmap):
                base = base.base
            assert isinstance(base, np.memmap)

    def test_empty_state_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty state dict"):
            _publish({}, tmp_path / "w.state")

    def test_missing_blob_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            map_state(str(tmp_path / "gone.state"))

    def test_truncated_blob_rejected(self, tmp_path):
        path = _publish(
            {"w": np.ones(64, dtype=np.float32)}, tmp_path / "w.state"
        )
        with open(path, "r+b") as fh:
            fh.truncate(fh.seek(0, 2) - 32)
        with pytest.raises(ArtifactError, match="bytes"):
            map_state(path)


class TestBindShared:
    def _layer(self, seed=0):
        return Linear(4, 3, rng=np.random.default_rng(seed))

    def test_bind_replaces_params_with_readonly_views(self, tmp_path):
        source = self._layer(seed=1)
        target = self._layer(seed=2)
        path = _publish(source.state_dict(), tmp_path / "w.state")
        bound = bind_shared(target, path)
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
        path = _publish(source.state_dict(), tmp_path / "w.state")
        before = target.weight.version
        bind_shared(target, path)
        assert target.weight.version == before + 1

    def test_strict_mismatch_rejected(self, tmp_path):
        path = _publish(
            {"stranger": np.ones(3, dtype=np.float32)}, tmp_path / "w.state"
        )
        with pytest.raises(ConfigError, match="do not match the model"):
            bind_shared(self._layer(), path)

    def test_shape_mismatch_rejected(self, tmp_path):
        state = self._layer().state_dict()
        state["weight"] = np.ones((2, 2), dtype=np.float32)
        path = _publish(state, tmp_path / "w.state")
        with pytest.raises(ConfigError, match="shape mismatch"):
            bind_shared(self._layer(), path)


class TestModelLevelBinding:
    def test_bound_model_forward_matches_source(self, serve_bench, tmp_path):
        """A calibration-skipping rebuild bound to the published blob
        produces the same logits as the trained source model."""
        spec = AMS_SPEC.resolved(serve_bench.config)
        model, _ = serve_bench.registry.get(spec, fresh=True)
        model.eval()
        path = _publish(model.state_dict(), tmp_path / "m.state")
        rebuilt = serve_bench.build(spec, calibrate=False)
        bind_shared(rebuilt, path)
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


def test_truncated_publication_fails_warm_typed(serve_bench, monkeypatch):
    """A replica asked to bind a damaged published file answers with a
    typed error naming ArtifactError; the spec is left unpublished."""
    from repro.serve import ServeCluster
    from repro.serve import cluster as cluster_module

    def publish_truncated(path, state, meta=None):
        save_state(path, state, meta)
        with open(path, "r+b") as fh:
            fh.truncate(fh.seek(0, 2) // 2)

    monkeypatch.setattr(cluster_module, "save_state", publish_truncated)
    with ServeCluster(serve_bench, workers=1) as cluster:
        with pytest.raises(ReplicaError, match="ArtifactError"):
            cluster.warm(AMS_SPEC)
        assert cluster.published_specs() == []


def test_process_rss_reports_positive_on_linux():
    assert process_rss_kb() >= 0
