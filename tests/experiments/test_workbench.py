"""Tests for the Workbench (shared trained-artifact cache)."""

import os

import numpy as np
import pytest

from repro.experiments.common import ExperimentResult
from repro.registry.layout import artifact_paths
from repro.serve import ModelSpec

FP32 = ModelSpec("fp32")
QUANT = ModelSpec("quant", bw=8, bx=8)


class TestData:
    def test_data_shape_follows_config(self, micro_bench, micro_config):
        data = micro_bench.data
        assert len(data.train) == (
            micro_config.num_classes * micro_config.train_per_class
        )
        image, _ = data.train[0]
        assert image.shape[1] == micro_config.image_size


class TestTrainedArtifacts:
    def test_fp32_model_beats_chance(self, micro_bench, micro_config):
        _, meta = micro_bench.registry.get(FP32, fresh=True)
        assert meta["best_accuracy"] > 1.0 / micro_config.num_classes

    def test_cache_hit_skips_training(self, micro_bench):
        micro_bench.registry.get(FP32, fresh=True)
        path = artifact_paths(micro_bench.config, "fp32").state
        mtime = os.path.getmtime(path)
        model, meta = micro_bench.registry.get(FP32, fresh=True)
        assert os.path.getmtime(path) == mtime
        assert "best_accuracy" in meta

    def test_cached_weights_identical(self, micro_bench):
        m1, _ = micro_bench.registry.get(FP32, fresh=True)
        m2, _ = micro_bench.registry.get(FP32, fresh=True)
        s1, s2 = m1.state_dict(), m2.state_dict()
        for key in s1:
            np.testing.assert_array_equal(s1[key], s2[key])

    def test_quantized_starts_from_fp32(self, micro_bench):
        model, meta = micro_bench.registry.get(QUANT, fresh=True)
        assert meta["best_accuracy"] > 0

    def test_ams_eval_only_uses_quant_weights(self, micro_bench):
        quant, _ = micro_bench.registry.get(QUANT, fresh=True)
        ams, _ = micro_bench.registry.get(
            ModelSpec("ams_eval", enob=6.0), fresh=True
        )
        np.testing.assert_array_equal(
            ams.state_dict()["fc.0.weight"],
            quant.state_dict()["fc.0.weight"],
        )

    def test_ams_retrained_cached_by_freeze_group(self, micro_bench):
        _, meta_none = micro_bench.registry.get(
            ModelSpec("ams", enob=4.0), fresh=True
        )
        _, meta_bn = micro_bench.registry.get(
            ModelSpec("ams", enob=4.0, freeze=("bn",)), fresh=True
        )
        assert meta_none["name"] != meta_bn["name"]

    def test_probed_rebuild_preserves_weights(self, micro_bench):
        trained, _ = micro_bench.registry.get(
            ModelSpec("ams", enob=4.0), fresh=True
        )
        probed = micro_bench.ams_retrained_probed(4.0)
        np.testing.assert_array_equal(
            probed.state_dict()["fc.0.weight"],
            trained.state_dict()["fc.0.weight"],
        )

    def test_stats_protocol(self, micro_bench, micro_config):
        model, _ = micro_bench.registry.get(QUANT, fresh=True)
        stats = micro_bench.stats(model)
        assert len(stats.values) == micro_config.eval_passes
        assert 0.0 <= stats.mean <= 1.0


class TestExperimentResult:
    def test_table_renders(self):
        result = ExperimentResult(
            "x", "Title", ["a", "b"], [[1, 2.5]], notes=["hello"]
        )
        text = result.table()
        assert "Title" in text and "hello" in text

    def test_save_json(self, tmp_path):
        result = ExperimentResult(
            "xyz", "T", ["a"], [[np.float64(1.5)]],
            extras={"arr": np.arange(3)},
        )
        path = result.save(str(tmp_path))
        assert os.path.exists(path)
        import json

        with open(path) as fh:
            payload = json.load(fh)
        assert payload["experiment_id"] == "xyz"
        assert payload["extras"]["arr"] == [0, 1, 2]
