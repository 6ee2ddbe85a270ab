"""Checkpoint format: round-trip, schema validation, atomicity."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ckpt import (
    CKPT_SCHEMA_VERSION,
    TrainCheckpoint,
    capture_rng_states,
    load_checkpoint,
    restore_rng_states,
    save_checkpoint,
)
from repro.errors import CheckpointError
from repro.models import AMSFactory, FP32Factory
from repro.models.simple import SimpleCNN
from repro.utils.serialization import load_state, save_state
from tests.artifactkit import DAMAGES, damage


def _checkpoint(best=True):
    rng = np.random.default_rng(7)
    return TrainCheckpoint(
        epoch=3,
        model_state={"conv.weight": rng.normal(size=(4, 3)).astype("f4")},
        optimizer_state={"velocity.0": rng.normal(size=(4, 3)).astype("f4")},
        best_state=(
            {"conv.weight": rng.normal(size=(4, 3)).astype("f4")}
            if best
            else None
        ),
        best_accuracy=0.75,
        best_epoch=2,
        epochs_since_best=1,
        history=[
            {"epoch": 0, "train_loss": 1.5, "val_accuracy": 0.5},
            {"epoch": 1, "train_loss": 0.1 + 0.2, "val_accuracy": 1 / 3},
        ],
        rng_states={"loader": np.random.default_rng(0).bit_generator.state},
        train_config={"epochs": 4, "lr": 0.02},
    )


class TestRoundTrip:
    def test_everything_survives(self, tmp_path):
        ckpt = _checkpoint()
        path = save_checkpoint(str(tmp_path / "m.ckpt"), ckpt)
        assert path == str(tmp_path / "m.ckpt")
        loaded = load_checkpoint(path)
        assert loaded.epoch == 3
        assert loaded.schema_version == CKPT_SCHEMA_VERSION
        np.testing.assert_array_equal(
            loaded.model_state["conv.weight"],
            ckpt.model_state["conv.weight"],
        )
        np.testing.assert_array_equal(
            loaded.optimizer_state["velocity.0"],
            ckpt.optimizer_state["velocity.0"],
        )
        np.testing.assert_array_equal(
            loaded.best_state["conv.weight"],
            ckpt.best_state["conv.weight"],
        )
        assert loaded.best_epoch == 2
        assert loaded.epochs_since_best == 1
        assert loaded.train_config == {"epochs": 4, "lr": 0.02}
        assert loaded.stopped_early is False

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        ckpt = _checkpoint()
        loaded = load_checkpoint(
            save_checkpoint(str(tmp_path / "m.ckpt"), ckpt)
        )
        # 0.1 + 0.2 and 1/3 are not representable exactly; the JSON
        # metadata block must still reproduce them bit-for-bit.
        assert loaded.history == ckpt.history
        assert loaded.best_accuracy == ckpt.best_accuracy

    def test_missing_best_state_round_trips_as_none(self, tmp_path):
        loaded = load_checkpoint(
            save_checkpoint(str(tmp_path / "m.ckpt"), _checkpoint(best=False))
        )
        assert loaded.best_state is None

    def test_rng_state_round_trip_continues_identically(self, tmp_path):
        gen = np.random.default_rng(42)
        gen.normal(size=100)  # advance
        ckpt = _checkpoint()
        ckpt.rng_states = {"loader": gen.bit_generator.state}
        expected = gen.normal(size=10)  # what the stream yields next
        loaded = load_checkpoint(
            save_checkpoint(str(tmp_path / "m.ckpt"), ckpt)
        )
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = loaded.rng_states["loader"]
        np.testing.assert_array_equal(fresh.normal(size=10), expected)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_plain_state_archive_rejected(self, tmp_path):
        path = str(tmp_path / "weights.state")
        save_state(path, {"w": np.zeros(3)})
        with pytest.raises(CheckpointError, match="not a training checkpoint"):
            load_checkpoint(path)

    def test_corrupt_meta_block(self, tmp_path):
        path = save_checkpoint(str(tmp_path / "m.ckpt"), _checkpoint())
        damage(path, "header-byte")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", DAMAGES)
    def test_damaged_file_is_typed(self, tmp_path, kind):
        """A damaged file surfaces as CheckpointError, never untyped."""
        path = save_checkpoint(str(tmp_path / "m.ckpt"), _checkpoint())
        damage(path, kind)
        with pytest.raises(CheckpointError, match="ArtifactError|corrupt"):
            load_checkpoint(path)

    def test_future_schema_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.ckpt")
        meta = {
            name: 0
            for name in (
                "epoch",
                "best_accuracy",
                "best_epoch",
                "epochs_since_best",
            )
        }
        meta.update(
            schema_version=CKPT_SCHEMA_VERSION + 1,
            stopped_early=False,
            history=[],
            rng_states={},
            train_config={},
        )
        save_state(path, {"model.w": np.zeros(1)}, meta=meta)
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)

    def test_missing_meta_fields_rejected(self, tmp_path):
        path = str(tmp_path / "partial.ckpt")
        save_state(path, {"model.w": np.zeros(1)}, meta={"schema_version": 1})
        with pytest.raises(CheckpointError, match="missing metadata"):
            load_checkpoint(path)

    def test_unrecognized_array_section_rejected(self, tmp_path):
        ckpt = _checkpoint()
        path = save_checkpoint(str(tmp_path / "m.ckpt"), ckpt)
        arrays, meta = load_state(path)
        arrays["bogus.key"] = np.zeros(1)
        save_state(path, arrays, meta=meta)
        with pytest.raises(CheckpointError, match="unrecognized"):
            load_checkpoint(path)


class TestAtomicity:
    def test_no_tmp_residue(self, tmp_path):
        save_checkpoint(str(tmp_path / "m.ckpt"), _checkpoint())
        names = os.listdir(tmp_path)
        assert names == ["m.ckpt"]

    def test_overwrite_never_leaves_partial_file(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, _checkpoint())
        ckpt = _checkpoint()
        ckpt.epoch = 9
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).epoch == 9
        assert os.listdir(tmp_path) == ["m.ckpt"]


class TestRngCapture:
    def test_captures_loader_and_module_generators(self, tiny_data):
        from repro.data.dataloader import DataLoader

        model = SimpleCNN(
            AMSFactory(seed=1, noise_seed=5), num_classes=4, widths=(4,)
        )
        loader = DataLoader(
            tiny_data.train, batch_size=16, shuffle=True,
            rng=np.random.default_rng(3),
        )
        states = capture_rng_states(model, loader)
        assert "loader" in states
        module_keys = [k for k in states if k.startswith("module:")]
        assert module_keys  # the AMS injectors carry generators

    def test_fp32_model_has_no_module_generators(self):
        model = SimpleCNN(FP32Factory(seed=1), num_classes=4, widths=(4,))
        states = capture_rng_states(model)
        assert states == {}

    def test_restore_unknown_module_rejected(self):
        model = SimpleCNN(FP32Factory(seed=1), num_classes=4, widths=(4,))
        states = {"module:ghost": np.random.default_rng(0).bit_generator.state}
        with pytest.raises(CheckpointError, match="no such generator"):
            restore_rng_states(states, model)

    def test_restore_resumes_module_streams(self, tiny_data):
        model = SimpleCNN(
            AMSFactory(seed=1, noise_seed=5), num_classes=4, widths=(4,)
        )
        states = capture_rng_states(model)
        name = next(k for k in states if k.startswith("module:"))
        module = dict(model.named_modules())[name.split(":", 1)[1]]
        expected = module.rng.normal(size=5)
        module.rng.normal(size=100)  # diverge
        restore_rng_states(states, model)
        np.testing.assert_array_equal(module.rng.normal(size=5), expected)
