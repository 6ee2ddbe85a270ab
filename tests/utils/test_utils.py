"""Tests for RNG, serialization, and tabulation utilities."""

import numpy as np
import pytest

from repro.utils import format_table, load_state, new_rng, save_state, spawn_rngs


class TestRng:
    def test_new_rng_deterministic(self):
        assert new_rng(5).random() == new_rng(5).random()

    def test_spawn_independent_streams(self):
        rngs = spawn_rngs(7, 3)
        assert len(rngs) == 3
        values = [r.random() for r in rngs]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = [r.random() for r in spawn_rngs(7, 3)]
        b = [r.random() for r in spawn_rngs(7, 3)]
        assert a == b


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        state = {
            "layer.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
            "bn.running_mean": np.ones(4),
        }
        path = str(tmp_path / "sub" / "model.state")
        save_state(path, state)
        loaded, meta = load_state(path)
        assert meta == {}
        assert set(loaded) == set(state)
        np.testing.assert_array_equal(loaded["layer.weight"], state["layer.weight"])


class TestFormatTable:
    def test_contains_cells_and_title(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["b", 2]], title="T"
        )
        assert "T" in text
        assert "| a" in text and "1.5" in text

    def test_scientific_for_small(self):
        text = format_table(["v"], [[1e-6]])
        assert "e-06" in text

    def test_zero_formats_plainly(self):
        assert "| 0 " in format_table(["v"], [[0.0]])

    def test_alignment_width(self):
        text = format_table(["col"], [["longer-cell"]])
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
