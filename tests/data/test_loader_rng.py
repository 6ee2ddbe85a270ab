"""DataLoader shuffle-RNG policy: fixed-seed default + state capture."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.data.dataloader import DEFAULT_SHUFFLE_SEED
from repro.obs import deprecation


def make_ds(n=12):
    images = np.arange(n * 3 * 2 * 2, dtype=np.float32).reshape(n, 3, 2, 2)
    labels = np.arange(n) % 3
    return ArrayDataset(images, labels)


def _labels(loader):
    return [labels.tolist() for _, labels in loader]


@pytest.fixture(autouse=True)
def _fresh_warning_sites():
    deprecation.reset()
    yield
    deprecation.reset()


class TestDefaultRng:
    def test_unseeded_shuffle_warns_and_names_call_site(self):
        with pytest.warns(UserWarning, match="test_loader_rng.py") as record:
            DataLoader(make_ds(), batch_size=4, shuffle=True)
        assert "fixed" in str(record[0].message)

    def test_warning_fires_once_per_call_site(self):
        def build():
            return DataLoader(make_ds(), batch_size=4, shuffle=True)

        with pytest.warns(UserWarning):
            build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build()  # same site: silent the second time

    def test_no_warning_without_shuffle(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DataLoader(make_ds(), batch_size=4)

    def test_no_warning_with_explicit_rng(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DataLoader(
                make_ds(), batch_size=4, shuffle=True,
                rng=np.random.default_rng(1),
            )

    def test_default_stream_is_deterministic(self):
        with pytest.warns(UserWarning):
            l1 = DataLoader(make_ds(), batch_size=4, shuffle=True)
            l2 = DataLoader(make_ds(), batch_size=4, shuffle=True)
        assert _labels(l1) == _labels(l2)

    def test_default_matches_seeded_generator(self):
        with pytest.warns(UserWarning):
            implicit = DataLoader(make_ds(), batch_size=4, shuffle=True)
        explicit = DataLoader(
            make_ds(), batch_size=4, shuffle=True,
            rng=np.random.default_rng(DEFAULT_SHUFFLE_SEED),
        )
        assert _labels(implicit) == _labels(explicit)


class TestRngState:
    def test_capture_restore_reproduces_epoch_stream(self):
        loader = DataLoader(
            make_ds(), batch_size=4, shuffle=True,
            rng=np.random.default_rng(5),
        )
        _labels(loader)  # epoch 0 advances the generator
        state = loader.rng_state()
        epoch1 = _labels(loader)
        epoch2 = _labels(loader)
        loader.set_rng_state(state)
        assert _labels(loader) == epoch1
        assert _labels(loader) == epoch2

    def test_state_transplants_across_loader_instances(self):
        source = DataLoader(
            make_ds(), batch_size=4, shuffle=True,
            rng=np.random.default_rng(5),
        )
        _labels(source)
        target = DataLoader(
            make_ds(), batch_size=4, shuffle=True,
            rng=np.random.default_rng(999),
        )
        target.set_rng_state(source.rng_state())
        assert _labels(target) == _labels(source)

    def test_state_is_json_serializable(self):
        import json

        loader = DataLoader(
            make_ds(), batch_size=4, shuffle=True,
            rng=np.random.default_rng(5),
        )
        round_tripped = json.loads(json.dumps(loader.rng_state()))
        loader.set_rng_state(round_tripped)
