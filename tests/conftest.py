"""Shared fixtures for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import SynthImageNet, SynthImageNetConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_data() -> SynthImageNet:
    """A very small dataset shared across tests (deterministic)."""
    return SynthImageNet(
        SynthImageNetConfig(
            num_classes=4,
            image_size=8,
            train_per_class=20,
            val_per_class=8,
            seed=99,
        )
    )


@pytest.fixture
def traced_peak():
    """``measure(fn)``: peak bytes allocated during ``fn()``.

    numpy reports its data buffers to ``tracemalloc``, so this sees what
    the buffer pool's counters cannot: a temporary numpy allocates and
    frees inside one call (e.g. a buffered ``out=`` copy).
    """

    def measure(fn) -> int:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    return measure
