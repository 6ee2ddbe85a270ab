"""Deterministic random-number management.

Every stochastic component in the repo (weight init, data generation,
AMS noise sampling, batch shuffling) takes an explicit
``numpy.random.Generator``.  These helpers create and fan out
generators so a single experiment seed reproduces an entire run.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np


def new_rng(
    seed: Union[int, np.random.SeedSequence]
) -> np.random.Generator:
    """A fresh PCG64 generator for ``seed`` (an int or a SeedSequence)."""
    return np.random.default_rng(seed)


def entropy_rng() -> np.random.Generator:
    """A generator seeded from OS entropy (non-reproducible paths only).

    The single sanctioned way to get an unseeded stream in seeded
    subsystems — rule ``errmodel-rng`` of ``tools/lint.py`` forbids bare
    ``np.random`` calls under ``repro/ams/``, so explicitly-unseeded
    defaults route through here and stay greppable.
    """
    return np.random.default_rng()


def seed_sequence(seed: int) -> np.random.SeedSequence:
    """The ``SeedSequence`` for ``seed`` (spawn children for substreams)."""
    return np.random.SeedSequence(seed)


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """``count`` independent generators derived from one seed.

    Uses ``SeedSequence.spawn`` so the streams are statistically
    independent (unlike ``seed+i`` arithmetic).
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def point_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The seed sequence for grid point ``index`` of a sweep.

    Keyed by ``spawn_key`` so the stream depends only on ``(seed,
    index)`` — never on execution order or worker assignment — which is
    what makes parallel sweeps reproduce serial ones exactly.  The
    returned sequence can itself be ``spawn``\\ n for per-layer streams
    within the point.
    """
    return np.random.SeedSequence(seed, spawn_key=(index,))


def rng_for_point(seed: int, index: int) -> np.random.Generator:
    """A generator for grid point ``index``, independent of its siblings."""
    return np.random.default_rng(point_seed_sequence(seed, index))
