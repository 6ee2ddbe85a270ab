"""Batched iteration over array datasets."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigError
from repro.obs.deprecation import warn_once

#: Seed of the generator used when a shuffling loader is built without
#: an explicit ``rng``.  A *fixed* default keeps such epochs
#: reproducible and resumable (an unseeded generator would make them
#: silently irreproducible); the one-time warning below names the call
#: site that should be passing a generator.
DEFAULT_SHUFFLE_SEED = 0


def _warn_unseeded_shuffle() -> None:
    """Warn once per call site about an implicit shuffle generator."""
    import sys

    frame = sys._getframe(2)  # caller of DataLoader.__init__
    site = f"{frame.f_code.co_filename}:{frame.f_lineno}"
    warn_once(
        f"dataloader.unseeded_shuffle.{site}",
        f"DataLoader(shuffle=True) without rng at {site}: using a fixed "
        f"default seed ({DEFAULT_SHUFFLE_SEED}) so the epoch stream stays "
        "reproducible and resumable; pass rng=new_rng(seed) to choose the "
        "stream explicitly",
        UserWarning,
        stacklevel=3,
    )


class DataLoader:
    """Yield ``(images, labels)`` minibatches from an :class:`ArrayDataset`.

    Shuffling uses the provided generator, so epochs are reproducible;
    pass ``drop_last=True`` during training to keep batch statistics
    stable for batch norm.  Omitting ``rng`` with ``shuffle=True`` falls
    back to a fixed-seed generator (see :data:`DEFAULT_SHUFFLE_SEED`)
    and warns once per call site — an unseeded generator would make the
    epoch stream impossible to reproduce or resume.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        shuffle: bool = False,
        drop_last: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        if rng is None:
            if shuffle:
                _warn_unseeded_shuffle()
            rng = np.random.default_rng(DEFAULT_SHUFFLE_SEED)
        self.rng = rng

    # ------------------------------------------------------------------
    # checkpointing (see repro.ckpt): the generator is the loader's only
    # mutable state, so capturing it at an epoch boundary makes the
    # remaining epochs' shuffle orders bit-identical after a resume.
    # ------------------------------------------------------------------
    def rng_state(self) -> dict:
        """JSON-serializable snapshot of the shuffle generator."""
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`rng_state`."""
        self.rng.bit_generator.state = state

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        images, labels = self.dataset.arrays()
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self.rng.shuffle(order)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, stop, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield images[idx], labels[idx]
