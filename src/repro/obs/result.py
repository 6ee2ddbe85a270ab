"""The unified evaluation result shape: :class:`EvalResult`.

Before this existed the repo had three ad-hoc result shapes for "how
well did the model do": ``evaluate_accuracy`` returned a bare float,
``predict_logits`` returned raw logits whose provenance (noise seed,
wall time) evaporated, and the serve CLI re-derived accuracy from
``Prediction`` lists by hand.  :class:`EvalResult` unifies them:

- ``accuracy`` — the top-k hit rate (the value everyone compares);
- ``logits_hash`` — CRC32 over the raw logits bytes, the cheap
  fingerprint the bit-identity story is audited with (two runs agree
  iff their hashes agree);
- ``wall_time_s`` — monotonic wall time of the evaluation;
- ``noise_seed`` — the AMS noise seed the pass ran under (None for
  deterministic variants).

Backward compatibility is total: ``EvalResult`` *is a float* equal to
its accuracy, so every existing call site — arithmetic, comparisons,
formatting, ``np.mean`` over a list of results, JSON serialization —
keeps working unchanged.  It also tuple-unpacks::

    accuracy, logits_hash, wall_time_s, noise_seed = result
"""

from __future__ import annotations

import zlib
from typing import Iterator, Optional, Sequence

#: Field order for tuple unpacking and ``as_dict``.
FIELDS = ("accuracy", "logits_hash", "wall_time_s", "noise_seed")


def hash_logits(logits, running: int = 0) -> int:
    """CRC32 of a logits array's bytes, chainable across batches."""
    import numpy as np

    array = np.ascontiguousarray(logits)
    return zlib.crc32(array.tobytes(), running)


class EvalResult(float):
    """A float accuracy that also carries its evaluation provenance.

    ``float(result)`` / arithmetic / ``f"{result:.4f}"`` all see the
    accuracy; the extra fields ride along as attributes.  Documented
    field order (for unpacking): ``accuracy, logits_hash, wall_time_s,
    noise_seed``.
    """

    __slots__ = ("logits_hash", "wall_time_s", "noise_seed")

    _fields = FIELDS

    def __new__(
        cls,
        accuracy: float,
        logits_hash: str = "",
        wall_time_s: float = 0.0,
        noise_seed: Optional[int] = None,
    ) -> "EvalResult":
        self = super().__new__(cls, accuracy)
        self.logits_hash = logits_hash
        self.wall_time_s = wall_time_s
        self.noise_seed = noise_seed
        return self

    # ------------------------------------------------------------------
    @property
    def accuracy(self) -> float:
        return float(self)

    def __iter__(self) -> Iterator:
        yield float(self)
        yield self.logits_hash
        yield self.wall_time_s
        yield self.noise_seed

    def as_dict(self) -> dict:
        """JSON-able dict; ``accuracy`` round-trips bit exactly."""
        return {
            "accuracy": float(self),
            "logits_hash": self.logits_hash,
            "wall_time_s": self.wall_time_s,
            "noise_seed": self.noise_seed,
        }

    def __repr__(self) -> str:
        return (
            f"EvalResult(accuracy={float(self)!r}, "
            f"logits_hash={self.logits_hash!r}, "
            f"wall_time_s={self.wall_time_s!r}, "
            f"noise_seed={self.noise_seed!r})"
        )

    # float.__repr__ (== str() for plain floats) keeps log lines and
    # tables identical to the pre-EvalResult output; plain
    # float.__str__ would resolve to object.__str__ and print the
    # verbose repr above.
    def __str__(self) -> str:
        return float.__repr__(self)

    def __reduce__(self):
        # float subclasses need explicit pickle support to cross the
        # sweep runner's process boundary with their fields intact.
        return (
            EvalResult,
            (float(self), self.logits_hash, self.wall_time_s,
             self.noise_seed),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_logits(
        cls,
        logits,
        labels,
        wall_time_s: float = 0.0,
        noise_seed: Optional[int] = None,
    ) -> "EvalResult":
        """Accuracy + hash of one raw ``predict_logits`` output."""
        import numpy as np

        logits = np.asarray(logits)
        labels = np.asarray(labels)
        hits = logits.argmax(axis=1) == labels
        return cls(
            accuracy=float(hits.mean()) if len(labels) else 0.0,
            logits_hash=f"{hash_logits(logits):08x}",
            wall_time_s=wall_time_s,
            noise_seed=noise_seed,
        )

    @classmethod
    def from_predictions(
        cls,
        predictions: Sequence,
        labels,
        wall_time_s: float = 0.0,
        noise_seed: Optional[int] = None,
    ) -> "EvalResult":
        """Accuracy + hash over served ``Prediction`` objects.

        ``labels[i]`` is the ground truth for ``predictions[i]``; the
        hash chains each prediction's logits in request order, so two
        serving runs that returned bit-identical logits (the executor's
        determinism contract) hash identically regardless of batching.
        """
        running = 0
        hits = 0
        for prediction, label in zip(predictions, labels):
            running = hash_logits(prediction.logits, running)
            hits += int(prediction.label == label)
        count = min(len(predictions), len(labels))
        return cls(
            accuracy=hits / count if count else 0.0,
            logits_hash=f"{running:08x}",
            wall_time_s=wall_time_s,
            noise_seed=noise_seed,
        )
