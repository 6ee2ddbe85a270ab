"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError):
    """An operation received tensors with incompatible shapes."""


class GradientError(ReproError):
    """Backward pass was requested in an invalid state."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ConvergenceError(ReproError):
    """A training run failed to make progress when it was required to."""


class CompileError(ReproError):
    """A model could not be lowered to the compiled inference executor.

    Raised by :func:`repro.compile.compile_model` for architectures or
    layers without a fused kernel; :func:`repro.compile.maybe_compiled`
    catches it and falls back to the interpreted forward pass.
    """


class ServiceOverloadError(ReproError):
    """The serving front door's bounded queue is saturated.

    Raised instead of queueing unboundedly; callers should back off and
    retry, or configure a fallback spec for graceful degradation (see
    :class:`repro.serve.FrontDoor`).
    """


class ServiceTimeoutError(ReproError):
    """An inference request missed its deadline before completing."""


class SweepError(ReproError):
    """One or more grid points of a sweep failed.

    Raised by :func:`repro.parallel.sweep_map` *after* every point has
    run and every failure has been journaled as a ``sweep.point_failed``
    event, so a partial sweep is never silently reported as success.
    The CLI converts this into a non-zero exit code.
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        #: ``(point_key, traceback_text)`` pairs, in point order.
        self.failures = tuple(failures)


class ArtifactError(ReproError):
    """An artifact file is damaged or not in the artifact format.

    Raised by :mod:`repro.utils.serialization` on a bad magic string or
    format version, a damaged header, a length mismatch (truncation) or
    a payload crc mismatch, before any array of the file is handed out.
    """


class CheckpointError(ReproError):
    """A training checkpoint is missing, corrupt, or incompatible.

    Raised by :mod:`repro.ckpt` when a file is damaged, lacks the
    checkpoint metadata, carries an unsupported schema version, or was
    written for a different training configuration than the one trying
    to resume from it.
    """


class RunInterrupted(ReproError):
    """A run was stopped by SIGINT/SIGTERM after a graceful drain.

    Raised at the next epoch/point boundary once
    :func:`repro.ckpt.interrupt_requested` reports a signal; by then
    the final checkpoint has been written and a ``run.interrupted``
    event journaled.  The CLI converts this into exit code 130.
    """

    def __init__(self, message: str, signal_name: str = ""):
        super().__init__(message)
        #: Name of the signal that requested the stop (``SIGINT``/...).
        self.signal_name = signal_name


class WorkerLostError(ReproError):
    """A parallel task's worker process died and retries are exhausted.

    Raised by :class:`repro.parallel.SweepRunner` when a task still
    cannot complete after ``retries`` pool rebuilds and no
    ``on_lost`` fallback was configured to absorb the loss.
    """


class ReplicaError(ReproError):
    """A serving-cluster replica failed while executing a command.

    Carries the worker-side exception type and traceback text so the
    front door can report the real failure without re-raising an
    arbitrary unpicklable exception across the process boundary.
    """

    def __init__(self, message: str, worker_traceback: str = ""):
        super().__init__(message)
        #: The worker process's formatted traceback, for logs.
        self.worker_traceback = worker_traceback


class JournalError(ReproError):
    """A run journal is corrupt beyond the tolerated torn final line.

    A truncated *final* JSONL line is expected after a crash and is
    skipped by the reader; an undecodable line anywhere else means the
    stream was damaged and is reported as this error.
    """
