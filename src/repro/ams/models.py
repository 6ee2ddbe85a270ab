"""Pluggable AMS error models: interface, registry, and the host injector.

The paper's main experiments inject one lumped Gaussian at each
accumulated convolution/linear output (Eq. 2).  Its Section 5 — and the
related work it points at — call for richer error shapes: per-VMAC
injection, multiplication partitioning, ADC reference scaling,
state-dependent magnitude noise (Xiao et al.) and tile-level spatially
correlated noise (Luquin et al.).  This module turns the injector into
a *host* for any such model:

- :class:`ErrorModel` — the small interface a model implements:
  ``sample(shape, streams, ctx) -> noise`` plus declared state needs
  (``data_dependent`` for models that read the pre-activation,
  ``extra_streams`` for models needing their own persistent
  generators, ``compiled_safe`` for models the compiled executor may
  not fuse).
- the registry — :func:`register_model`, :func:`get_model`,
  :func:`list_models`; unknown names fail fast with a did-you-mean.
- :class:`AMSErrorInjector` — the module placed after a (quantized)
  convolution or linear layer.  It owns the RNG streams, the policy
  and the buffer-pool plumbing; the model owns the math.
- :func:`make_injector` — the canonical constructor, resolving models
  through the registry.

The paper's lumped Gaussian is the :class:`LumpedGaussian` reference
implementation (``"lumped_gaussian"``); its draws are bit-identical to
the historical hard-coded injector.  The built-in zoo of richer models
lives in :mod:`repro.ams.zoo` and registers itself on import.

All randomness inside ``repro/ams/`` must flow through
:class:`NoiseStreams` (rule ``errmodel-rng`` of ``tools/lint.py``
forbids bare ``np.random`` calls in this package as a tier-1 check) so
that the trainer, the compiled executor and the serving executor's
per-request row generators all see exactly the streams the host
attached.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.ams.vmac import VMACConfig, total_error_std
from repro.errors import ConfigError
from repro.nn.module import Module
from repro.tensor.functional import add_forward_noise
from repro.tensor.pool import default_pool
from repro.tensor.tensor import Tensor
from repro.utils import profiler as _profiler
from repro.utils.rng import entropy_rng, new_rng

__all__ = [
    "AMSErrorInjector",
    "ErrorModel",
    "ErrorModelContext",
    "InjectionPolicy",
    "LumpedGaussian",
    "NoiseStreams",
    "get_model",
    "list_models",
    "make_injector",
    "model_params",
    "register_model",
]


@dataclass(frozen=True)
class InjectionPolicy:
    """When the injector adds error.

    Attributes
    ----------
    in_training:
        Inject during training forward passes.  Retraining with AMS
        error in the loop sets this True everywhere except the last
        layer (the paper's workaround).
    in_eval:
        Inject during evaluation.  Always True when modeling hardware;
        set False to measure the error-free quantized baseline.
    """

    in_training: bool = True
    in_eval: bool = True

    @staticmethod
    def eval_only() -> "InjectionPolicy":
        """Error at evaluation time only (paper Figs. 4-5, dashed series)."""
        return InjectionPolicy(in_training=False, in_eval=True)

    @staticmethod
    def disabled() -> "InjectionPolicy":
        return InjectionPolicy(in_training=False, in_eval=False)


class ErrorModelContext:
    """What the host injector knows at sampling time.

    Attributes
    ----------
    config:
        The layer's VMAC parameters (ENOB, Nmult, operand widths).
    ntot:
        Multiplications per output activation of the preceding layer.
    nominal_std:
        The injector's live ``error_std`` — the model's
        :meth:`ErrorModel.nominal_std` at construction, but mutable by
        allocation tooling (``set_layer_enobs``) afterwards, so models
        scale their draws by this, not by a recomputed value.
    pool:
        Buffer pool for scratch; models must release what they get
        (except the one buffer they return, which the host owns).
    pre:
        The pre-activation array the noise will be added to, or
        ``None`` when the caller drew noise by shape alone (e.g. the
        static context behind :meth:`ErrorModel.nominal_std`).
        ``data_dependent`` models call :meth:`require_pre`.
    """

    __slots__ = ("config", "ntot", "nominal_std", "pool", "pre")

    def __init__(
        self,
        config: VMACConfig,
        ntot: int,
        nominal_std: float = 0.0,
        pool=None,
        pre: Optional[np.ndarray] = None,
    ):
        self.config = config
        self.ntot = ntot
        self.nominal_std = nominal_std
        self.pool = pool
        self.pre = pre

    def require_pre(self, model_name: str) -> np.ndarray:
        """The pre-activation, or a ConfigError naming the model."""
        if self.pre is None:
            raise ConfigError(
                f"error model {model_name!r} is data-dependent but this "
                "caller supplied no pre-activation; pass pre= to "
                "sample_noise"
            )
        return self.pre


class NoiseStreams:
    """The RNG surface handed to :meth:`ErrorModel.sample`.

    Wraps the injector's persistent generator (training, repeated
    evaluation), the per-batch-row generators the serving executor
    attaches for per-request determinism, and any extra named streams
    the model declared via :attr:`ErrorModel.extra_streams`.  Models
    draw only through this object — never from ``np.random`` directly
    (rule ``errmodel-rng`` of ``tools/lint.py`` enforces this), which is
    what keeps interpreter/compiled/serve draws stream-for-stream
    identical.
    """

    __slots__ = ("rng", "row_rngs", "extra")

    def __init__(
        self,
        rng: np.random.Generator,
        row_rngs: Optional[Sequence[np.random.Generator]] = None,
        extra: Optional[Dict[str, np.random.Generator]] = None,
    ):
        self.rng = rng
        self.row_rngs = row_rngs
        self.extra = extra or {}

    @property
    def per_row(self) -> bool:
        """True when the host attached one generator per batch row."""
        return self.row_rngs is not None

    def _check_rows(self, rows: int) -> None:
        if self.row_rngs is not None and len(self.row_rngs) != rows:
            raise ConfigError(
                f"{len(self.row_rngs)} row generators for a batch "
                f"of {rows}"
            )

    def fill_standard_normal(self, out: np.ndarray) -> None:
        """Fill ``out`` with N(0, 1) draws, row-per-stream when attached.

        Chunking the buffer by row keeps the value sequence identical
        to one whole-buffer draw from the same generator, so batch mode
        and the single-stream case stay bit-compatible.
        """
        if self.row_rngs is not None:
            self._check_rows(out.shape[0])
            for row, row_rng in zip(out, self.row_rngs):
                row_rng.standard_normal(out=row)
        else:
            self.rng.standard_normal(out=out)

    def fill_uniform(self, out: np.ndarray) -> None:
        """Fill ``out`` with U[0, 1) draws, row-per-stream when attached."""
        if self.row_rngs is not None:
            self._check_rows(out.shape[0])
            for row, row_rng in zip(out, self.row_rngs):
                row_rng.random(out=row)
        else:
            self.rng.random(out=out)

    def row_generators(self, rows: int) -> List[np.random.Generator]:
        """One generator per batch row.

        In per-row mode these are the attached request streams; in
        batch mode every row shares the main generator (sequential
        per-row draws from one generator equal one whole-buffer draw).
        """
        if self.row_rngs is not None:
            self._check_rows(rows)
            return list(self.row_rngs)
        return [self.rng] * rows

    def extra_generator(self, name: str) -> np.random.Generator:
        """The model's dedicated persistent stream (batch mode only).

        In per-row mode models must draw everything from the row's own
        generator instead, so a request's noise stays a pure function
        of its request stream.
        """
        if name not in self.extra:
            raise ConfigError(
                f"no extra RNG stream {name!r}; the injector was built "
                "for a model declaring extra_streams="
                f"{sorted(self.extra) or '()'}"
            )
        return self.extra[name]


class ErrorModel:
    """One hardware error shape, injectable at an accumulated output.

    Subclasses set :attr:`name`, the declaration flags below, and
    implement :meth:`nominal_std` / :meth:`sample`.  Constructor
    keyword arguments are the model's user-facing parameters — the
    registry validates parameter names against the constructor
    signature (see :func:`get_model`), and values belong in plain
    attributes so ``repr`` stays informative.

    Declarations
    ------------
    data_dependent:
        The model reads the pre-activation (``ctx.pre``).
    compiled_safe:
        ``False`` makes lowering raise a
        :class:`~repro.errors.CompileError` tagged
        ``reason="error_model"`` — the run falls back to the
        interpreter, counted and warned once (never silently).
    extra_streams:
        Names of persistent generators the host injector must own on
        top of its main stream (e.g. a per-tile stream).  They are
        spawned from the injector's generator, reseeded alongside it,
        and captured/restored by :mod:`repro.ckpt` checkpoints.
    """

    name: str = ""
    data_dependent: bool = False
    compiled_safe: bool = True
    extra_streams: Tuple[str, ...] = ()

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        """The model's scalar noise scale for (config, ntot).

        Computed once at injector construction (and again by
        ``AMSErrorInjector.set_config``); ``0.0`` disables injection
        entirely, matching the historical ``error_std == 0`` shortcut.
        """
        raise NotImplementedError

    def sample(
        self, shape: Tuple[int, ...], streams: NoiseStreams,
        ctx: ErrorModelContext,
    ) -> np.ndarray:
        """Draw one batch of error samples into a pooled float64 buffer.

        The caller owns (and must release) the returned buffer.  All
        randomness must come from ``streams``; all scratch from
        ``ctx.pool``.  Per-row draws must touch only that row's
        generator so serve-mode noise stays batch-composition
        independent.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (first docstring line)."""
        doc = inspect.getdoc(type(self)) or ""
        return doc.splitlines()[0] if doc else self.name

    def __repr__(self) -> str:
        params = ", ".join(
            f"{key}={getattr(self, key)!r}" for key in model_params(type(self))
            if hasattr(self, key)
        )
        return f"{type(self).__name__}({params})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ErrorModel]] = {}


def register_model(cls: Type[ErrorModel]) -> Type[ErrorModel]:
    """Class decorator adding an :class:`ErrorModel` to the registry."""
    name = getattr(cls, "name", "")
    if not name:
        raise ConfigError(
            f"error model {cls.__name__} must set a non-empty 'name'"
        )
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ConfigError(f"error model {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def _ensure_builtins() -> None:
    # The built-in zoo registers itself on import; imported lazily so
    # this module stays importable from the zoo without a cycle.
    import repro.ams.zoo  # noqa: F401


def list_models() -> List[str]:
    """Sorted names of every registered error model."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def model_params(cls: Type[ErrorModel]) -> List[str]:
    """The user-facing parameter names of a model class."""
    if cls.__init__ is object.__init__:
        return []
    sig = inspect.signature(cls.__init__)
    return [
        name
        for name, param in sig.parameters.items()
        if name != "self"
        and param.kind
        not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
    ]


def get_model(name: str, params: Optional[dict] = None) -> ErrorModel:
    """Instantiate a registered error model by name.

    Unknown names and unknown parameter keys both raise
    :class:`~repro.errors.ConfigError` with a did-you-mean suggestion;
    value errors surface from the model's own constructor.
    """
    _ensure_builtins()
    if name not in _REGISTRY:
        options = sorted(_REGISTRY)
        raise ConfigError(
            f"unknown error model {name!r}; registered: {options}"
            f"{_did_you_mean(name, options)}"
        )
    cls = _REGISTRY[name]
    kwargs = dict(params or {})
    valid = model_params(cls)
    unknown = sorted(set(kwargs) - set(valid))
    if unknown:
        hints = ", ".join(
            f"{key!r}{_did_you_mean(key, valid)}" for key in unknown
        )
        raise ConfigError(
            f"unknown parameter{'s' if len(unknown) > 1 else ''} {hints} "
            f"for error model {name!r}; valid: {valid}"
        )
    return cls(**kwargs)


def _did_you_mean(value: str, options: Sequence[str]) -> str:
    close = difflib.get_close_matches(value, options, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


# ----------------------------------------------------------------------
# the reference model
# ----------------------------------------------------------------------
@register_model
class LumpedGaussian(ErrorModel):
    """The paper's lumped Gaussian at the accumulated output (Eq. 2).

    All VMAC errors contributing to one output activation are lumped
    "to the output of the digital summation of multiple VMAC cell
    outputs" as one zero-mean Gaussian with
    ``std = sqrt(ntot/nmult) * LSB/sqrt(12)``.

    Bit-identity contract: the draw is a pooled float64
    ``standard_normal`` (whole-buffer, or chunked per attached row
    generator — the same value sequence) scaled in place, exactly the
    historical injector's op sequence, so every pre-registry noise
    stream reproduces draw for draw.
    """

    name = "lumped_gaussian"

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        return total_error_std(ctx.config.enob, ctx.config.nmult, ctx.ntot)

    def sample(self, shape, streams, ctx) -> np.ndarray:
        draw = ctx.pool.get(shape, np.float64)
        streams.fill_standard_normal(draw)
        draw *= ctx.nominal_std
        return draw


# ----------------------------------------------------------------------
# the host injector
# ----------------------------------------------------------------------
class AMSErrorInjector(Module):
    """Additive AMS error at an accumulated dot-product output.

    The module the factories place immediately after a (quantized)
    convolution or linear layer, before batch norm (paper Fig. 3).  It
    hosts one :class:`ErrorModel`: the injector owns the RNG streams,
    the :class:`InjectionPolicy` and the pooled-buffer plumbing; the
    model owns the error math.

    Parameters
    ----------
    config:
        VMAC parameters (ENOB, Nmult).
    ntot:
        Multiplications per output activation of the preceding layer
        (``C_in * kh * kw`` for conv, ``in_features`` for linear).
    policy:
        When to inject (training / eval).
    rng:
        Noise generator; pass a spawned child generator per layer so
        runs are reproducible.
    model:
        An :class:`ErrorModel` instance or registered name (see
        :func:`make_injector`).
    model_params:
        Parameters forwarded to the registry when ``model`` is a name.

    Notes
    -----
    The error is sampled per output element per forward pass and added
    via a forward-only primitive, so the backward pass is exactly that
    of the noiseless graph (paper: "We inject this error during only
    the forward pass, leaving the backward pass untouched").
    """

    def __init__(
        self,
        config: VMACConfig,
        ntot: int,
        policy: InjectionPolicy = InjectionPolicy(),
        rng: Optional[np.random.Generator] = None,
        *,
        model,
        model_params: Optional[dict] = None,
    ):
        super().__init__()
        if ntot < 1:
            raise ConfigError(f"ntot must be >= 1, got {ntot}")
        if isinstance(model, str):
            model = get_model(model, model_params)
        elif model_params:
            raise ConfigError(
                "model_params only applies when 'model' is a registry "
                "name, not an ErrorModel instance"
            )
        self.model = model
        self.config = config
        self.ntot = ntot
        self.policy = policy
        self.rng = rng if rng is not None else entropy_rng()
        self.row_rngs: Optional[List[np.random.Generator]] = None
        self._extra: Dict[str, np.random.Generator] = {
            name: self.rng.spawn(1)[0] for name in model.extra_streams
        }
        self.error_std = model.nominal_std(self._static_ctx())

    def _static_ctx(self) -> ErrorModelContext:
        return ErrorModelContext(self.config, self.ntot)

    @property
    def active(self) -> bool:
        """Whether the current mode (train/eval) injects error."""
        return self.policy.in_training if self.training else self.policy.in_eval

    def set_config(self, config: VMACConfig) -> None:
        """Swap the VMAC parameters and recompute the model's scale.

        Allocation tooling (``set_layer_enobs``) retunes per-layer
        ENOBs through this, keeping ``error_std`` consistent with
        whatever model the injector hosts.
        """
        self.config = config
        self.error_std = self.model.nominal_std(self._static_ctx())

    def reseed(self, entropy) -> None:
        """Rebuild the main stream (and the model's extras) deterministically.

        ``entropy`` is a ``SeedSequence`` or anything
        ``np.random.default_rng`` accepts.  The main generator is
        seeded exactly as the historical ``injector.rng = default_rng(
        child)`` assignment; extra streams are spawned children of the
        same sequence (spawning does not perturb the parent's state, so
        models without extras reproduce legacy streams bit for bit).
        """
        seq = (
            entropy
            if isinstance(entropy, np.random.SeedSequence)
            else np.random.SeedSequence(entropy)
        )
        self.rng = new_rng(seq)
        if self._extra:
            names = list(self.model.extra_streams)
            self._extra = {
                name: new_rng(child)
                for name, child in zip(names, seq.spawn(len(names)))
            }

    def rng_streams(self) -> Dict[str, np.random.Generator]:
        """Every persistent generator this injector draws from, by name.

        The main stream is keyed ``""`` (checkpoints store it under the
        legacy ``module:<name>`` label so old checkpoints restore
        unchanged); extra streams use their declared names.
        """
        streams: Dict[str, np.random.Generator] = {"": self.rng}
        streams.update(self._extra)
        return streams

    def set_row_rngs(
        self, rngs: Optional[Sequence[np.random.Generator]]
    ) -> None:
        """Attach one noise generator per batch row (or ``None`` to clear).

        With row generators attached, the forward pass draws each
        sample's noise from its own stream, so a sample's error depends
        only on its generator — never on which other requests were
        coalesced into the same batch.  This is what lets the serving
        front door's dynamic micro-batcher stay reproducible per request
        at any concurrency (see :mod:`repro.serve.executor`).
        """
        self.row_rngs = list(rngs) if rngs is not None else None

    def sample_noise(self, shape, dtype, pool=None, pre=None) -> np.ndarray:
        """Draw one batch of error samples into a pooled buffer.

        The caller owns the returned buffer and must release it back to
        ``pool`` (default: the process pool).  This is the single
        RNG-consuming path shared by the interpreted forward and the
        compiled executor, which is what keeps their noise streams
        bit-identical.  ``pre`` is the pre-activation array for
        data-dependent models; the interpreter and the compiled kernels
        always pass it.
        """
        if pool is None:
            pool = default_pool()
        ctx = ErrorModelContext(
            self.config,
            self.ntot,
            nominal_std=self.error_std,
            pool=pool,
            pre=pre,
        )
        streams = NoiseStreams(self.rng, self.row_rngs, self._extra)
        draw = self.model.sample(tuple(shape), streams, ctx)
        if np.dtype(dtype) == np.float64:
            return draw
        # Pooled equivalent of ``.astype(dtype)``.
        noise = pool.get(tuple(shape), dtype)
        np.copyto(noise, draw, casting="unsafe")
        pool.release(draw)
        return noise

    def forward(self, x: Tensor) -> Tensor:
        if not self.active or self.error_std == 0.0:
            return x
        token = _profiler.op_start()
        pool = default_pool()
        noise = self.sample_noise(x.shape, x.dtype, pre=x.data)
        out = add_forward_noise(x, noise)
        # add_forward_noise stores x + noise in a fresh array; the
        # sample buffer itself is not referenced by the graph.
        pool.release(noise)
        _profiler.op_end(token, "ams.inject")
        return out

    def __repr__(self) -> str:
        return (
            f"AMSErrorInjector(model={self.model.name!r}, "
            f"enob={self.config.enob}, nmult={self.config.nmult}, "
            f"ntot={self.ntot}, std={self.error_std:.3e}, "
            f"policy={self.policy})"
        )


def make_injector(
    config: VMACConfig,
    ntot: int,
    *,
    policy: InjectionPolicy = InjectionPolicy(),
    rng: Optional[np.random.Generator] = None,
    model: str = "lumped_gaussian",
    model_params: Optional[dict] = None,
) -> AMSErrorInjector:
    """The canonical injector constructor: resolve ``model`` and host it.

    ``model`` is a registered error-model name (see
    :func:`list_models`); ``model_params`` its keyword parameters.
    Everything else matches the historical ``AMSErrorInjector``
    arguments.
    """
    return AMSErrorInjector(
        config,
        ntot,
        policy=policy,
        rng=rng,
        model=get_model(model, model_params),
    )
