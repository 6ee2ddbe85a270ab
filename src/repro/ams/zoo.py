"""The built-in error-model zoo (registered on import).

Each class wires existing AMS math into the forward path through the
:class:`~repro.ams.models.ErrorModel` interface:

=====================  ==================================================
``per_vmac``           Paper §5: per-conversion uniform error, summed
                       at the digital accumulator (non-Gaussian tails).
``partitioned``        Paper §4/§5 long-multiplication partitioning —
                       :func:`repro.ams.partitioning.partitioned_error_std`.
``reference_scaled``   Paper §4/§5 ADC reference scaling — Gaussian
                       shrunk by ``alpha`` plus clipping at the reduced
                       full scale (:mod:`repro.ams.reference_scaling`).
``state_dependent``    Xiao et al., *On the Accuracy of Analog Neural
                       Network Inference Accelerators*: noise magnitude
                       grows with the activation magnitude.
``tile_correlated``    Luquin et al., *Rapid yet accurate Tile-circuit
                       and device modeling*: one shared error component
                       per physical tile of output channels
                       (:mod:`repro.ams.tiled` geometry) plus an i.i.d.
                       residual.
=====================  ==================================================

Every model draws exclusively through the host's
:class:`~repro.ams.models.NoiseStreams` (rule ``errmodel-rng`` of the
tier-1 ``tools/lint.py``) and keeps per-row draws confined to that
row's generator, so serve-mode noise stays a pure function of the
request stream at any batch composition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ams.models import ErrorModel, ErrorModelContext, register_model
from repro.ams.partitioning import PartitionScheme, partitioned_error_std
from repro.ams.vmac import total_error_std, vmac_lsb
from repro.errors import ConfigError

__all__ = [
    "PerVMAC",
    "Partitioned",
    "ReferenceScaled",
    "StateDependent",
    "TileCorrelated",
]


@register_model
class PerVMAC(ErrorModel):
    """Per-VMAC uniform conversion error, summed at the accumulator.

    The paper's §5 proposal of "injecting error at each VMAC output":
    each output activation accumulates ``ceil(ntot/nmult)`` separate
    conversions, and each conversion contributes an independent uniform
    error in ``[-LSB/2, +LSB/2)`` (the quantization-error model behind
    Eq. 1).  The sum matches Eq. 2's variance — with ``ntot/nmult``
    rounded *up* to whole conversions, the physical count — but is only
    asymptotically Gaussian: at small ``ntot/nmult`` the distribution
    keeps the uniform sum's bounded support and light tails, exactly
    the structure the lumped model approximates away.
    """

    name = "per_vmac"

    def _n_vmac(self, ctx: ErrorModelContext) -> int:
        return -(-ctx.ntot // ctx.config.nmult)

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        lsb = vmac_lsb(ctx.config.enob, ctx.config.nmult)
        return math.sqrt(self._n_vmac(ctx)) * lsb / math.sqrt(12.0)

    def sample(self, shape, streams, ctx) -> np.ndarray:
        n_vmac = self._n_vmac(ctx)
        lsb = vmac_lsb(ctx.config.enob, ctx.config.nmult)
        acc = ctx.pool.get(shape, np.float64)
        streams.fill_uniform(acc)
        if n_vmac > 1:
            tmp = ctx.pool.get(shape, np.float64)
            for _ in range(n_vmac - 1):
                streams.fill_uniform(tmp)
                acc += tmp
            ctx.pool.release(tmp)
        acc -= 0.5 * n_vmac
        acc *= lsb
        return acc


@register_model
class Partitioned(ErrorModel):
    """Long-multiplication partitioning error (paper §4).

    The operands are split into ``nw`` weight and ``nx`` activation
    chunks; each of the ``nw * nx`` partial products converts at the
    partial's full scale and the shifted errors add in the digital
    domain.  The lumped network-level effect is still a zero-mean
    Gaussian, but with :func:`~repro.ams.partitioning.
    partitioned_error_std`'s significance-weighted variance instead of
    Eq. 2's — ``low_enob`` reproduces the paper's "further saving
    energy" knob of converting low-significance partials coarsely.
    """

    name = "partitioned"

    def __init__(self, nw: int = 2, nx: int = 2, low_enob: float = None):
        if nw < 1 or nx < 1:
            raise ConfigError(f"nw and nx must be >= 1, got ({nw}, {nx})")
        self.nw = int(nw)
        self.nx = int(nx)
        self.low_enob = None if low_enob is None else float(low_enob)

    def _scheme(self, ctx: ErrorModelContext) -> PartitionScheme:
        return PartitionScheme(
            ctx.config,
            nw=self.nw,
            nx=self.nx,
            low_significance_enob=self.low_enob,
        )

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        return partitioned_error_std(self._scheme(ctx), ctx.ntot)

    def sample(self, shape, streams, ctx) -> np.ndarray:
        draw = ctx.pool.get(shape, np.float64)
        streams.fill_standard_normal(draw)
        draw *= ctx.nominal_std
        return draw


@register_model
class ReferenceScaled(ErrorModel):
    """ADC reference scaling: finer LSB, clipped dynamic range (paper §4).

    Scaling the ADC reference by ``alpha < 1`` shrinks the LSB — and
    hence the Eq. 2 Gaussian — by ``alpha``, at the price of clipping
    accumulated values beyond ``alpha`` of the full scale
    (:func:`repro.ams.reference_scaling.clipped_quantize` is the
    per-conversion version of the same trade).  At the lumped network
    level the full scale of an accumulated output is ``ntot`` (operands
    live in [-1, 1]), so the injected error is the clipping residual
    ``clip(pre, ±alpha*ntot) - pre`` plus a Gaussian of
    ``alpha * total_error_std``.  Data-dependent: the clipping term
    needs the pre-activation.
    """

    name = "reference_scaled"
    data_dependent = True

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        return self.alpha * total_error_std(
            ctx.config.enob, ctx.config.nmult, ctx.ntot
        )

    def sample(self, shape, streams, ctx) -> np.ndarray:
        pre = ctx.require_pre(self.name)
        draw = ctx.pool.get(shape, np.float64)
        streams.fill_standard_normal(draw)
        draw *= ctx.nominal_std
        full_scale = self.alpha * ctx.ntot
        clipped = ctx.pool.get(shape, np.float64)
        np.clip(pre, -full_scale, full_scale, out=clipped)
        clipped -= pre
        draw += clipped
        ctx.pool.release(clipped)
        return draw


@register_model
class StateDependent(ErrorModel):
    """State-dependent magnitude noise (Xiao et al.).

    Analog conductance/parasitic error grows with the signal: the
    per-element standard deviation is

        ``sigma(x) = nominal_std * (floor + slope * |x| / sqrt(ntot))``

    where ``x`` is the accumulated pre-activation and ``sqrt(ntot)``
    normalizes its typical magnitude, so ``floor`` sets the
    signal-independent fraction (the Eq. 2 lumped part) and ``slope``
    how fast error tracks activation energy.  Data-dependent: the
    draw reads the pre-activation.
    """

    name = "state_dependent"
    data_dependent = True

    def __init__(self, floor: float = 0.5, slope: float = 1.0):
        if floor < 0.0 or slope < 0.0:
            raise ConfigError(
                f"floor and slope must be >= 0, got ({floor}, {slope})"
            )
        if floor == 0.0 and slope == 0.0:
            raise ConfigError("floor and slope cannot both be 0")
        self.floor = float(floor)
        self.slope = float(slope)

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        return total_error_std(ctx.config.enob, ctx.config.nmult, ctx.ntot)

    def sample(self, shape, streams, ctx) -> np.ndarray:
        pre = ctx.require_pre(self.name)
        draw = ctx.pool.get(shape, np.float64)
        streams.fill_standard_normal(draw)
        sigma = ctx.pool.get(shape, np.float64)
        np.absolute(pre, out=sigma)
        sigma *= self.slope / math.sqrt(ctx.ntot)
        sigma += self.floor
        sigma *= ctx.nominal_std
        draw *= sigma
        ctx.pool.release(sigma)
        return draw


@register_model
class TileCorrelated(ErrorModel):
    """Tile-level spatially correlated noise (Luquin et al.).

    Output channels are produced by physical tiles of ``tile_size``
    VMAC columns (the :class:`~repro.ams.tiled.TiledVMACConv2d`
    geometry); channels sharing a tile also share its ADC, references
    and thermal environment, so their errors correlate.  Per batch row:

        ``noise = std * (sqrt(rho) * z_tile + sqrt(1 - rho) * z_elem)``

    where ``z_tile`` is one standard-normal draw per tile, broadcast
    over the tile's channels (and all spatial positions), and
    ``z_elem`` is i.i.d. per element.  Every element keeps variance
    ``std**2``; ``rho`` is the intra-tile correlation coefficient.

    RNG streams: in serve mode both components come sequentially from
    the row's request generator (noise stays a pure function of the
    request stream); in batch mode ``z_tile`` draws from the dedicated
    ``"tile"`` extra stream — captured and restored by
    :mod:`repro.ckpt` checkpoints — and ``z_elem`` from the main one.
    """

    name = "tile_correlated"
    extra_streams = ("tile",)

    def __init__(self, tile_size: int = 8, rho: float = 0.5):
        if tile_size < 1:
            raise ConfigError(f"tile_size must be >= 1, got {tile_size}")
        if not 0.0 <= rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {rho}")
        self.tile_size = int(tile_size)
        self.rho = float(rho)

    def nominal_std(self, ctx: ErrorModelContext) -> float:
        return total_error_std(ctx.config.enob, ctx.config.nmult, ctx.ntot)

    def sample(self, shape, streams, ctx) -> np.ndarray:
        if len(shape) < 2:
            raise ConfigError(
                f"tile_correlated needs (batch, channels, ...) shapes, "
                f"got {shape}"
            )
        rows, channels = shape[0], shape[1]
        tiles = -(-channels // self.tile_size)
        c_tile = math.sqrt(self.rho)
        c_elem = math.sqrt(1.0 - self.rho)
        draw = ctx.pool.get(shape, np.float64)
        if streams.per_row:
            # Per request: tile commons first, then the i.i.d. field,
            # both from the row's own generator.
            for row, gen in zip(draw, streams.row_generators(rows)):
                common = gen.standard_normal(tiles)
                gen.standard_normal(out=row)
                self._combine(row, common, channels, c_tile, c_elem)
        else:
            tile_gen = streams.extra_generator("tile")
            commons = tile_gen.standard_normal((rows, tiles))
            streams.fill_standard_normal(draw)
            for row, common in zip(draw, commons):
                self._combine(row, common, channels, c_tile, c_elem)
        draw *= ctx.nominal_std
        return draw

    def _combine(self, row, common, channels, c_tile, c_elem) -> None:
        """``row = c_elem*row + c_tile*common`` broadcast per channel tile."""
        expanded = np.repeat(common, self.tile_size)[:channels]
        shaped = expanded.reshape((channels,) + (1,) * (row.ndim - 1))
        row *= c_elem
        row += c_tile * shaped
