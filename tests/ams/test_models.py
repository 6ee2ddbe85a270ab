"""Tests for the pluggable error-model interface, registry and zoo."""

import math

import numpy as np
import pytest

from repro.ams.models import (
    AMSErrorInjector,
    ErrorModel,
    ErrorModelContext,
    InjectionPolicy,
    LumpedGaussian,
    NoiseStreams,
    get_model,
    list_models,
    make_injector,
    model_params,
    register_model,
)
from repro.ams.partitioning import PartitionScheme, partitioned_error_std
from repro.ams.vmac import VMACConfig, total_error_std, vmac_lsb
from repro.ams.zoo import TileCorrelated
from repro.errors import ConfigError
from repro.tensor.pool import default_pool
from repro.utils.rng import point_seed_sequence

CONFIG = VMACConfig(enob=5.0, nmult=8)
NTOT = 72


def injector(model="lumped_gaussian", params=None, seed=0, **kwargs):
    return make_injector(
        CONFIG,
        NTOT,
        rng=np.random.default_rng(seed),
        model=model,
        model_params=params,
        **kwargs,
    )


def draw(inj, shape=(4, 6, 3, 3), seed=None):
    """One released float64 noise sample from ``inj`` (copied out)."""
    if seed is not None:
        inj.reseed(seed)
    pre = np.linspace(-2.0, 2.0, int(np.prod(shape)), dtype=np.float64)
    pre = pre.reshape(shape)
    pool = default_pool()
    noise = inj.sample_noise(shape, np.float64, pool, pre=pre)
    out = noise.copy()
    pool.release(noise)
    return out


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_models()
        for expected in (
            "lumped_gaussian",
            "per_vmac",
            "partitioned",
            "reference_scaled",
            "state_dependent",
            "tile_correlated",
        ):
            assert expected in names

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'lumped_gaussian'"):
            get_model("lumped_gausian")

    def test_unknown_param_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'tile_size'"):
            get_model("tile_correlated", {"tile_sizes": 4})

    def test_param_values_validated(self):
        with pytest.raises(ConfigError, match="alpha must be in"):
            get_model("reference_scaled", {"alpha": 0.0})
        with pytest.raises(ConfigError, match="rho must be in"):
            get_model("tile_correlated", {"rho": 1.5})
        with pytest.raises(ConfigError, match="cannot both be 0"):
            get_model("state_dependent", {"floor": 0.0, "slope": 0.0})

    def test_model_params_reflect_signature(self):
        assert model_params(TileCorrelated) == ["tile_size", "rho"]
        assert model_params(LumpedGaussian) == []

    def test_register_rejects_unnamed_and_duplicates(self):
        class Nameless(ErrorModel):
            pass

        with pytest.raises(ConfigError, match="non-empty 'name'"):
            register_model(Nameless)

        class Impostor(ErrorModel):
            name = "lumped_gaussian"

        with pytest.raises(ConfigError, match="already registered"):
            register_model(Impostor)

    def test_describe_is_first_doc_line(self):
        model = get_model("per_vmac")
        assert model.describe().startswith("Per-VMAC uniform")


class TestLumpedBitIdentity:
    """The reference model reproduces the historical injector's draws."""

    def _legacy_sample(self, shape, dtype, rng, error_std):
        # The pre-registry injector's exact op sequence.
        draw64 = rng.standard_normal(size=shape).astype(np.float64)
        draw64 *= error_std
        return draw64.astype(dtype)

    def test_whole_buffer_draws_match(self):
        inj = injector(seed=7)
        legacy_rng = np.random.default_rng(7)
        expected = self._legacy_sample(
            (3, 5), np.float32, legacy_rng, inj.error_std
        )
        pool = default_pool()
        got = inj.sample_noise((3, 5), np.float32, pool)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expected)
        pool.release(got)

    def test_per_row_draws_match_row_generators(self):
        inj = injector(seed=3)
        seqs = point_seed_sequence(11, 0).spawn(4)
        inj.set_row_rngs([np.random.default_rng(s) for s in seqs])
        pool = default_pool()
        got = inj.sample_noise((4, 6), np.float64, pool)
        for row, seq in zip(got, seqs):
            rng = np.random.default_rng(seq)
            expected = rng.standard_normal(6) * inj.error_std
            np.testing.assert_array_equal(row, expected)
        pool.release(got)

    def test_error_std_matches_eq2(self):
        inj = injector()
        assert inj.error_std == pytest.approx(
            total_error_std(CONFIG.enob, CONFIG.nmult, NTOT)
        )


class TestZooStatistics:
    def _empirical(self, name, params=None, shape=(256, 16, 2, 2)):
        inj = injector(name, params, seed=5)
        return inj, draw(inj, shape)

    def test_per_vmac_matches_declared_std(self):
        inj, noise = self._empirical("per_vmac")
        n_vmac = -(-NTOT // CONFIG.nmult)
        lsb = vmac_lsb(CONFIG.enob, CONFIG.nmult)
        expected = math.sqrt(n_vmac) * lsb / math.sqrt(12.0)
        assert inj.error_std == pytest.approx(expected)
        assert noise.std() == pytest.approx(expected, rel=0.05)
        assert abs(noise.mean()) < 0.2 * expected
        # Bounded support: a sum of n_vmac uniforms cannot exceed
        # n_vmac * lsb / 2 in magnitude.
        assert np.abs(noise).max() <= n_vmac * lsb / 2 + 1e-12

    def test_partitioned_uses_partition_math(self):
        inj, noise = self._empirical("partitioned", {"nw": 2, "nx": 2})
        scheme = PartitionScheme(CONFIG, nw=2, nx=2)
        expected = partitioned_error_std(scheme, NTOT)
        assert inj.error_std == pytest.approx(expected)
        assert noise.std() == pytest.approx(expected, rel=0.05)

    def test_reference_scaled_shrinks_and_clips(self):
        inj = injector("reference_scaled", {"alpha": 0.5}, seed=9)
        assert inj.error_std == pytest.approx(
            0.5 * total_error_std(CONFIG.enob, CONFIG.nmult, NTOT)
        )
        shape = (2, 8)
        pre = np.zeros(shape)
        pre[0, 0] = NTOT  # far beyond the reduced full scale
        pool = default_pool()
        noise = inj.sample_noise(shape, np.float64, pool, pre=pre)
        # The clipping residual dominates; the additive Gaussian rides
        # on top with std == error_std.
        clip_residual = 0.5 * NTOT - NTOT
        assert noise[0, 0] == pytest.approx(
            clip_residual, abs=8 * inj.error_std
        )
        assert np.abs(noise[1]).max() < 20 * inj.error_std
        pool.release(noise)

    def test_reference_scaled_requires_pre(self):
        inj = injector("reference_scaled")
        with pytest.raises(ConfigError, match="data-dependent"):
            inj.sample_noise((2, 3), np.float64, default_pool(), pre=None)

    def test_state_dependent_scales_with_activation(self):
        inj = injector("state_dependent", {"floor": 0.5, "slope": 1.0},
                       seed=13)
        shape = (2000,)
        pool = default_pool()
        quiet = inj.sample_noise(
            shape, np.float64, pool, pre=np.zeros(shape)
        ).copy()
        pool.release(pool.get(shape, np.float64))  # balance pool stats
        loud_pre = np.full(shape, 4.0 * math.sqrt(NTOT))
        loud = inj.sample_noise(shape, np.float64, pool, pre=loud_pre)
        assert quiet.std() == pytest.approx(0.5 * inj.error_std, rel=0.1)
        assert loud.std() == pytest.approx(4.5 * inj.error_std, rel=0.1)
        pool.release(loud)

    def test_tile_correlated_has_intra_tile_correlation(self):
        inj = injector(
            "tile_correlated", {"tile_size": 4, "rho": 0.8}, seed=21
        )
        noise = draw(inj, (4000, 8))
        same_tile = np.corrcoef(noise[:, 0], noise[:, 1])[0, 1]
        cross_tile = np.corrcoef(noise[:, 0], noise[:, 4])[0, 1]
        assert same_tile == pytest.approx(0.8, abs=0.05)
        assert abs(cross_tile) < 0.08
        assert noise.std() == pytest.approx(inj.error_std, rel=0.05)

    def test_tile_correlated_rejects_flat_shapes(self):
        inj = injector("tile_correlated")
        with pytest.raises(ConfigError, match="shapes"):
            inj.sample_noise((16,), np.float64, default_pool())


class TestRowStreamPurity:
    """Per-row draws depend only on that row's generator (serve mode)."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("lumped_gaussian", None),
            ("per_vmac", None),
            ("partitioned", None),
            ("reference_scaled", None),
            ("state_dependent", None),
            ("tile_correlated", {"tile_size": 4, "rho": 0.5}),
        ],
    )
    def test_batch_composition_independent(self, name, params):
        shape = (3, 8, 2, 2)
        pre = np.linspace(-1.5, 1.5, int(np.prod(shape)))
        pre = pre.reshape(shape)
        seqs = point_seed_sequence(17, 0).spawn(3)

        def row_noise(rows):
            inj = injector(name, params, seed=0)
            inj.set_row_rngs(
                [np.random.default_rng(seqs[r]) for r in rows]
            )
            sub_shape = (len(rows),) + shape[1:]
            pool = default_pool()
            noise = inj.sample_noise(
                sub_shape, np.float64, pool, pre=pre[list(rows)]
            )
            out = noise.copy()
            pool.release(noise)
            return out

        full = row_noise((0, 1, 2))
        solo = row_noise((2,))
        np.testing.assert_array_equal(full[2], solo[0])

    def test_row_count_mismatch_raises(self):
        inj = injector()
        inj.set_row_rngs([np.random.default_rng(0)])
        with pytest.raises(ConfigError, match="row generators"):
            inj.sample_noise((2, 4), np.float64, default_pool())


class TestInjectorHost:
    def test_set_config_recomputes_through_model(self):
        inj = injector("per_vmac")
        before = inj.error_std
        inj.set_config(VMACConfig(enob=7.0, nmult=CONFIG.nmult))
        n_vmac = -(-NTOT // CONFIG.nmult)
        expected = (
            math.sqrt(n_vmac) * vmac_lsb(7.0, CONFIG.nmult) / math.sqrt(12.0)
        )
        assert inj.error_std == pytest.approx(expected)
        assert inj.error_std < before

    def test_reseed_matches_legacy_assignment(self):
        inj = injector(seed=1)
        child = point_seed_sequence(42, 3).spawn(1)[0]
        inj.reseed(child)
        expected = np.random.default_rng(child).standard_normal(8)
        np.testing.assert_array_equal(inj.rng.standard_normal(8), expected)

    def test_rng_streams_names_main_and_extras(self):
        plain = injector()
        assert set(plain.rng_streams()) == {""}
        tiled = injector("tile_correlated")
        assert set(tiled.rng_streams()) == {"", "tile"}

    def test_reseed_is_deterministic_for_extras(self):
        a = injector("tile_correlated", seed=1)
        b = injector("tile_correlated", seed=2)
        a.reseed(123)
        b.reseed(123)
        np.testing.assert_array_equal(draw(a, (4, 8)), draw(b, (4, 8)))

    def test_model_params_reject_instance(self):
        with pytest.raises(ConfigError, match="model_params"):
            AMSErrorInjector(
                CONFIG, NTOT, model=LumpedGaussian(), model_params={"x": 1}
            )

    def test_repr_names_model(self):
        assert "model='per_vmac'" in repr(injector("per_vmac"))


class TestNoiseStreams:
    def test_chunked_rows_equal_whole_buffer(self):
        seq = np.random.SeedSequence(5)
        whole = np.empty((4, 6))
        NoiseStreams(np.random.default_rng(seq)).fill_standard_normal(whole)
        rng = np.random.default_rng(seq)
        chunked = np.empty((4, 6))
        NoiseStreams(rng, row_rngs=[rng] * 4).fill_standard_normal(chunked)
        np.testing.assert_array_equal(whole, chunked)

    def test_extra_generator_unknown_name(self):
        streams = NoiseStreams(np.random.default_rng(0))
        with pytest.raises(ConfigError, match="extra RNG stream"):
            streams.extra_generator("tile")

    def test_require_pre_names_model(self):
        ctx = ErrorModelContext(CONFIG, NTOT)
        with pytest.raises(ConfigError, match="'state_dependent'"):
            ctx.require_pre("state_dependent")


class TestPolicyStillWorks:
    def test_disabled_policy_is_inactive(self):
        inj = injector(policy=InjectionPolicy.disabled())
        inj.eval()
        assert not inj.active
