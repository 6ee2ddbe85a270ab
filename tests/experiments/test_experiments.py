"""End-to-end tests of the per-figure experiment harnesses.

Uses the session-scoped micro workbench, so each harness actually
trains/evaluates (at microscopic scale) and its result structure is
checked against what the paper's artifact requires.
"""

import numpy as np
import pytest

from repro.experiments import fig4, fig5, fig6, fig7, fig8, table1, table2
from repro.experiments import ablations, alloc, freelunch, pvt
from repro.experiments.registry import (
    DEFAULT_ORDER,
    EXPERIMENTS,
    get_experiment,
    run_experiment,
)
from repro.errors import ConfigError


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == set(DEFAULT_ORDER)

    def test_get_unknown(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_modules_expose_run(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert module.EXPERIMENT_ID in DEFAULT_ORDER


class TestFig7:
    """Fig. 7 needs no training; assert its claims fully."""

    def test_structure_and_claims(self, micro_bench):
        result = fig7.run(micro_bench)
        assert result.experiment_id == "fig7"
        assert result.extras["num_violations"] == 0
        assert result.extras["energy_ratio_per_bit"] == pytest.approx(
            4.0, rel=0.01
        )
        assert 180 < result.extras["best_fom_db"] < 192
        assert len(result.rows) == 10


class TestTable1:
    def test_rows_and_ordering(self, micro_bench):
        result = table1.run(micro_bench)
        labels = [row[0] for row in result.rows]
        assert labels[0] == "FP32"
        assert "BW=8, BX=8" in labels
        assert len(result.rows) == len(table1.CONFIGS)
        accuracies = result.extras["accuracies"]
        # At micro scale we only require sane probabilities and that the
        # catastrophic config is worst or near-worst.
        assert all(0.0 <= a <= 1.0 for a in accuracies.values())


class TestFig4:
    def test_series_present(self, micro_bench):
        result = fig4.run(micro_bench)
        assert len(result.rows) == len(micro_bench.config.enob_sweep)
        assert set(result.extras["eval_losses"]) == set(
            result.extras["retrain_losses"]
        )
        # enob, eval loss + std, retrain loss + std, recovery
        assert all(len(row) == 6 for row in result.rows)

    def test_low_enob_hurts_eval_only(self, micro_bench):
        """At micro scale the trend can be noisy; allow a small slack
        (the full-profile run in EXPERIMENTS.md asserts the real gap)."""
        result = fig4.run(micro_bench)
        losses = result.extras["eval_losses"]
        low = losses[str(min(float(k) for k in losses))]
        high = losses[str(max(float(k) for k in losses))]
        assert low >= high - 0.1


class TestFig5:
    def test_cutoffs_reported(self, micro_bench):
        result = fig5.run(micro_bench)
        assert "cutoff_1pct" in result.extras
        assert "cutoff_within_std" in result.extras
        assert len(result.rows) == len(micro_bench.config.enob_sweep)


class TestTable2:
    def test_all_freeze_rows(self, micro_bench):
        result = table2.run(micro_bench)
        labels = [row[0] for row in result.rows]
        assert labels == ["None", "Conv", "BN", "FC", "BN and FC"]
        assert set(result.extras["losses"]) == set(labels)
        assert result.extras["enob"] == micro_bench.config.table2_enob


class TestFig6:
    def test_probe_means_collected(self, micro_bench):
        result = fig6.run(micro_bench)
        assert result.extras["total_conv_layers"] == 9
        assert 0 <= result.extras["pushed_layers"] <= 9
        # one row per probed layer (9 convs + fc)
        assert len(result.rows) == 10
        # label + FP32 + quantized + one column per AMS noise level
        width = 3 + len(micro_bench.config.fig6_enobs)
        assert all(len(row) == width for row in result.rows)


class TestFig8:
    def test_grid_and_targets(self, micro_bench):
        result = fig8.run(micro_bench)
        assert len(result.rows) == len(fig8.NMULTS)
        targets = result.extras["targets"]
        assert targets, "at least one loss target must be feasible"
        for entry in targets:
            assert entry["emac_pj"] > 0
            # level-curve parallelism in the thermal region
            assert entry["parallel_spread"] < 0.05

    def test_curve_is_monotone(self, micro_bench):
        curve = fig8.build_curve(micro_bench)
        assert (np.diff(curve.losses) <= 1e-12).all()


class TestAblations:
    def test_all_studies_present(self, micro_bench):
        result = ablations.run(micro_bench)
        assert result.extras["tiled_rms_ratio"] == pytest.approx(1.0, abs=0.6)
        assert result.extras["recycling"]["reduction_factor"] > 1.0
        assert 0 < result.extras["vref_best_alpha"] <= 1.0
        assert len(result.extras["partitioning"]) == 3


class TestFreeLunch:
    def test_all_methods_reported(self, micro_bench):
        result = freelunch.run(micro_bench)
        labels = [row[0] for row in result.rows]
        assert labels[0] == "eval only"
        assert "BN recalibration" in labels
        assert any(label.startswith("ensemble k=") for label in labels)
        assert labels[-1] == "retrained (paper's method)"
        assert set(result.extras["losses"]) == set(labels)

    def test_ensemble_bits_column(self, micro_bench):
        result = freelunch.run(micro_bench)
        k4 = next(r for r in result.rows if r[0] == "ensemble k=4")
        assert k4[3] == "+1.00b"  # 0.5 * log2(4)


class TestAlloc:
    def test_three_allocations_measured(self, micro_bench):
        result = alloc.run(micro_bench)
        assert len(result.rows) == 10
        for key in (
            "uniform_accuracy",
            "naive_accuracy",
            "per_activation_accuracy",
            "empirical_accuracy",
        ):
            assert 0.0 <= result.extras[key] <= 1.0
        assert len(result.extras["sensitivities"]) == 10


class TestPvt:
    def test_population_rows(self, micro_bench):
        result = pvt.run(micro_bench)
        assert len(result.rows) == len(pvt.VARIATIONS)
        for row in result.rows:
            label, raw_mean, raw_worst, recal_mean, recal_worst = row
            assert raw_worst <= raw_mean + 1e-9
            assert recal_worst <= recal_mean + 1e-9
        for pop in result.extras["populations"].values():
            assert len(pop["raw"]) == len(pop["recalibrated"]) == pvt.DEVICES


class TestRunExperiment:
    def test_dispatch(self, micro_bench):
        result = run_experiment("fig7", micro_bench)
        assert result.experiment_id == "fig7"
