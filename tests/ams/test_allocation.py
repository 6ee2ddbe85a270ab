"""Tests for heterogeneous per-layer ENOB allocation."""

import pytest

from repro.ams.allocation import (
    LayerBudget,
    allocation_energy,
    allocation_variance,
    analytic_allocation,
    greedy_allocation,
    set_layer_enobs,
    uniform_energy,
    uniform_variance,
)
from repro.ams.models import AMSErrorInjector
from repro.ams.vmac import VMACConfig, total_error_std
from repro.errors import ConfigError
from repro.models import AMSFactory, resnet_small
from repro.quant import QuantConfig


def example_layers():
    return [
        LayerBudget("wide", ntot=576, outputs=1024),
        LayerBudget("mid", ntot=144, outputs=4096),
        LayerBudget("head", ntot=64, outputs=20),
    ]


class TestLayerBudget:
    def test_macs(self):
        layer = LayerBudget("l", ntot=27, outputs=100)
        assert layer.macs == 2700

    def test_variance_matches_eq2(self):
        layer = LayerBudget("l", ntot=144, outputs=10)
        expected = 10 * total_error_std(8.0, 8, 144) ** 2
        assert layer.error_variance(8.0, 8) == pytest.approx(expected)

    def test_sensitivity_scales_variance(self):
        base = LayerBudget("l", ntot=144, outputs=10)
        weighted = LayerBudget("l", ntot=144, outputs=10, sensitivity=3.0)
        assert weighted.error_variance(8.0, 8) == pytest.approx(
            3 * base.error_variance(8.0, 8)
        )


class TestAnalyticAllocation:
    def test_meets_budget_exactly(self):
        layers = example_layers()
        budget = uniform_variance(layers, 12.0, 8)
        enobs = analytic_allocation(layers, 8, budget)
        assert allocation_variance(layers, enobs, 8) == pytest.approx(
            budget, rel=1e-6
        )

    def test_beats_uniform_energy_in_thermal_regime(self):
        """At equal variance, the Lagrangian optimum cannot cost more
        than uniform when all ENOBs are thermal-limited."""
        layers = example_layers()
        budget = uniform_variance(layers, 13.0, 8)
        enobs = analytic_allocation(layers, 8, budget)
        if all(e > 10.5 for e in enobs.values()):
            assert allocation_energy(layers, enobs, 8) <= uniform_energy(
                layers, 13.0, 8
            ) * (1 + 1e-9)

    def test_identical_layers_get_identical_enobs(self):
        layers = [
            LayerBudget("a", ntot=100, outputs=50),
            LayerBudget("b", ntot=100, outputs=50),
        ]
        enobs = analytic_allocation(layers, 8, 1.0)
        assert enobs["a"] == pytest.approx(enobs["b"])

    def test_validation(self):
        with pytest.raises(ConfigError):
            analytic_allocation(example_layers(), 8, 0.0)
        with pytest.raises(ConfigError):
            analytic_allocation([], 8, 1.0)


class TestGreedyAllocation:
    def test_meets_budget(self):
        layers = example_layers()
        budget = uniform_variance(layers, 8.0, 8)
        enobs = greedy_allocation(layers, 8, budget)
        assert allocation_variance(layers, enobs, 8) <= budget

    def test_sensitive_layer_gets_more_bits(self):
        from dataclasses import replace

        layers = example_layers()
        sensitive = [
            replace(l, sensitivity=100.0) if l.name == "head" else l
            for l in layers
        ]
        budget = uniform_variance(sensitive, 8.0, 8)
        enobs = greedy_allocation(sensitive, 8, budget)
        plain = greedy_allocation(
            layers, 8, uniform_variance(layers, 8.0, 8)
        )
        assert enobs["head"] > plain["head"]

    def test_unreachable_budget_rejected(self):
        layers = example_layers()
        with pytest.raises(ConfigError):
            greedy_allocation(layers, 8, 1e-30, enob_max=6.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            greedy_allocation(example_layers(), 8, -1.0)


class TestSetLayerEnobs:
    def _model(self):
        return resnet_small(
            AMSFactory(QuantConfig(8, 8), VMACConfig(enob=8, nmult=8), seed=0),
            num_classes=4,
        )

    def test_assigns_in_order(self):
        model = self._model()
        injectors = [
            m for m in model.modules() if isinstance(m, AMSErrorInjector)
        ]
        enobs = [5.0 + 0.5 * i for i in range(len(injectors))]
        count = set_layer_enobs(model, enobs)
        assert count == len(injectors)
        for injector, enob in zip(injectors, enobs):
            assert injector.config.enob == enob
            assert injector.error_std == pytest.approx(
                total_error_std(enob, 8, injector.ntot)
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            set_layer_enobs(self._model(), [8.0])
