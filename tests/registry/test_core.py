"""ModelRegistry tier mechanics: LRU, quotas, pins, metrics.

These tests drive the registry with a lightweight fake workbench (no
training), so every tier transition is fast and the byte accounting is
exact.  The real-workbench behaviour — bit identity with the legacy
train-or-load path — lives in ``test_bit_identity.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.registry as registry_mod
from repro.errors import ConfigError
from repro.obs.metrics import MetricRegistry
from repro.registry import ModelRegistry, model_nbytes
from repro.serve.spec import ModelSpec


class FakeModel:
    """A model whose parameter footprint is exactly ``nbytes``."""

    def __init__(self, token: str, nbytes: int = 64):
        assert nbytes % 4 == 0
        self.token = token
        self._state = {"w": np.zeros(nbytes // 4, dtype=np.float32)}

    def state_dict(self):
        return self._state


class FakeBench:
    """Duck-typed workbench with a fake train-or-load path."""

    def __init__(self, config, nbytes: int = 64):
        self.config = config
        self.nbytes = nbytes
        self.builds = []

    def _train_or_load(self, spec):
        spec = spec.resolved(self.config)
        self.builds.append(spec.token())
        return FakeModel(spec.token(), self.nbytes), {"source": "fake"}


@pytest.fixture
def bench(registry_config, tmp_path):
    from dataclasses import replace

    return FakeBench(replace(registry_config, cache_dir=str(tmp_path)))


FP32 = ModelSpec("fp32")
QUANT = ModelSpec("quant", bw=8, bx=8)
AMS = ModelSpec("ams_eval", enob=4.0)


class TestScratchCacheDir:
    def test_namespaces_under_the_configured_cache(self, bench):
        import os

        from repro.registry import scratch_cache_dir

        scratch = scratch_cache_dir(bench.config, "explore-surrogate")
        assert scratch == os.path.join(
            bench.config.cache_dir, "explore-surrogate"
        )

    def test_rejects_escaping_labels(self, bench):
        import os

        from repro.registry import scratch_cache_dir

        for label in ("", ".", "..", f"a{os.sep}b"):
            with pytest.raises(ValueError):
                scratch_cache_dir(bench.config, label)


class TestValidation:
    def test_zero_capacity_rejected(self, bench):
        with pytest.raises(ConfigError, match="warm_max_entries"):
            ModelRegistry(bench, warm_max_entries=0)

    def test_negative_quota_rejected(self, bench):
        with pytest.raises(ConfigError, match="quota"):
            ModelRegistry(bench, tenant_quotas={"a": -1})


class TestWarmTier:
    def test_hit_reuses_the_resident_model(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        first, _ = registry.get(FP32)
        second, _ = registry.get(FP32)
        assert first is second
        assert bench.builds == ["fp32"]

    def test_lru_order_and_capacity(self, bench):
        registry = ModelRegistry(
            bench, warm_max_entries=2, metrics=MetricRegistry()
        )
        for spec in (FP32, QUANT, AMS):
            registry.get(spec)
        warm = [s.token() for s in registry.warm_specs()]
        assert warm == [
            QUANT.resolved(bench.config).token(),
            AMS.resolved(bench.config).token(),
        ]
        # Touching the LRU entry moves it to the end.
        registry.get(QUANT)
        warm = [s.token() for s in registry.warm_specs()]
        assert warm[-1] == QUANT.resolved(bench.config).token()

    def test_fresh_returns_private_copies(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        a, _ = registry.get(FP32, fresh=True)
        b, _ = registry.get(FP32, fresh=True)
        assert a is not b
        assert registry.warm_specs() == []  # fresh never populates warm

    def test_evict_demotes(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        registry.get(FP32)
        registry.get(QUANT)
        assert registry.evict(FP32) == 1
        assert [s.token() for s in registry.warm_specs()] == [
            QUANT.resolved(bench.config).token()
        ]
        assert registry.evict() == 1  # everything else
        assert registry.warm_specs() == []


class TestQuotas:
    def test_zero_quota_tenant_never_goes_warm(self, bench):
        metrics = MetricRegistry()
        registry = ModelRegistry(
            bench, tenant_quotas={"freeloader": 0}, metrics=metrics
        )
        model, meta = registry.get(FP32, tenant="freeloader")
        assert meta["source"] == "fake"  # still served...
        assert registry.warm_specs(tenant="freeloader") == []  # ...cold
        # Every lookup is a miss (or cold hit), never a warm hit.
        registry.get(FP32, tenant="freeloader")
        counters = metrics.snapshot()["counters"]
        assert not any(
            key.startswith("registry.tier_hit{") and "warm" in key
            for key in counters
        )

    def test_byte_quota_evicts_tenant_lru(self, bench):
        nbytes = model_nbytes(FakeModel("x", bench.nbytes))
        registry = ModelRegistry(
            bench,
            tenant_quotas={"small": nbytes},  # room for exactly one
            metrics=MetricRegistry(),
        )
        registry.get(FP32, tenant="small")
        registry.get(QUANT, tenant="small")
        warm = [s.token() for s in registry.warm_specs(tenant="small")]
        assert warm == [QUANT.resolved(bench.config).token()]
        assert registry.tenant_bytes("small") == nbytes

    def test_quota_smaller_than_model_never_admits(self, bench):
        registry = ModelRegistry(
            bench, tenant_quotas={"tiny": 8}, metrics=MetricRegistry()
        )
        model, _ = registry.get(FP32, tenant="tiny")
        assert model is not None
        assert registry.warm_specs(tenant="tiny") == []

    def test_tenants_are_isolated(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        a, _ = registry.get(FP32, tenant="a")
        b, _ = registry.get(FP32, tenant="b")
        assert a is not b  # one warm resident per tenant
        stats = registry.stats()
        assert stats["tenants"]["a"]["entries"] == 1
        assert stats["tenants"]["b"]["entries"] == 1


class TestPins:
    def test_pinned_eviction_lands_in_evictable_tier(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        registry.get(FP32)
        registry.pin(FP32)
        assert registry.evict(FP32) == 1
        stats = registry.stats()
        assert stats["warm"] == []
        assert stats["evictable"] == ["fp32"]
        registry.unpin(FP32)
        assert registry.stats()["evictable"] == []

    def test_last_unpin_drops(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        registry.get(FP32)
        registry.pin(FP32)
        registry.pin(FP32)
        registry.evict(FP32)
        registry.unpin(FP32)
        assert registry.stats()["evictable"] == ["fp32"]  # still pinned
        registry.unpin(FP32)
        assert registry.stats()["evictable"] == []


class TestMetrics:
    def test_tier_counters_cover_the_lifecycle(self, bench):
        metrics = MetricRegistry()
        registry = ModelRegistry(
            bench, warm_max_entries=1, metrics=metrics
        )
        registry.get(FP32)  # miss + promote
        registry.get(FP32)  # warm hit
        registry.get(QUANT)  # miss + promote + evicts fp32
        counters = metrics.snapshot()["counters"]
        assert counters["registry.tier_miss{tenant=default}"] == 2
        assert counters["registry.tier_hit{tenant=default,tier=warm}"] == 1
        assert counters["registry.tier_promote{tenant=default}"] == 2
        assert (
            counters["registry.tier_evict{tenant=default,tier=warm}"] == 1
        )

    def test_cold_hit_counted_when_artifact_on_disk(
        self, registry_config, tmp_path
    ):
        # A private cache: other suites share the session bench's, so
        # the first lookup here must be a true miss regardless of order.
        from dataclasses import replace

        from repro.experiments.common import Workbench

        bench = Workbench(
            replace(registry_config, cache_dir=str(tmp_path))
        )
        metrics = MetricRegistry()
        registry = ModelRegistry(bench, metrics=metrics)
        registry.get(FP32, fresh=True)  # trains (miss), writes artifact
        registry.get(FP32, fresh=True)  # loads from disk (cold hit)
        counters = metrics.snapshot()["counters"]
        assert counters["registry.tier_miss{tenant=default}"] == 1
        assert counters["registry.tier_hit{tenant=default,tier=cold}"] == 1

    def test_warm_gauges_track_occupancy(self, bench):
        metrics = MetricRegistry()
        registry = ModelRegistry(bench, metrics=metrics)
        registry.get(FP32)
        gauges = metrics.snapshot()["gauges"]
        assert gauges["registry.warm_entries{tenant=default}"] == 1
        assert gauges["registry.warm_bytes{tenant=default}"] == bench.nbytes


class TestWarmAsync:
    def test_resolves_and_promotes(self, bench):
        registry = ModelRegistry(bench, metrics=MetricRegistry())
        future = registry.warm_async(FP32)
        assert future.result(timeout=10.0) == "fp32"
        assert [s.token() for s in registry.warm_specs()] == ["fp32"]

    def test_deduplicated_per_token(self, bench):
        release = threading.Event()

        class SlowBench(FakeBench):
            def _train_or_load(self, spec):
                release.wait(timeout=10.0)
                return super()._train_or_load(spec)

        registry = ModelRegistry(
            SlowBench(bench.config), metrics=MetricRegistry()
        )
        first = registry.warm_async(FP32)
        second = registry.warm_async(FP32)
        assert first is second  # the race joins the in-flight warm-up
        release.set()
        assert first.result(timeout=10.0) == "fp32"


class TestModuleDefault:
    def test_get_requires_configure(self, bench, monkeypatch):
        monkeypatch.setattr(registry_mod, "_DEFAULT", None)
        with pytest.raises(ConfigError, match="configure"):
            registry_mod.get(FP32)

    def test_configure_installs_default(self, bench, monkeypatch):
        monkeypatch.setattr(registry_mod, "_DEFAULT", None)
        installed = registry_mod.configure(bench, metrics=MetricRegistry())
        assert registry_mod.current_registry() is installed
        model, _ = registry_mod.get(FP32)
        assert isinstance(model, FakeModel)
