"""Im2col plan cache: geometry-keyed, batch-size independent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import (
    clear_plan_cache,
    compile_model,
    get_plan,
    plan_cache_stats,
)
from repro.serve import ModelSpec
from repro.tensor import Tensor, functional as F
from repro.utils import profiler


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCache:
    def test_same_geometry_same_plan_object(self):
        first = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        second = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        assert first is second
        stats = plan_cache_stats()
        assert stats["size"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_distinct_geometry_distinct_plan(self):
        base = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        assert get_plan(3, 8, 8, (3, 3), (2, 2), (1, 1)) is not base
        assert plan_cache_stats()["size"] == 2

    def test_reused_across_batches(self, compile_bench, batch):
        """Later runs at other batch sizes build zero new plans.

        Plans are keyed on per-sample geometry, so the conv steps keep
        reusing the plans built on the first run; the steps memoize the
        lookup too, so the global cache sees no further traffic at all.
        """
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        compiled = compile_model(compile_bench.build(spec))
        compiled.predict(batch)
        after_first = plan_cache_stats()
        assert after_first["misses"] > 0
        compiled.predict(batch[:3])
        compiled.predict(batch[:1])
        after_more = plan_cache_stats()
        assert after_more["misses"] == after_first["misses"]
        assert after_more["size"] == after_first["size"]

    def test_shared_across_compiled_models(self, compile_bench, batch):
        """Two compiled models with the same geometry share plans."""
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        first = compile_model(compile_bench.build(spec))
        first.predict(batch)
        after_first = plan_cache_stats()
        second = compile_model(compile_bench.build(spec))
        second.predict(batch)
        after_second = plan_cache_stats()
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]


class TestProfilerLabels:
    """Interpreted and compiled gathers share one plan, not one label.

    The benchmark's layer tables split ``train.im2col`` from
    ``compile.im2col`` on these op names, so neither path may record the
    other's label, nested or not.
    """

    def test_interpreted_conv_records_im2col(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        with profiler.profiled() as prof:
            F.conv2d(x, w, padding=1)
        ops = prof.records()
        assert ops["im2col"].calls == 1
        assert "compiled.im2col" not in ops

    def test_compiled_run_records_compiled_im2col(self, compile_bench, batch):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        compiled = compile_model(compile_bench.build(spec))
        compiled.predict(batch)
        with profiler.profiled() as prof:
            compiled.predict(batch)
        ops = prof.records()
        assert ops["compiled.im2col"].calls > 0
        assert "im2col" not in ops
