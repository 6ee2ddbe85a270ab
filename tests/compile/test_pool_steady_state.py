"""Compiled runs allocate nothing at steady state.

After one warm-up run every intermediate — im2col columns, matmul
output, activation masks, noise draws — is a view into the model's
tape arena, and the shared buffer pool serves only the caller's
logits buffer, whose release it accepts.  The pool's counters cannot
see a temporary numpy allocates and frees inside one call, so
``tracemalloc`` bounds the run's peak as well.
"""

from __future__ import annotations

import numpy as np

from repro.compile import compile_model
from repro.serve import ModelSpec
from repro.tensor.pool import default_pool


class TestPoolSteadyState:
    def test_second_run_allocates_nothing(self, compile_bench, batch):
        spec = ModelSpec("ams_eval", enob=4.0).resolved(
            compile_bench.config
        )
        compiled = compile_model(compile_bench.build(spec))
        pool = default_pool()
        pool.release(compiled.run(batch))  # warm-up populates the pool
        pool.reset_stats()
        logits = compiled.run(batch)
        assert isinstance(logits, np.ndarray)
        pool.release(logits)
        stats = pool.stats
        assert stats.allocations == 0
        assert stats.bytes_allocated == 0
        assert stats.rejected == 0
        # Every pooled get was matched by an accepted release.
        assert stats.hits == stats.releases

    def test_second_run_makes_no_hidden_copy(
        self, compile_bench, batch, traced_peak
    ):
        """No buffered gather in the compiled kernels."""
        spec = ModelSpec("ams_eval", enob=4.0).resolved(
            compile_bench.config
        )
        compiled = compile_model(compile_bench.build(spec))
        images = np.concatenate([batch] * 8)
        pool = default_pool()
        pool.release(compiled.run(images))  # warm-up binds the tape
        peak = traced_peak(lambda: pool.release(compiled.run(images)))
        # A steady run allocates a few tens of KiB of Python objects; a
        # copy of the stem's columns (442 KiB at 64 images) does not fit.
        assert peak < 128 * 1024

    def test_predict_copies_out_of_the_pool(self, compile_bench, batch):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        compiled = compile_model(compile_bench.build(spec))
        first = compiled.predict(batch)
        second = compiled.predict(batch)
        # predict() returns fresh caller-owned arrays, not pool buffers,
        # so consecutive calls cannot alias each other.
        assert first is not second
        assert first.base is None
        assert np.array_equal(first, second)  # noise-free spec
