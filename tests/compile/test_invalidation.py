"""Staleness handling: fingerprints, memoized weights, cached compiles,
and the counted interpreter fallback."""

from __future__ import annotations

import gc
import weakref

import numpy as np

import repro.compile as rc
from repro.compile import disabled, maybe_compiled, model_fingerprint
from repro.obs import deprecation
from repro.obs.metrics import default_registry
from repro.optim.sgd import SGD
from repro.quant.qmodules import QuantConv2d
from repro.serve import ModelSpec
from repro.tensor.tensor import Tensor, no_grad


def _fit_one_step(model, images):
    model.train()
    logits = model(Tensor(images))
    loss = (logits * logits).sum() * (1.0 / logits.size)
    loss.backward()
    optimizer = SGD(model.parameters(), lr=1e-3)
    optimizer.step()
    model.zero_grad()


class TestQuantizedWeightMemo:
    def test_memoized_under_no_grad(self):
        layer = QuantConv2d(3, 4, 3, bw=8)
        with no_grad():
            first = layer.quantized_weight()
            second = layer.quantized_weight()
        assert first is second

    def test_fresh_under_grad_mode(self):
        layer = QuantConv2d(3, 4, 3, bw=8)
        first = layer.quantized_weight()
        second = layer.quantized_weight()
        assert first is not second
        # The STE graph must survive for training.
        assert first._parents

    def test_version_bump_invalidates(self):
        layer = QuantConv2d(3, 4, 3, bw=8)
        with no_grad():
            first = layer.quantized_weight()
            layer.weight.version += 1
            second = layer.quantized_weight()
        assert first is not second

    def test_data_reassignment_invalidates(self):
        layer = QuantConv2d(3, 4, 3, bw=8)
        with no_grad():
            first = layer.quantized_weight()
            layer.weight.data = layer.weight.data * np.float32(2.0)
            second = layer.quantized_weight()
        assert first is not second
        assert not np.array_equal(first.data, second.data)


class TestCompiledCacheInvalidation:
    def test_cached_until_weights_move(self, compile_bench, batch):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(
            compile_bench.config
        )
        model = compile_bench.build(spec)
        model.eval()
        compiled = maybe_compiled(model)
        assert compiled is not None
        assert maybe_compiled(model) is compiled  # fingerprint hit

        before = model_fingerprint(model)
        _fit_one_step(model, batch)
        model.eval()
        assert model_fingerprint(model) != before
        recompiled = maybe_compiled(model)
        assert recompiled is not None and recompiled is not compiled
        # The recompiled executor tracks the updated weights.
        with no_grad():
            expected = np.array(model(Tensor(batch)).data, copy=True)
        assert np.array_equal(expected, recompiled.predict(batch))

    def test_train_mode_bumps_generation(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        before = model_fingerprint(model)
        model.train()
        assert model_fingerprint(model) != before

    def test_train_frees_the_stale_executor(self, compile_bench, batch):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        model.eval()
        compiled = maybe_compiled(model)
        compiled.predict(batch)
        arena = compiled.arena_bytes
        assert arena > 0
        stale = weakref.ref(compiled)
        del compiled
        registry = default_registry()
        recompiled = registry.counter("compile.recompiled")
        recompiles = recompiled.value
        gc.collect()
        tape_bytes = registry.gauge("compile.tape_bytes").value

        model.train()
        # Freed by reference counting alone, before any collection.
        assert stale() is None
        assert registry.gauge("compile.tape_bytes").value <= tape_bytes - arena

        model.eval()
        assert maybe_compiled(model) is not None
        assert recompiled.value == recompiles + 1

    def test_load_state_dict_invalidates(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        before = model_fingerprint(model)
        model.load_state_dict(model.state_dict())
        assert model_fingerprint(model) != before

    def test_disabled_returns_none(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        with disabled():
            assert maybe_compiled(model) is None
        assert maybe_compiled(model) is not None

    def test_load_state_dict_recompiles_in_serve_lru(self, compile_bench):
        """A model hot in the serving warm tier recompiles after new weights.

        The in-process executor serves the registry's warm resident and
        never evicts a spec it keeps serving — so the *only* thing
        standing between a ``load_state_dict`` (checkpoint swap, hot
        reload) and stale predictions is the Parameter.version
        fingerprint.
        """
        from repro.serve import InProcessExecutor

        spec = ModelSpec("fp32").resolved(compile_bench.config)
        images = compile_bench.data.val.images[:4]
        with InProcessExecutor(compile_bench) as executor:
            executor.warm(spec)

            def served():
                return executor.submit_batch(
                    spec, images, range(len(images))
                ).result(60.0)

            first = served()
            model, _meta = executor.registry.get(spec)  # the warm resident
            compiled = maybe_compiled(model)
            assert compiled is not None
            assert maybe_compiled(model) is compiled  # hot: fingerprint hit

            # Swap in visibly different weights through load_state_dict —
            # the public checkpoint-restore path, which bumps every
            # Parameter.version.
            state = model.state_dict()
            fc_key = next(k for k in state if k.endswith("fc.0.weight"))
            state[fc_key] = state[fc_key] * np.float32(-1.0)
            before = model_fingerprint(model)
            model.load_state_dict(state)
            model.eval()
            assert model_fingerprint(model) != before

            second = served()
            recompiled = maybe_compiled(model)
            assert recompiled is not None and recompiled is not compiled
            # The served logits must track the new weights, not the old
            # tape.
            with disabled():
                expected = served()
        for served_row, fresh, old in zip(second, expected, first):
            assert np.array_equal(served_row, fresh)
            assert not np.array_equal(served_row, old)


class TestNoGradFastPath:
    def test_result_skips_graph_bookkeeping(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        tracked = a + b
        assert tracked._parents
        with no_grad():
            untracked = a + b
        assert untracked._parents == ()
        assert not untracked.requires_grad
        assert np.array_equal(tracked.data, untracked.data)


class TestInterpreterFallbackInstrumentation:
    def test_disabled_fallback_is_counted_not_warned(self, compile_bench):
        import warnings

        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="disabled"
        )
        before = counter.value
        with rc.disabled(), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert maybe_compiled(model) is None
        assert counter.value == before + 1

    def test_unsupported_model_warns_once_and_counts(self):
        import warnings

        class NotAModule:
            pass

        deprecation.reset("compile.interpreter_fallback.not_a_module")
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="not_a_module"
        )
        before = counter.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert maybe_compiled(NotAModule()) is None
            assert maybe_compiled(NotAModule()) is None
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1  # warned once per process, per reason
        assert "interpreter_fallback" in str(runtime[0].message)
        assert counter.value == before + 2  # but every fallback counted

    def test_compile_error_fallback_counts_cached_hits_too(self):
        import warnings

        from repro.nn.activation import ReLU

        deprecation.reset("compile.interpreter_fallback.compile_error")
        model = ReLU()  # a Module with no lowering
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="compile_error"
        )
        failed = default_registry().counter("compile.compile_failed")
        before, failed_before = counter.value, failed.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert maybe_compiled(model) is None
            assert maybe_compiled(model) is None  # cached failure
        assert counter.value == before + 2
        assert failed.value == failed_before + 1  # compiled only once
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1
