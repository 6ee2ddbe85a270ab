"""Additional workbench behaviours: eval-only paths and noise tagging."""

import numpy as np

from repro.ams import AMSErrorInjector
from repro.serve import ModelSpec

AMS = ModelSpec("ams", enob=4.0)


class TestNoiseTagging:
    def test_same_tag_same_noise_stream(self, micro_bench):
        """Rebuilding a tagged model reproduces its noise exactly, so
        repeated experiment runs report identical numbers."""
        m1 = micro_bench.build(AMS, noise_tag="t")
        m2 = micro_bench.build(AMS, noise_tag="t")
        i1 = next(m for m in m1.modules() if isinstance(m, AMSErrorInjector))
        i2 = next(m for m in m2.modules() if isinstance(m, AMSErrorInjector))
        from repro.tensor.tensor import Tensor

        x = Tensor(np.zeros((2, 2), np.float32))
        i1.eval()
        i2.eval()
        np.testing.assert_array_equal(i1(x).data, i2(x).data)

    def test_different_tags_different_noise(self, micro_bench):
        m1 = micro_bench.build(AMS, noise_tag="a")
        m2 = micro_bench.build(AMS, noise_tag="b")
        i1 = next(m for m in m1.modules() if isinstance(m, AMSErrorInjector))
        i2 = next(m for m in m2.modules() if isinstance(m, AMSErrorInjector))
        from repro.tensor.tensor import Tensor

        x = Tensor(np.zeros((4, 4), np.float32))
        i1.eval()
        i2.eval()
        assert not np.array_equal(i1(x).data, i2(x).data)


class TestInjectorWiring:
    def test_eval_only_model_injects_in_eval(self, micro_bench):
        model, _ = micro_bench.registry.get(
            ModelSpec("ams_eval", enob=3.0), fresh=True
        )
        model.eval()
        injectors = [
            m for m in model.modules() if isinstance(m, AMSErrorInjector)
        ]
        assert injectors and all(i.active for i in injectors)

    def test_retrained_model_last_layer_training_policy(self, micro_bench):
        model, _ = micro_bench.registry.get(AMS, fresh=True)
        fc_injector = model.fc[-1]
        assert isinstance(fc_injector, AMSErrorInjector)
        assert not fc_injector.policy.in_training
