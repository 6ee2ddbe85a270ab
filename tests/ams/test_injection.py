"""Tests for the lumped AMS error injector."""

import numpy as np
import pytest

from repro.ams.models import AMSErrorInjector, InjectionPolicy
from repro.ams.vmac import VMACConfig, total_error_std
from repro.errors import ConfigError
from repro.tensor.tensor import Tensor


def injector(enob=8.0, nmult=8, ntot=64, policy=None, seed=0):
    return AMSErrorInjector(
        VMACConfig(enob=enob, nmult=nmult),
        ntot=ntot,
        policy=policy or InjectionPolicy(),
        rng=np.random.default_rng(seed),
        model="lumped_gaussian",
    )


class TestInjectionPolicy:
    def test_defaults_inject_everywhere(self):
        policy = InjectionPolicy()
        assert policy.in_training and policy.in_eval

    def test_eval_only(self):
        policy = InjectionPolicy.eval_only()
        assert not policy.in_training and policy.in_eval

    def test_disabled(self):
        policy = InjectionPolicy.disabled()
        assert not policy.in_training and not policy.in_eval


class TestInjector:
    def test_error_std_matches_eq2(self):
        inj = injector(enob=9.0, nmult=16, ntot=144)
        assert inj.error_std == pytest.approx(total_error_std(9.0, 16, 144))

    def test_empirical_noise_std(self):
        inj = injector(enob=8.0, nmult=8, ntot=128)
        x = Tensor(np.zeros((64, 64), np.float32))
        inj.train()
        out = inj(x)
        measured = out.data.std()
        assert measured == pytest.approx(inj.error_std, rel=0.05)

    def test_noise_is_zero_mean(self):
        inj = injector(ntot=512)
        x = Tensor(np.zeros((128, 128), np.float32))
        out = inj(x)
        assert abs(out.data.mean()) < 3 * inj.error_std / np.sqrt(x.size)

    def test_fresh_noise_each_forward(self):
        inj = injector()
        x = Tensor(np.zeros((4, 4), np.float32))
        out1 = inj(x).data.copy()
        out2 = inj(x).data.copy()
        assert not np.allclose(out1, out2)

    def test_deterministic_given_seed(self):
        x = Tensor(np.zeros((4, 4), np.float32))
        out1 = injector(seed=42)(x).data
        out2 = injector(seed=42)(x).data
        np.testing.assert_array_equal(out1, out2)

    def test_policy_respected_in_training_mode(self):
        inj = injector(policy=InjectionPolicy(in_training=False, in_eval=True))
        x = Tensor(np.zeros((4, 4), np.float32))
        inj.train()
        np.testing.assert_array_equal(inj(x).data, 0.0)
        inj.eval()
        assert not np.allclose(inj(x).data, 0.0)

    def test_policy_respected_in_eval_mode(self):
        inj = injector(policy=InjectionPolicy(in_training=True, in_eval=False))
        inj.eval()
        x = Tensor(np.zeros((4, 4), np.float32))
        np.testing.assert_array_equal(inj(x).data, 0.0)

    def test_disabled_returns_input_object(self):
        inj = injector(policy=InjectionPolicy.disabled())
        x = Tensor(np.zeros((4, 4), np.float32))
        assert inj(x) is x

    def test_forward_only_backward_untouched(self):
        """The injected error must not alter gradients (paper Sec. 2)."""
        inj = injector(enob=4.0, ntot=1024)  # huge noise
        x = Tensor(np.ones((8, 8), np.float32), requires_grad=True)
        inj.train()
        out = inj(x * 2.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_ntot_validation(self):
        with pytest.raises(ConfigError):
            injector(ntot=0)

    def test_repr(self):
        assert "enob=8.0" in repr(injector())

    def test_active_property(self):
        inj = injector(policy=InjectionPolicy(in_training=False, in_eval=True))
        inj.train()
        assert not inj.active
        inj.eval()
        assert inj.active
