"""Tests for the per-process warn-once registry."""

import warnings

import pytest

from repro.obs import deprecation


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts unfired and leaves no trace."""
    deprecation.reset()
    yield
    deprecation.reset()


class TestWarnOnce:
    def test_first_use_warns_repeats_are_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fired = [
                deprecation.warn_once(
                    "k", "message one", RuntimeWarning, stacklevel=1
                )
                for _ in range(3)
            ]
        assert fired == [True, False, False]
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert "message one" in str(caught[0].message)
        # stacklevel=1 names the line that called warn_once, as it would
        # for warnings.warn.
        assert caught[0].filename == __file__

    def test_keys_are_independent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("a", "alpha", UserWarning) is True
            assert deprecation.warn_once("b", "beta", UserWarning) is True
        assert len(caught) == 2

    def test_reset_single_key_rearms_only_that_key(self):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            deprecation.warn_once("a", "alpha", UserWarning)
            deprecation.warn_once("b", "beta", UserWarning)
        deprecation.reset("a")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("a", "alpha", UserWarning) is True
            assert deprecation.warn_once("b", "beta", UserWarning) is False
        assert len(caught) == 1

