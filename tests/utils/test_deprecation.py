"""Tests for the per-process warn-once deprecation registry."""

import warnings

import pytest

from repro.obs import deprecation


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts unfired and unmarked, and leaves no trace."""
    deprecation.reset()
    deprecation.mark_worker_process(False)
    yield
    deprecation.reset()
    deprecation.mark_worker_process(False)


class TestWarnOnce:
    def test_first_use_warns_repeats_are_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("k", "message one") is True
            assert deprecation.warn_once("k", "message one") is False
            assert deprecation.warn_once("k", "message one") is False
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert "message one" in str(caught[0].message)

    def test_keys_are_independent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("a", "alpha") is True
            assert deprecation.warn_once("b", "beta") is True
        assert len(caught) == 2

    def test_reset_single_key_rearms_only_that_key(self):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            deprecation.warn_once("a", "alpha")
            deprecation.warn_once("b", "beta")
        deprecation.reset("a")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("a", "alpha") is True
            assert deprecation.warn_once("b", "beta") is False
        assert len(caught) == 1


class TestWorkerSuppression:
    def test_marked_worker_never_warns(self):
        deprecation.mark_worker_process()
        assert deprecation.in_worker_process()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("k", "noise") is False
        assert caught == []

    def test_unmark_restores_warnings(self):
        deprecation.mark_worker_process()
        deprecation.mark_worker_process(False)
        assert not deprecation.in_worker_process()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert deprecation.warn_once("k", "again") is True
        assert len(caught) == 1

    def test_sweep_worker_initializer_marks_the_process(self, tmp_path):
        """repro.parallel.sweep._init_worker is a worker entry point: it
        must mark the process before building the worker bench."""
        from repro.experiments.config import make_config
        from repro.parallel import sweep as sweep_mod

        config = make_config(
            profile="quick",
            seed=5,
            num_classes=3,
            image_size=8,
            train_per_class=8,
            val_per_class=4,
            cache_dir=str(tmp_path / "cache"),
            results_dir=str(tmp_path / "results"),
        )
        try:
            sweep_mod._init_worker(config)
            assert deprecation.in_worker_process()
        finally:
            sweep_mod._WORKER_BENCH = None
