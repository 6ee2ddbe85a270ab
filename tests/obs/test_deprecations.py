"""The re-homed telemetry surfaces warn exactly once per process."""

from __future__ import annotations

import warnings

import pytest

from repro.obs import deprecation


@pytest.fixture(autouse=True)
def _fresh_warn_state():
    """Each test sees a process that has not warned yet."""
    deprecation.reset()
    yield
    deprecation.reset()


def _caught(fn) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestWarnOnce:
    def test_first_call_fires_then_silent(self):
        assert deprecation.warn_once("test.key", "msg") is True
        assert deprecation.warn_once("test.key", "msg") is False

    def test_keys_are_independent(self):
        deprecation.warn_once("test.a", "msg")
        assert deprecation.warn_once("test.b", "msg") is True

    def test_reset_one_key(self):
        deprecation.warn_once("test.a", "msg")
        deprecation.warn_once("test.b", "msg")
        deprecation.reset("test.a")
        assert deprecation.warn_once("test.a", "msg") is True
        assert deprecation.warn_once("test.b", "msg") is False


class TestProfilerBracket:
    def test_warns_exactly_once_and_still_works(self):
        from repro.obs.trace import Span
        from repro.utils import profiler

        def use_bracket():
            with profiler.bracket("legacy.op") as record:
                assert isinstance(record, Span)
                assert record.name == "legacy.op"

        first = _caught(use_bracket)
        assert len(first) == 1
        assert "obs.span" in str(first[0].message)
        assert _caught(use_bracket) == []

    def test_bracket_forwards_to_the_profiler_like_span(self):
        from repro.utils import profiler

        with profiler.profiled() as prof:
            with profiler.bracket("legacy.op"):
                pass
        assert prof.records()["legacy.op"].calls == 1
