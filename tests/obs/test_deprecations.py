"""The one warn-once registry behind every deprecation shim."""

from __future__ import annotations

import pytest

from repro.obs import deprecation


@pytest.fixture(autouse=True)
def _fresh_warn_state():
    """Each test sees a process that has not warned yet."""
    deprecation.reset()
    yield
    deprecation.reset()


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
