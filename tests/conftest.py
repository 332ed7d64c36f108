"""Test-suite settings: hypothesis runs the same examples every time, and
the no_gc fixture lets a test see what plain reference counting frees."""

import gc

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture
def no_gc():
    """Turn the cycle collector off for one test, so an object that is
    still alive after its last reference goes is kept by a cycle."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
