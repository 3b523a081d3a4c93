"""Test order and shared fixtures.

The tests that share the directional-study fixture run last: that fixture
trains nine models and takes most of the suite's wall time, and every other
test reports before it starts.
"""

import pytest


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: "directional_study" in getattr(item, "fixturenames", ()))


@pytest.fixture
def two_thread_budget(monkeypatch):
    """Steps see a BLAS budget of two threads, whatever the machine has.

    Returns the thread counts each step sets, in order. The real BLAS is
    left alone, so a test cannot change the thread count later tests see.
    """
    from tailwise import model

    calls = []
    monkeypatch.setattr(model, "_openblas", lambda: (lambda: 2, calls.append))
    return calls
