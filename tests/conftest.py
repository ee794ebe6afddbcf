import os
import sys
import tracemalloc

import pytest

# Allow running the suite from a source checkout without installing.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.fixture
def traced_peak():
    """A function that calls fn(*args, **kwargs) under tracemalloc and
    returns its result and the traced bytes it held at its peak."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return measure


@pytest.fixture
def keep_whole_store(monkeypatch):
    """A function that makes the solver sample nothing, so that
    ring.simulate's trajectory keeps the state, step size and coefficient
    row of every step of the run, as one integrated without sample_hz
    does. It patches through the monkeypatch context it is given, or the
    test's own monkeypatch."""
    from ringsim import integrators

    def patch(m=monkeypatch):
        integrate = integrators._integrate
        m.setattr(integrators, "_integrate", lambda *args, sample_hz=None: integrate(*args))
    return patch
