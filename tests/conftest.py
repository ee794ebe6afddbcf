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
