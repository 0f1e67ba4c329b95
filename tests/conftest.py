"""Test-suite settings: property tests draw the same examples on every run;
the ``no_cycle_collector`` fixture."""

import gc
import os
import tempfile

import pytest
from hypothesis import settings

# Hypothesis caches the constants it reads from local sources even without an
# example database; keep that cache out of the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "ringsim-hypothesis"))

# derandomize: examples follow from each test's source, not from a fresh
# seed; deadline=None: a slow shared host does not turn timing into failures;
# database=None: no example database is written.
settings.register_profile("ringsim", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("ringsim")


@pytest.fixture
def no_cycle_collector():
    """Run a test with the cycle collector off: only reference counting frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
