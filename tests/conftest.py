"""Tier-1 fails on leaked sockets and files: inside this directory a
ResourceWarning, or an exception Python could only report from a finalizer,
fails the test it surfaces in.  A full collection after each test makes
that the test which dropped the last reference (or, when that test failed,
the one after it, as its traceback holds its locals until then)."""

import gc
from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


def pytest_collection_finish(session):
    """Freeze what exists before the first test (modules, collected
    items), so each collection after a test scans only what tests made."""
    gc.collect()
    gc.freeze()


@pytest.fixture(autouse=True)
def _collect_garbage():
    """A full collection: a cycle with a member in the oldest generation
    survives a partial one."""
    yield
    gc.collect()
