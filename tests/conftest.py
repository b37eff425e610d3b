"""Tier-1 fails on leaked sockets and files: inside this directory a
ResourceWarning, or an exception Python could only report from a finalizer,
fails the test it surfaces in."""

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
