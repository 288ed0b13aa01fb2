"""Fixtures shared across test modules."""

import functools

import pytest

from mnlab import all_subgroups, symmetric


@pytest.fixture(scope="session")
def symmetric_subgroups():
    """all_subgroups(symmetric(d)) by degree d, enumerated once per session:
    the library keeps nothing between calls, and S6 alone takes over a
    second."""
    return functools.cache(lambda d: all_subgroups(symmetric(d)))
