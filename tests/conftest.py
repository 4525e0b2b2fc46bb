"""Shared test set-up: every test starts from empty ccdf, candidate and
quantile caches."""

import pytest

from okbodies import thresholds


@pytest.fixture(autouse=True)
def fresh_threshold_caches():
    """Clear ``thresholds._ccdf_data``, ``thresholds._candidates`` and
    ``thresholds._quantile_spec`` before each test, so no test reads a ccdf,
    its candidate breaks or a solved quantile that another test cached."""
    thresholds._ccdf_data.cache_clear()
    thresholds._candidates.cache_clear()
    thresholds._quantile_spec.cache_clear()
