"""Shared fixtures: small-scale library/network/campaign, built once."""

from __future__ import annotations

import pytest

from repro.cache.popularity import query_key
from repro.experiments.common import (
    SMALL_SCALE,
    get_campaign,
    get_library,
    get_network,
    get_workload,
)


@pytest.fixture(scope="session")
def small_scale():
    return SMALL_SCALE


@pytest.fixture(scope="session")
def library(small_scale):
    return get_library(small_scale)


@pytest.fixture(scope="session")
def network(small_scale):
    return get_network(small_scale)


@pytest.fixture(scope="session")
def workload(small_scale):
    return get_workload(small_scale)


@pytest.fixture(scope="session")
def campaign(small_scale):
    return get_campaign(small_scale)


@pytest.fixture(autouse=True)
def cold_query_key_memo():
    """Every test starts with an empty query-key memo (no warm-cache coupling)."""
    query_key.cache_clear()
    yield
