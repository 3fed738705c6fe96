"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.kvpairs.teragen import teragen

# Profiles: 'ci' keeps the suite fast; heavier e2e property tests override
# max_examples locally where the default is too slow.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_batch():
    """10k deterministic TeraGen records shared by read-only tests."""
    return teragen(10_000, seed=42)


@pytest.fixture(scope="session")
def tiny_batch():
    """500 records for cheap per-test copies."""
    return teragen(500, seed=7)


@pytest.fixture
def thread_cluster_factory():
    """Factory for thread clusters with a test-friendly recv timeout."""
    from repro.runtime.inproc import ThreadCluster

    def make(size: int, **kwargs):
        kwargs.setdefault("recv_timeout", 60.0)
        return ThreadCluster(size, **kwargs)

    return make


@pytest.fixture
def out_of_band():
    """Predicate: did this array arrive as an out-of-band buffer of a
    control frame, i.e. as a view of the frame's whole receive arena
    (head and pickle body included), not as an array of its own bytes."""

    def check(arr: np.ndarray) -> bool:
        base = arr
        while isinstance(base, np.ndarray):
            base = base.base
        arena = base.obj if isinstance(base, memoryview) else base
        return isinstance(arena, bytearray) and len(arena) > arr.nbytes

    return check
