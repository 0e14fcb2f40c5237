"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig


@pytest.fixture(autouse=True)
def _no_ambient_result_cache(monkeypatch) -> None:
    """Keep the developer's $REPRO_CACHE_DIR out of every test.

    The global result cache is opt-in via that environment variable, so
    a set value on the host would silently turn tests that count
    executed campaign points into cache-hit tests.  Tests that want the
    cache opt in explicitly (a cache object, ``cache_dir``, or their own
    monkeypatched variable).
    """
    from repro.campaign.cache import CACHE_DIR_ENV

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)


@pytest.fixture(autouse=True)
def _isolated_obs_state():
    """Restore the process-wide observability state after every test.

    The metrics registry and the tracer are process singletons (that is
    what makes the instrumentation zero-plumbing), so a test that
    enables them must not leak enablement or accumulated samples into
    the next test.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import TRACER

    was_metered = REGISTRY.enabled
    was_tracing = TRACER.enabled
    yield
    REGISTRY.set_enabled(was_metered)
    REGISTRY.reset()
    TRACER.set_enabled(was_tracing)
    TRACER.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def cluster() -> Cluster:
    """A default (tape-out configuration) cluster."""
    return Cluster()


@pytest.fixture
def small_cluster() -> Cluster:
    """A smaller cluster (2 NTX, 16 banks) for fast cycle-level tests."""
    from repro.mem.tcdm import TcdmConfig

    config = ClusterConfig(num_ntx=2, tcdm=TcdmConfig(size_bytes=32 * 1024, num_banks=16))
    return Cluster(config)
