"""Session-wide fixtures for both test trees (``tests/``, ``benchmarks/``)."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_timing_core_cache(tmp_path_factory):
    """Build the compiled timing core once per session, outside ``$HOME``.

    Tests neither read a library a previous run left in the per-user
    cache nor write one there.
    """
    from repro.cluster import timing_core

    cache_dir = tmp_path_factory.mktemp("timing-core")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timing_core, "_cache_dir", lambda: cache_dir)
        yield
