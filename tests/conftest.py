"""Shared fixtures.

Every test runs against a fresh in-memory artifact cache so cached
stage outputs cannot leak between tests: whether synthesis actually
executes (and emits its spans/counters) must depend only on the test
itself, not on suite ordering.  Tests that exercise cache behavior
build their own :class:`ArtifactCache` explicitly.

The run ledger is likewise pointed at a per-test temp file: flow CLI
commands append a ledger record by default, and a test run must never
pollute the developer's real ``.repro/ledger.jsonl`` (or depend on
records earlier tests left there).
"""

import pytest

from repro.core import ArtifactCache, using_cache


@pytest.fixture(autouse=True)
def _fresh_artifact_cache():
    with using_cache(ArtifactCache()):
        yield


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "test-ledger.jsonl"))
