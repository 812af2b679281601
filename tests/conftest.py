"""Fixtures shared by the whole suite."""

import pytest


@pytest.fixture(autouse=True)
def _private_cache_home(monkeypatch, tmp_path_factory):
    # the CLI keeps sorted samples under $XDG_CACHE_HOME/lossq; each test,
    # and each process it starts, gets an empty directory of its own rather
    # than the user's cache
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
