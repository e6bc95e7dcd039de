"""Shared fixtures."""

import pytest

from lapclust import affinity


@pytest.fixture
def neighbor_searches(monkeypatch):
    """The rho of every exact neighbor search run while the test runs."""
    calls = []
    search = affinity._neighbor_search

    def counting(X, rho):
        calls.append(rho)
        return search(X, rho)

    monkeypatch.setattr(affinity, "_neighbor_search", counting)
    return calls
