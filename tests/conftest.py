"""Shared fixtures."""

import pytest

from lapclust import affinity, prototypes


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


@pytest.fixture
def centered_builds(monkeypatch):
    """The shape of every CenteredFeatures built while the test runs."""
    shapes = []
    init = prototypes.CenteredFeatures.__init__

    def counting(self, X):
        init(self, X)
        shapes.append(self.X.shape)

    monkeypatch.setattr(prototypes.CenteredFeatures, "__init__", counting)
    return shapes
