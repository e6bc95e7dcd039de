"""Shared fixtures."""

import sys

import pytest

from lapclust import affinity, io, prototypes


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
    center = prototypes.CenteredFeatures._center

    def counting(self, X):
        center(self, X)
        shapes.append(self.X.shape)

    monkeypatch.setattr(prototypes.CenteredFeatures, "_center", counting)
    return shapes


@pytest.fixture
def feature_validations(monkeypatch):
    """The shape of every matrix validate_features checks while the test runs,
    whichever lapclust module calls it."""
    shapes = []
    validate = io.validate_features

    def counting(X):
        out = validate(X)
        shapes.append(out.shape)
        return out

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lapclust") and \
                getattr(mod, "validate_features", None) is validate:
            monkeypatch.setattr(mod, "validate_features", counting)
    return shapes
