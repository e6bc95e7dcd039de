"""Prototype updates: weighted class means and kernel mode seeking.

Cluster representatives are either closed-form weighted means or fixed points
of the weighted kernel average g(m). The mode solver also exposes the total
kernel mass u^n at each iterate, which is monotonically increasing along the
fixed-point sequence and is used by the test suite.

Every squared distance in the package (prototype scores, kernel weights,
mean-shift steps, k-means++ seeding, the rho-NN search) is one GEMM in the
expansion ||x||^2 + ||v||^2 - 2 x.v, clamped at 0, through CenteredFeatures.
The expansion cancels, and its rounding error grows with ||x||^2 rather than
with the distance, so X and the prototypes are first shifted by the column
mean of X; the shift leaves every distance unchanged. On 8-D standard normal
points offset by 1e6, the uncentered expansion is off by up to 1.5e-3
relative per entry, the centered one by under 1e-15. The mode update steps
every cluster with positive mass at once; a cluster leaves the active set
when its own step falls below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyClusterError
from .io import validate_features

_EXP_CLAMP = -700.0  # exp underflows to 0 near -745; keep denominators positive

RULE_MEANS = "means"
RULE_MODES = "modes"


@dataclass(frozen=True)
class Prototypes:
    """K x d prototype matrix with its update-rule tag."""

    values: np.ndarray
    rule: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise DataError(f"prototype matrix must be 2-D with k >= 1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("prototypes must be finite")
        if self.rule not in (RULE_MEANS, RULE_MODES):
            raise DataError(f"unknown prototype rule: {self.rule!r}")
        object.__setattr__(self, "values", v)

    @property
    def k(self):
        return self.values.shape[0]

    @property
    def n_dims(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class ModeSolverConfig:
    sigma2: float
    tol: float = 1e-6
    max_iters: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DataError("sigma2 must be finite and > 0")
        if self.tol <= 0 or self.max_iters < 1:
            raise DataError("tol must be > 0 and max_iters >= 1")


class CenteredFeatures:
    """A validated feature matrix with its column mean, shifted rows and their norms.

    The functions of this module accept one in place of a feature matrix, so a
    caller that scores many prototype sets against the same points (``solve``)
    validates and centers X once.
    """

    __slots__ = ("X", "mean", "centered", "sq_norms")

    def __init__(self, X):
        self.X = validate_features(X)
        self.mean = self.X.mean(axis=0)
        self.centered = self.X - self.mean
        self.sq_norms = np.einsum("ij,ij->i", self.centered, self.centered)

    def sqdist(self, V):
        """N x K squared distances ||x_p - v_k||^2 to the rows of V, clamped at 0."""
        Vc = V - self.mean
        return _sqdist(self.centered, self.sq_norms, Vc, np.einsum("ij,ij->i", Vc, Vc))

    def pairwise_rows(self, start, stop):
        """(stop - start) x N squared distances from points start..stop-1 to all."""
        return _sqdist(self.centered[start:stop], self.sq_norms[start:stop],
                       self.centered, self.sq_norms)


def _sqdist(A, a_norms, B, b_norms):
    """||a_i||^2 + ||b_j||^2 - 2 a_i.b_j over the rows of A and B, clamped at 0."""
    sqd = a_norms[:, None] + b_norms[None, :] - 2.0 * (A @ B.T)
    return np.maximum(sqd, 0.0, out=sqd)


def _centered(X) -> CenteredFeatures:
    return X if isinstance(X, CenteredFeatures) else CenteredFeatures(X)


def _rbf(sqd, sigma2):
    """exp(-sqd / (2 sigma^2)), exponent clamped against underflow."""
    return np.exp(np.maximum(-sqd / (2.0 * sigma2), _EXP_CLAMP))


def _meanshift_sums(P: CenteredFeatures, S_cols, V, sigma2):
    """Kernel masses u_k and weighted sums sum_p s_pk w(x_p, v_k) x_p for each row v_k of V."""
    w = S_cols * _rbf(P.sqdist(V), sigma2)
    return w.sum(axis=0), w.T @ P.X


def rbf_weights(X, m, sigma2):
    """exp(-||x_p - m||^2 / (2 sigma^2)), exponent clamped against underflow."""
    return _rbf(_centered(X).sqdist(np.asarray(m, dtype=np.float64)[None, :]), sigma2)[:, 0]


def update_means(X, S, prev: Prototypes | None = None):
    """Weighted means m_k = X^t S_k / 1^t S_k.

    A zero-mass column raises EmptyClusterError unless ``prev`` supplies a
    prototype to keep. Returns (Prototypes, empty_mask).
    """
    X = validate_features(X)
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    mass = rows.sum(axis=0)
    empty = mass <= 0.0
    if empty.any() and prev is None:
        raise EmptyClusterError(int(np.nonzero(empty)[0][0]))
    safe_mass = np.where(empty, 1.0, mass)
    M = (rows.T @ X) / safe_mass[:, None]
    if empty.any():
        M[empty] = prev.values[empty]
    return Prototypes(values=M, rule=RULE_MEANS), empty


def meanshift_step(X, s_col, m, sigma2):
    """One fixed-point step: the s- and kernel-weighted average of the points."""
    s_col = np.asarray(s_col, dtype=np.float64)[:, None]
    m = np.asarray(m, dtype=np.float64)[None, :]
    total, weighted = _meanshift_sums(_centered(X), s_col, m, sigma2)
    if total[0] <= 0.0:
        raise EmptyClusterError(-1)
    return weighted[0] / total[0]


def update_modes(X, S, cfg: ModeSolverConfig, M_init: Prototypes):
    """Run mean-shift iterates m <- g(m) for every cluster from the given prototypes.

    All clusters with positive assignment mass step together; a cluster stops
    when its own step falls below ``cfg.tol``, and a zero-mass cluster keeps
    its mode. Returns (Prototypes, u_traces, warnings): u_traces[k] holds the
    kernel mass u^n at every visited iterate of cluster k; non-convergence
    within max_iters is reported as a warning, not a failure.
    """
    P = _centered(X)
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    modes = np.array(M_init.values, dtype=np.float64, copy=True)
    zero_mass = rows.sum(axis=0) <= 0.0
    u_traces = [[] for _ in range(modes.shape[0])]
    active = np.flatnonzero(~zero_mass)
    for _ in range(cfg.max_iters):
        if not active.size:
            break
        total, weighted = _meanshift_sums(P, rows[:, active], modes[active], cfg.sigma2)
        new = weighted / total[:, None]
        step = np.linalg.norm(new - modes[active], axis=1)
        modes[active] = new
        for k, u in zip(active.tolist(), total.tolist()):
            u_traces[k].append(u)
        active = active[~(step < cfg.tol)]
    capped = set(active.tolist())
    warnings = []
    for k in range(modes.shape[0]):
        if zero_mass[k]:
            warnings.append(f"cluster {k}: zero assignment mass, mode kept")
        elif k in capped:
            warnings.append(f"cluster {k}: mode solver hit max_iters={cfg.max_iters}")
    return (Prototypes(values=modes, rule=RULE_MODES), [np.array(u) for u in u_traces],
            warnings)


def prototype_scores(X, M: Prototypes, rule=None, sigma2=None):
    """Per-point prototype scores a (N x K), signed so higher is better.

    means: a = -||x_p - m_k||^2; modes: a = w_F(x_p, m_k). Softmaxing a row
    then favors the low-cost (high-affinity) prototype.
    """
    rule = rule or M.rule
    sqd = _centered(X).sqdist(M.values)
    if rule == RULE_MEANS:
        return -sqd
    if rule == RULE_MODES:
        if sigma2 is None:
            raise DataError("sigma2 is required for the modes rule")
        return _rbf(sqd, sigma2)
    raise DataError(f"unknown prototype rule: {rule!r}")
