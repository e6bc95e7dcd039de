"""Prototype updates: weighted class means and kernel mode seeking.

Cluster representatives are either closed-form weighted means or fixed points
of the weighted kernel average g(m). The mode solver also exposes the total
kernel mass u^n at each iterate, which is monotonically increasing along the
fixed-point sequence and is used by the test suite. Because every step raises
that mass, a mean-shift step is a bound-optimization step of its own: inside
``solve`` it is a budget, a few steps per prototype block from the previous
modes, and it runs to convergence only in the hard re-fit that defines E.

Every squared distance in the package (prototype scores, kernel weights,
mean-shift steps, k-means++ seeding, the brute-force rho-NN search) is one
GEMM in the expansion ||x||^2 + ||v||^2 - 2 x.v, clamped at 0, through
CenteredFeatures. The brute-force search's exact pass ranks on half of it,
(||x||^2/2 + ||v||^2/2) - x.v (``CenteredFeatures.half_sqdist_rows``), and
doubles and clamps only the distances it keeps; halving is exact, so those
are the expansion's values bitwise. The kd-tree search of low-dimensional
features and the brute-force search's float32 prefilter (the same half
expansion in single precision, ``_half_sqdist``) only pick candidate pairs;
their distances come from the same expansion in float64 with each dot product
taken row by row (``CenteredFeatures.pair_sqdist``).
The expansion cancels, and its rounding error grows with ||x||^2 rather than
with the distance, so X and the prototypes are first shifted by the column
mean of X; the shift leaves every distance unchanged. On 8-D standard normal
points offset by 1e6, the uncentered expansion is off by up to 1.5e-3
relative per entry, the centered one by under 1e-15. The mode update steps
every cluster with positive mass at once; a cluster leaves the active set
when its own step falls below the tolerance.

Every function here and in ``affinity`` that takes a feature matrix also
accepts a CenteredFeatures in its place, so a run validates and centers its
features once and hands the same object to the search, the seeding and the
solve.
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


@dataclass(frozen=True)
class ModeSolverConfig:
    sigma2: float
    tol: float = 1e-6
    max_iters: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DataError("sigma2 must be finite and > 0")
        if not (np.isfinite(self.tol) and self.tol > 0) or self.max_iters < 1:
            raise DataError("tol must be finite and > 0, and max_iters >= 1")


class CenteredFeatures:
    """A validated feature matrix with its column mean, shifted rows and their norms."""

    __slots__ = ("X", "mean", "centered", "sq_norms")

    def __init__(self, X):
        self._center(validate_features(X))

    @classmethod
    def _of_valid(cls, X):
        """One built from a matrix that its caller has already validated."""
        P = cls.__new__(cls)
        P._center(X)
        return P

    def _center(self, X):
        self.X = X
        self.mean = self.X.mean(axis=0)
        self.centered = self.X - self.mean
        self.sq_norms = np.einsum("ij,ij->i", self.centered, self.centered)

    def sqdist(self, V):
        """N x K squared distances ||x_p - v_k||^2 to the rows of V, clamped at 0."""
        Vc = V - self.mean
        return _sqdist(self.centered, self.sq_norms, Vc, np.einsum("ij,ij->i", Vc, Vc))

    def half_sqdist_rows(self, rows, half_norms, out):
        """len(rows) x N half squared distances from the points ``rows`` (a slice
        or an index array) to all: (|c_i|^2/2 + |c_j|^2/2) - c_i.c_j, unclamped.

        ``half_norms`` is ``sq_norms / 2``. Halving is exact outside the
        subnormal range, so twice a value is bitwise ``_sqdist``'s value before
        its clamp at 0. ``out`` is a pair of len(rows) x N buffers: the result is
        written into the first and the second is scratch for the product, which
        is a SYRK when ``rows`` is every point.
        """
        return _half_sqdist(self.centered, rows, half_norms, out)

    def pair_sqdist(self, nbrs, rows=slice(None)):
        """Squared distances from each point p of ``rows`` (a slice or an index
        array; every point by default) to the points nbrs[p], clamped at 0.

        The expansion and its order of operations are those of ``_sqdist``; each
        dot product is taken row by row instead of by one GEMM, so a value can
        differ from the GEMM's in the last bits, and does not depend on which
        other rows are computed with it.
        """
        C = self.centered[rows]
        dots = np.empty(nbrs.shape)
        for j in range(nbrs.shape[1]):
            dots[:, j] = np.einsum("ij,ij->i", C, self.centered[nbrs[:, j]])
        dots *= 2.0
        sqd = self.sq_norms[rows, None] + self.sq_norms[nbrs]
        sqd -= dots
        return np.maximum(sqd, 0.0, out=sqd)


def _half_sqdist(C, rows, half_norms, out):
    """``CenteredFeatures.half_sqdist_rows`` over the centered rows C, in the
    precision of C, ``half_norms`` and ``out``."""
    h, g = out
    np.matmul(C[rows], C.T, out=g)
    np.add(half_norms[rows, None], half_norms[None, :], out=h)
    h -= g
    return h


def _sqdist(A, a_norms, B, b_norms):
    """||a_i||^2 + ||b_j||^2 - 2 a_i.b_j over the rows of A and B, clamped at 0."""
    g = A @ B.T
    g *= 2.0
    sqd = a_norms[:, None] + b_norms[None, :]
    sqd -= g
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


def update_means(X, S, prev: Prototypes | None = None):
    """Weighted means m_k = X^t S_k / 1^t S_k.

    A zero-mass column raises EmptyClusterError unless ``prev`` supplies a
    prototype to keep. Returns (Prototypes, empty_mask).
    """
    X = _centered(X).X
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
    M, u_traces, zero_mass, capped = _mean_shift(
        _centered(X), np.asarray(getattr(S, "rows", S), dtype=np.float64), cfg, M_init)
    warnings = []
    for k in range(M.k):
        if zero_mass[k]:
            warnings.append(f"cluster {k}: zero assignment mass, mode kept")
        elif capped[k]:
            warnings.append(f"cluster {k}: mode solver hit max_iters={cfg.max_iters}")
    return M, u_traces, warnings


def _mean_shift(P: CenteredFeatures, rows, cfg: ModeSolverConfig, M_init: Prototypes):
    """``update_modes`` on centered features and plain rows, with its outcome
    as masks instead of warnings. Returns (Prototypes, u_traces, zero_mass,
    capped): the clusters with no mass, whose modes are kept, and those that
    made ``cfg.max_iters`` steps without one falling below ``cfg.tol``."""
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
    capped = np.zeros(modes.shape[0], dtype=bool)
    capped[active] = True
    return (Prototypes(values=modes, rule=RULE_MODES), [np.array(u) for u in u_traces],
            zero_mass, capped)


def prototype_scores(X, M: Prototypes, sigma2=None):
    """Per-point prototype scores a (N x K) under ``M.rule``, signed so higher is better.

    means: a = -||x_p - m_k||^2; modes: a = w_F(x_p, m_k), which needs
    ``sigma2``. Softmaxing a row then favors the low-cost (high-affinity)
    prototype.
    """
    sqd = _centered(X).sqdist(M.values)
    if M.rule == RULE_MEANS:
        return -sqd
    if sigma2 is None:
        raise DataError("sigma2 is required for the modes rule")
    return _rbf(sqd, sigma2)
