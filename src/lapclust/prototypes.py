"""Prototype updates: weighted class means and kernel mode seeking.

Cluster representatives are either closed-form weighted means or fixed points
of the weighted kernel average g(m). The mode solver also exposes the total
kernel mass u^n at each iterate, which is monotonically increasing along the
fixed-point sequence and is used by the test suite. Because every step raises
that mass, a mean-shift step is a bound-optimization step of its own: inside
``solve`` it is a budget, a few steps per prototype block from the previous
modes, and it runs to convergence only in the hard re-fit that defines E.
Each step computes the full-width N x K kernel matrix at its new modes once:
it weighs the next step, and after the last one it is the modes' prototype
scores, which the solver's next assignment block starts from. The step loop
keeps no traces; only for ``update_modes`` does it record its history (the
active clusters and their masses at each step), from which that builds its u
traces.

Both updates run on a point set through three of its operations: squared
distances to prototype rows (``sqdist``), weighted sums of the points
(``weighted_sums``) and the lengths of prototype changes (``step_lengths``).
There are two point sets. ``CenteredFeatures`` holds prototypes as feature
rows; its weighted sums add fixed row blocks (``_weighted_sums``), so a
prototype does not depend on the BLAS thread count. ``GramPoints`` holds
them as coefficient rows over the points and computes all three from the
points' Gram matrix G, with no d-wide product; a few-shot episode with no
more points than feature columns solves on it (N <= d, so G is no larger
than the features).

Every squared distance in the package (prototype scores, kernel weights,
k-means++ seeding, the brute-force rho-NN search) is the expansion
||x||^2 + ||v||^2 - 2 x.v, clamped at 0: one GEMM through CenteredFeatures,
or, through GramPoints, one N-wide product G alpha^t and the prototypes'
norms alpha G alpha^t. The brute-force search's exact pass fills its blocks
with half of it, (||x||^2/2 + ||v||^2/2) - x.v (``_half_sqdist``), and
doubles and clamps them in place; halving is exact, so those are the
expansion's values bitwise. Searching a GramPoints, a pass over every point
in one block reads G's rows instead of making the product, and G is that
product bitwise.
The kd-tree search of low-dimensional features and the brute-force search's
float32 prefilter (the same half expansion in single precision) only pick
candidate pairs; their distances come from the same expansion in float64
with each dot product taken row by row (``CenteredFeatures.pair_sqdist``).
The expansion cancels, and its rounding error grows with ||x||^2 rather than
with the distance, so X and the prototypes are first shifted by the column
mean of X; the shift leaves every distance unchanged. On 8-D standard normal
points offset by 1e6, the uncentered expansion is off by up to 1.5e-3
relative per entry, the centered one by under 1e-15; G is the Gram matrix
of the centered points. The mode update steps every cluster with positive
mass at once; a cluster leaves the active set when its own step falls below
the tolerance.

Every function here and in ``affinity`` that takes a feature matrix also
accepts a CenteredFeatures in its place, so a run validates and centers its
features once and hands the same object to the search, the seeding and the
solve. The search, the scores, the updates and ``solve`` also accept a
GramPoints, and then take and return coefficient prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyClusterError
from .io import _index, validate_features

_EXP_CLAMP = -700.0  # exp underflows to 0 near -745; keep denominators positive

RULE_MEANS = "means"
RULE_MODES = "modes"


@dataclass(frozen=True)
class Prototypes:
    """K x d prototype matrix with its update-rule tag; on GramPoints, K x N
    coefficient rows over the points."""

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

    @classmethod
    def _of_valid(cls, values, rule):
        """One whose 2-D float64 ``values`` its caller made from validated
        inputs (the solve loop's updates, an episode's support coefficients),
        unchecked."""
        M = cls.__new__(cls)
        object.__setattr__(M, "values", values)
        object.__setattr__(M, "rule", rule)
        return M

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
        if not (np.isfinite(self.tol) and self.tol > 0) or _index(self.max_iters, "max_iters") < 1:
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
        """Sets the fields from X; rejects X when its squared distances, at
        most 4 max |c_p|^2, would overflow float64."""
        self.X = X
        self.mean = self.X.mean(axis=0)
        self.centered = self.X - self.mean
        self.sq_norms = np.einsum("ij,ij->i", self.centered, self.centered)
        if not self.sq_norms.max() <= np.finfo(np.float64).max / 4:
            raise DataError("features too large: their squared distances overflow float64")

    @property
    def n_points(self):
        return self.X.shape[0]

    def sqdist(self, V):
        """N x K squared distances ||x_p - v_k||^2 to the rows of V, clamped at 0."""
        Vc = V - self.mean
        return _sqdist(self.centered, self.sq_norms, Vc, np.einsum("ij,ij->i", Vc, Vc))

    def weighted_sums(self, w):
        """w^t X (K x d) for N x K weights w, by ``_weighted_sums``."""
        return _weighted_sums(w, self.X)

    def step_lengths(self, diff):
        """The Euclidean norm of each row of ``diff``, a K x d change of prototypes."""
        return np.sqrt(np.add.reduce(diff * diff, axis=1))  # np.linalg.norm's, without its copy

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


class GramPoints:
    """The points of a CenteredFeatures seen through their Gram matrix
    G = C C^t, with each prototype a row of coefficients over the points.

    A weighted mean or a mean-shift step is a weighted average of the points,
    so a prototype v = alpha C is a 1 x N row alpha (summing to 1, so that
    alpha C is v minus the column mean). The three operations of
    ``CenteredFeatures`` then read only G: the squared distances are
    |c_p|^2 + alpha G alpha^t - 2 (G alpha^t)_p, a weighted sum w^t X is the
    coefficient rows w^t, and a step's length is sqrt(dalpha G dalpha^t).
    None of them makes a d-wide product. So the weighted means of an episode's
    one-hot support rows, its first prototypes, are 1/n_k on each class-k
    support. G is N x N, so it is no larger than the features when N <= d,
    which is when a few-shot episode builds one. The squared norms |c_p|^2
    are the features', which the rho-NN search also reads; ``features`` is
    kept for that search (``affinity.knn_graph`` takes a GramPoints, and its
    exact pass over every point reads G).
    """

    __slots__ = ("features", "gram", "sq_norms")

    def __init__(self, P: CenteredFeatures):
        self.features = P
        self.gram = P.centered @ P.centered.T  # a SYRK, bitwise the exact search pass's product
        self.sq_norms = P.sq_norms

    @property
    def n_points(self):
        return self.gram.shape[0]

    def sqdist(self, A):
        """N x K squared distances from each point to the prototypes of the
        coefficient rows A, by the expansion of ``_sqdist``, clamped at 0."""
        g = self.gram @ A.T
        return _expansion(g, self.sq_norms, np.einsum("ki,ik->k", A, g))

    def weighted_sums(self, w):
        """w^t X as the K x N coefficient rows w^t (a view of w)."""
        return w.T

    def step_lengths(self, diff):
        """The length of each prototype change, a K x N row of coefficients
        dalpha: sqrt(dalpha G dalpha^t), clamped at 0 against rounding."""
        q = np.einsum("ki,ki->k", diff, diff @ self.gram)
        return np.sqrt(np.maximum(q, 0.0, out=q))


def _half_sqdist(C, rows, half_norms, out, gram=None):
    """len(rows) x N half squared distances from the points ``rows`` (a slice
    or an index array) of the centered rows C to all of them:
    (|c_i|^2/2 + |c_j|^2/2) - c_i.c_j, unclamped, in the precision of C,
    ``half_norms`` and ``out``.

    ``half_norms`` is the squared row norms over 2. Halving is exact outside
    the subnormal range, so in float64 twice a value is bitwise ``_sqdist``'s
    value before its clamp at 0. ``out`` is a sequence of len(rows) x N
    buffers: the result is written into the first and the second is scratch
    for the product, which is a SYRK when ``rows`` is every point. ``gram``,
    when given, is that product over every point (``GramPoints.gram``), whose
    rows are read instead, and ``out`` needs only its first buffer.
    """
    h = out[0]
    g = np.matmul(C[rows], C.T, out=out[1]) if gram is None else gram[rows]
    np.add(half_norms[rows, None], half_norms[None, :], out=h)
    h -= g
    return h


def _sqdist(A, a_norms, B, b_norms):
    """||a_i||^2 + ||b_j||^2 - 2 a_i.b_j over the rows of A and B, clamped at 0."""
    return _expansion(A @ B.T, a_norms, b_norms)


def _expansion(g, a_norms, b_norms):
    """a_norms_i + b_norms_j - 2 g_ij, clamped at 0; g is overwritten."""
    g *= 2.0
    sqd = a_norms[:, None] + b_norms[None, :]
    sqd -= g
    return np.maximum(sqd, 0.0, out=sqd)


def _centered(X):
    """X itself when it is a point set (CenteredFeatures or GramPoints), else
    the CenteredFeatures of the feature matrix X."""
    return X if isinstance(X, (CenteredFeatures, GramPoints)) else CenteredFeatures(X)


def _rbf(sqd, sigma2):
    """exp(-sqd / (2 sigma^2)), exponent clamped against underflow; computed in
    sqd's place (every caller's is a fresh distance matrix), with no temporary.
    sqd / (-2 sigma^2) is -sqd / (2 sigma^2) bitwise: division rounds the
    magnitude, whatever the signs."""
    z = np.divide(sqd, -2.0 * sigma2, out=sqd)
    np.maximum(z, _EXP_CLAMP, out=z)
    return np.exp(z, out=z)


# Rows per block of ``_weighted_sums``. One GEMM over all N rows splits its
# row sum differently under 1 and 2 BLAS threads at d >= 64 (in the last bits
# at N=2000, d=64, K=8 and N=10k, d=128, K=10). The blocks are added in row
# order by numpy, so the result is thread-count independent only as long as
# OpenBLAS does not split the row sum of a 256-row product across threads;
# the blocked sums were equal under 1 and 2 threads at every shape tried, up
# to K=128, d=640 and K=64, d=2048. A BLAS build that does split it fails
# test_prototypes.py's test_prototype_sums_are_thread_count_deterministic.
_SUM_BLOCK = 256


def _weighted_sums(w, X):
    """w^t X (K x d) for N x K weights w and N x d points X, as the products of
    fixed ``_SUM_BLOCK``-row blocks added in row order, so the summation order
    is the same under every BLAS thread count (a reproducible summation in the
    sense of Demmel & Nguyen, ARITH 2013)."""
    total = w[:_SUM_BLOCK].T @ X[:_SUM_BLOCK]
    for start in range(_SUM_BLOCK, X.shape[0], _SUM_BLOCK):
        total += w[start:start + _SUM_BLOCK].T @ X[start:start + _SUM_BLOCK]
    return total


def update_means(X, S, prev: Prototypes | None = None):
    """Weighted means m_k = X^t S_k / 1^t S_k; on GramPoints, the coefficient
    rows S_k / 1^t S_k.

    A zero-mass column raises EmptyClusterError unless ``prev``, one
    prototype per column of S, supplies a prototype to keep. Returns
    (Prototypes, empty_mask).
    """
    P = _centered(X)
    if prev is not None:
        _check_width(P, prev)
    rows = _assignment_rows(S, P.n_points, None if prev is None else prev.k)
    M, empty = _weighted_means(P, rows, prev)
    return Prototypes(values=M, rule=RULE_MEANS), empty


def _assignment_rows(S, n, k=None, of="points"):
    """S (a SoftAssignment or an array) as float64 rows, checked to be n rows
    (one per point, or one per graph point when ``of`` says so) of k columns,
    any number when k is None. A single row would broadcast over the points,
    and a blocked sum would skip rows past them."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    if rows.ndim != 2:
        raise DataError(f"assignment matrix must be 2-D, got shape {rows.shape}")
    if rows.shape[0] != n:
        raise DataError(f"assignment rows ({rows.shape[0]}) != {of} ({n})")
    if k is not None and rows.shape[1] != k:
        raise DataError(f"assignment columns ({rows.shape[1]}) != prototypes ({k})")
    return rows


def _selector(rows):
    """The rows picked by ``rows``, a boolean mask or increasing indices: a
    slice when they are contiguous, so that they select views, not copies;
    else their index array; None when there are none."""
    idx = np.flatnonzero(rows) if rows.dtype == bool else rows
    if idx.size == 0:
        return None
    first, last = int(idx[0]), int(idx[-1])
    if last - first + 1 == idx.size:
        return slice(first, last + 1)
    return idx


def _check_width(P, M):
    """Raises DataError unless M's rows are as wide as P's points: d feature
    columns, or N coefficients on a GramPoints."""
    width = P.n_points if isinstance(P, GramPoints) else P.X.shape[1]
    if M.values.shape[1] != width:
        raise DataError(f"prototype width ({M.values.shape[1]}) != point width ({width})")


def _weighted_means(P, rows, prev):
    """``update_means`` on a point set and plain rows: (values, empty_mask)."""
    mass = rows.sum(axis=0)
    empty = mass <= 0.0
    if empty.any() and prev is None:
        raise EmptyClusterError(int(np.nonzero(empty)[0][0]))
    safe_mass = np.where(empty, 1.0, mass)
    M = P.weighted_sums(rows) / safe_mass[:, None]
    if empty.any():
        M[empty] = prev.values[empty]
    return M, empty


def meanshift_step(X, s_col, m, sigma2):
    """One fixed-point step: the s- and kernel-weighted average of the points."""
    P = _centered(X)
    s_col = np.asarray(s_col, dtype=np.float64)[:, None]
    m = np.asarray(m, dtype=np.float64)[None, :]
    w = s_col * _rbf(P.sqdist(m), sigma2)
    total = w.sum(axis=0)[0]
    if total <= 0.0:
        raise EmptyClusterError(-1)
    return P.weighted_sums(w)[0] / total


def update_modes(X, S, cfg: ModeSolverConfig, M_init: Prototypes):
    """Run mean-shift iterates m <- g(m) for every cluster from the given prototypes.

    All clusters with positive assignment mass step together; a cluster stops
    when its own step falls below ``cfg.tol``, and a zero-mass cluster keeps
    its mode. Returns (Prototypes, u_traces, warnings): u_traces[k] holds the
    kernel mass u^n at every visited iterate of cluster k; non-convergence
    within max_iters is reported as a warning, not a failure.
    """
    P = _centered(X)
    _check_width(P, M_init)
    history = []
    M, _, _, zero_mass, capped = _mean_shift(P, _assignment_rows(S, P.n_points, M_init.k), cfg,
                                             M_init, history=history)
    M = Prototypes(values=M.values, rule=RULE_MODES)  # checked here, at the public boundary
    u_traces = [[] for _ in range(M.k)]
    for active, masses in history:
        for k, u in zip(active.tolist(), masses.tolist()):
            u_traces[k].append(u)
    warnings = []
    for k in range(M.k):
        if zero_mass[k]:
            warnings.append(f"cluster {k}: zero assignment mass, mode kept")
        elif capped[k]:
            warnings.append(f"cluster {k}: mode solver hit max_iters={cfg.max_iters}")
    return M, [np.array(u) for u in u_traces], warnings


def _mean_shift(P, rows, cfg: ModeSolverConfig, M_init: Prototypes, kernel=None, history=None):
    """``update_modes`` on a point set P (CenteredFeatures or GramPoints) and
    plain rows, with its outcome as masks instead of warnings and its kernel
    matrix carried along.

    ``kernel`` is the N x K kernel matrix at ``M_init`` (the modes rule's
    prototype scores), computed here when not given. Each step weighs the rows
    by it, moves the active clusters, and computes the full-width kernel at the
    new modes, which is the next step's weights and, after the last step, the
    scores of the returned modes. A step calls each of P's three operations
    once: on CenteredFeatures that is one distance GEMM and the weighted-sum
    block GEMMs, on GramPoints two N-wide products and no d-wide one.
    ``history``, when given (by ``update_modes``, for its u traces), is a list
    to which each step appends its active cluster indices and their kernel
    masses. Returns (Prototypes, kernel, steps, zero_mass, capped): the modes,
    unchecked (they are averages of validated points); the kernel at them; the
    steps made; the clusters with no mass, whose modes are kept, and those
    that made ``cfg.max_iters`` steps without one falling below ``cfg.tol``.
    """
    modes = np.array(M_init.values, dtype=np.float64, copy=True)
    if kernel is None:
        kernel = _rbf(P.sqdist(modes), cfg.sigma2)
    zero_mass = rows.sum(axis=0) <= 0.0
    active = np.flatnonzero(~zero_mass)
    steps = 0
    while steps < cfg.max_iters and active.size:
        sel = _selector(active)
        w = rows * kernel
        total = w.sum(axis=0)[sel]
        new = P.weighted_sums(w)[sel] / total[:, None]
        step = P.step_lengths(new - modes[sel])
        modes[sel] = new
        if history is not None:
            history.append((active, total))
        kernel = _rbf(P.sqdist(modes), cfg.sigma2)
        active = active[~(step < cfg.tol)]
        steps += 1
    capped = np.zeros(modes.shape[0], dtype=bool)
    capped[active] = True
    return Prototypes._of_valid(modes, RULE_MODES), kernel, steps, zero_mass, capped


def prototype_scores(X, M: Prototypes, sigma2=None):
    """Per-point prototype scores a (N x K) under ``M.rule``, signed so higher is better.

    means: a = -||x_p - m_k||^2; modes: a = w_F(x_p, m_k), which needs
    ``sigma2``. Softmaxing a row then favors the low-cost (high-affinity)
    prototype.
    """
    P = _centered(X)
    _check_width(P, M)
    sqd = P.sqdist(M.values)
    if M.rule == RULE_MEANS:
        return -sqd
    if sigma2 is None:
        raise DataError("sigma2 is required for the modes rule")
    return _rbf(sqd, sigma2)
