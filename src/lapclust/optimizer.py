"""Block-coordinate bound optimizer for Laplacian-regularized prototypes.

The relaxed objective replaces hard assignments with simplex rows and adds a
negative-entropy barrier:

    R(S, M) = F(S, M) + (lambda/2) * (sum_p d_p - sum_{p,q} w(p,q) s_p.s_q)
              + sum_p s_p . log s_p

where F is the prototype term and the pairwise part is the linearizable
(concave, for psd affinities) form of the Laplacian penalty. The lambda/2
weight is what makes the closed-form row update softmax(a + lambda*b) the
exact minimizer of a tight upper bound on R: linearizing the concave
quadratic -(lambda/2) s'Ws at an anchor produces the linear term
-lambda s.b(anchor), so descent of R is guaranteed at every inner step
whenever the (shifted) affinity matrix is psd. The discrete objective keeps
its full weight, E = F + (lambda/2) sum_{p,q} w ||s_p - s_q||^2; halving the
relaxed pairwise weight only reparameterizes the lambda scale, it does not
change the family of solutions swept as lambda varies.

Assignment rows are updated jointly (Jacobi style) by the closed-form softmax
minimizer of the per-point bound, so updates are order-independent and the
result does not depend on thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import SparseAffinity, laplacian_quadratic
from .errors import DataError
from .prototypes import (
    CenteredFeatures,
    ModeSolverConfig,
    Prototypes,
    RULE_MEANS,
    RULE_MODES,
    prototype_scores,
    update_means,
    update_modes,
)


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic N x K assignment with an optional per-row clamp.

    Clamped rows are exact one-hots (support supervision) and are never
    touched by any update.
    """

    rows: np.ndarray
    clamped: np.ndarray
    clamp_class: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        clamped = np.asarray(self.clamped, dtype=bool)
        clamp_class = np.asarray(self.clamp_class, dtype=np.int64)
        if rows.ndim != 2:
            raise DataError(f"assignment matrix must be 2-D, got {rows.shape}")
        n, k = rows.shape
        if clamped.shape != (n,) or clamp_class.shape != (n,):
            raise DataError("clamp arrays must be length n_points")
        if rows.size:
            if rows.min() < 0 or not np.all(np.isfinite(rows)):
                raise DataError("assignment entries must be finite and >= 0")
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
                raise DataError("assignment rows must sum to 1 within 1e-9")
        idx = np.flatnonzero(clamped)
        cls = clamp_class[idx]
        one_hot = cls[:, None] == np.arange(k)  # all False for a class out of range
        bad = (cls < 0) | (cls >= k) | np.any(rows[idx] != one_hot, axis=1)
        if bad.any():
            p, c = idx[bad][0], cls[bad][0]
            if not 0 <= c < k:
                raise DataError(f"clamp class {c} outside [0, {k})")
            raise DataError(f"clamped row {p} is not the one-hot of class {c}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "clamped", clamped)
        object.__setattr__(self, "clamp_class", clamp_class)

    @property
    def n_points(self):
        return self.rows.shape[0]

    @property
    def k(self):
        return self.rows.shape[1]

    def hard_labels(self):
        """Row argmax; ties resolve to the lowest index."""
        return np.argmax(self.rows, axis=1)

    def replace_rows(self, rows) -> "SoftAssignment":
        return SoftAssignment(rows=rows, clamped=self.clamped, clamp_class=self.clamp_class)

    @staticmethod
    def unclamped(rows) -> "SoftAssignment":
        rows = np.asarray(rows, dtype=np.float64)
        n = rows.shape[0]
        return SoftAssignment(rows=rows, clamped=np.zeros(n, dtype=bool),
                              clamp_class=np.full(n, -1, dtype=np.int64))

    @staticmethod
    def from_hard(labels, k) -> "SoftAssignment":
        labels = np.asarray(labels, dtype=np.int64)
        rows = np.zeros((labels.shape[0], k))
        rows[np.arange(labels.shape[0]), labels] = 1.0
        return SoftAssignment.unclamped(rows)


def make_clamps(n_points, k, support):
    """Build (clamped, clamp_class) arrays from (index, class) pairs."""
    clamped = np.zeros(n_points, dtype=bool)
    clamp_class = np.full(n_points, -1, dtype=np.int64)
    for p, c in support:
        if not 0 <= p < n_points:
            raise DataError(f"clamp index {p} out of range")
        if not 0 <= c < k:
            raise DataError(f"clamp class {c} outside [0, {k})")
        clamped[p] = True
        clamp_class[p] = c
    return clamped, clamp_class


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.0
    rule: str = RULE_MEANS
    sigma2: float | None = None
    inner_tol: float = 1e-6
    inner_max: int = 100
    outer_tol: float = 1e-6
    outer_max: int = 100
    mode_tol: float = 1e-6
    mode_max_iters: int = 100

    def __post_init__(self):
        if self.lam < 0:
            raise DataError("lambda must be >= 0")
        if self.rule not in (RULE_MEANS, RULE_MODES):
            raise DataError(f"unknown rule: {self.rule!r}")
        if self.sigma2 is not None and not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DataError("sigma2 must be finite and > 0 when given")
        if min(self.inner_tol, self.outer_tol, self.mode_tol) <= 0:
            raise DataError("tolerances must be > 0")
        if min(self.inner_max, self.outer_max, self.mode_max_iters) < 1:
            raise DataError("iteration caps must be >= 1")

    def mode_config(self) -> ModeSolverConfig:
        return ModeSolverConfig(sigma2=self.sigma2, tol=self.mode_tol,
                                max_iters=self.mode_max_iters)


@dataclass
class SolveReport:
    relaxed_trace: list = field(default_factory=list)
    inner_iters_per_outer: list = field(default_factory=list)
    discrete_objective: float = np.nan
    outer_iters: int = 0
    inner_iters_total: int = 0
    warnings: list = field(default_factory=list)


def neighbor_votes(W: SparseAffinity, S):
    """b_{p,k} = sum_q w(p,q) s_{q,k}, plus the diagonal-shift correction."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    b = W.matrix @ rows
    if W.diag_shift > 0.0:
        b = b + W.diag_shift * rows
    return b


def s_inner_update(a, b=None, lam=0.0):
    """Closed-form row minimizer: softmax(a + lambda*b), max-shifted for safety."""
    z = np.asarray(a, dtype=np.float64)
    if lam != 0.0 and b is not None:
        z = z + lam * np.asarray(b, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def s_block(W: SparseAffinity, X, M: Prototypes, S: SoftAssignment, cfg: SolverConfig):
    """Inner assignment loop: Jacobi updates of all unclamped rows at once.

    The votes b are always computed from the previous inner iterate, so the
    update is synchronous and order-independent. Returns
    (SoftAssignment, n_inner_iters, warnings).
    """
    return _s_block(W, prototype_scores(X, M, cfg.rule, cfg.sigma2), S, cfg)


def _s_block(W, a, S, cfg):
    """s_block from the prototype scores a of the current prototypes."""
    free = ~S.clamped
    if not free.any():
        return S, 0, []
    rows = S.rows
    a_free = a[free]
    warnings = []
    if cfg.lam == 0.0:
        new = rows.copy()
        new[free] = s_inner_update(a_free)
        return S.replace_rows(new), 1, warnings
    iters = 0
    for _ in range(cfg.inner_max):
        b = neighbor_votes(W, rows)
        new = rows.copy()
        new[free] = s_inner_update(a_free, b[free], cfg.lam)
        delta = np.abs(new[free] - rows[free]).max()
        rows = new
        iters += 1
        if delta < cfg.inner_tol:
            break
    if delta >= cfg.inner_tol:
        warnings.append(f"inner loop hit inner_max={cfg.inner_max} (last delta {delta:.3e})")
    return S.replace_rows(rows), iters, warnings


def _entropy(rows):
    """sum_p s_p . log s_p with the 0 log 0 := 0 convention."""
    r = rows[rows > 0]
    return float(np.sum(r * np.log(r)))


def _pairwise_relaxed(W, rows, lam):
    """(lambda/2) * (sum_p d_p - sum_{p,q} w s_p.s_q), including the delta shift."""
    if lam == 0.0:
        return 0.0
    n = rows.shape[0]
    cross = float(np.sum(rows * (W.matrix @ rows)))
    total = float(W.degrees.sum()) - cross
    if W.diag_shift > 0.0:
        total += W.diag_shift * (n - float(np.einsum("ij,ij->", rows, rows)))
    return 0.5 * lam * total


def relaxed_objective(X, W: SparseAffinity, S, M: Prototypes, cfg: SolverConfig) -> float:
    """R(S, M): prototype term + concave Laplacian surrogate + entropy barrier."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    return _relaxed(W, rows, prototype_scores(X, M, cfg.rule, cfg.sigma2), cfg.lam)


def _relaxed(W, rows, a, lam):
    """R from the prototype scores a of M."""
    return -float(np.sum(rows * a)) + _pairwise_relaxed(W, rows, lam) + _entropy(rows)


def discrete_objective(X, W: SparseAffinity, S_hard, M: Prototypes, cfg: SolverConfig) -> float:
    """E(S, M) = F + (lambda/2) * pairwise penalty, defined on binary rows."""
    rows = np.asarray(getattr(S_hard, "rows", S_hard), dtype=np.float64)
    if not np.all((rows == 0.0) | (rows == 1.0)) or np.any(rows.sum(axis=1) != 1.0):
        raise DataError("discrete objective requires binary row-stochastic assignments")
    value = -float(np.sum(rows * prototype_scores(X, M, cfg.rule, cfg.sigma2)))
    if cfg.lam != 0.0:
        value += 0.5 * cfg.lam * laplacian_quadratic(W, rows)
    return value


def auxiliary_value(X, W: SparseAffinity, S, S_anchor, M: Prototypes, cfg: SolverConfig) -> float:
    """Upper bound A(S) = sum_p s_p.(log s_p - a_p - lambda*b_p(anchor)) + const.

    The constant (lambda/2) * (sum_p d_p + anchor'W anchor), dropped when
    deriving the per-point updates, is restored here so that A equals R
    exactly at the anchor. With it, A - R = (lambda/2) * q'Wq for q = S -
    anchor (flattened), hence A >= R whenever the shifted affinity is psd.
    """
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    anchor = np.asarray(getattr(S_anchor, "rows", S_anchor), dtype=np.float64)
    a = prototype_scores(X, M, cfg.rule, cfg.sigma2)
    value = _entropy(rows) - float(np.sum(rows * a))
    if cfg.lam != 0.0:
        b = neighbor_votes(W, anchor)
        value -= cfg.lam * float(np.sum(rows * b))
        anchor_quad = float(np.sum(anchor * b))
        degree_total = float(W.degrees.sum()) + W.diag_shift * rows.shape[0]
        value += 0.5 * cfg.lam * (degree_total + anchor_quad)
    return value


def _update_prototypes(P, S, M, cfg):
    warnings = []
    if cfg.rule == RULE_MEANS:
        M_new, empty = update_means(P.X, S.rows, prev=M)
        for k in np.nonzero(empty)[0]:
            warnings.append(f"cluster {int(k)}: zero mass, previous mean kept")
    else:
        M_new, _, mode_warnings = update_modes(P, S.rows, cfg.mode_config(), M)
        warnings.extend(mode_warnings)
    return M_new, warnings


def _refit_hard(P, W, S, M, cfg, warnings):
    """Round to hard labels, re-fit prototypes once, and evaluate E.

    A re-fit that fails keeps the soft prototypes M for E and says so in
    ``warnings``.
    """
    hard = SoftAssignment.from_hard(S.hard_labels(), S.k)
    try:
        M_hard, _ = _update_prototypes(P, hard, M, cfg)
    except DataError as exc:
        warnings.append(f"hard re-fit failed ({exc}); discrete objective uses the soft prototypes")
        M_hard = M
    return discrete_objective(P, W, hard.rows, M_hard, cfg)


def solve(X, W: SparseAffinity, M0: Prototypes, cfg: SolverConfig,
          S0: SoftAssignment | None = None, clamps=None):
    """Alternate assignment and prototype blocks until the relaxed objective settles.

    ``clamps`` is an optional list of (point_index, class) pairs whose rows are
    frozen one-hot; it cannot be combined with ``S0``, which carries its own
    clamps. Returns (SoftAssignment, Prototypes, SolveReport).

    X is validated and centered once, and the prototype scores are computed
    once per prototype state: the scores of R at the new prototypes are the
    ones the next assignment block starts from.
    """
    P = CenteredFeatures(X)
    n = P.X.shape[0]
    if W.n_points != n:
        raise DataError(f"graph has {W.n_points} points, features have {n}")
    if S0 is not None and clamps:
        raise DataError("clamps cannot be combined with S0; clamp the rows of S0 instead")
    M = M0
    k = M.k
    report = SolveReport()

    a = prototype_scores(P, M, cfg.rule, cfg.sigma2)
    if S0 is not None:
        S = S0
    else:
        rows = s_inner_update(a)
        if clamps:
            clamped, clamp_class = make_clamps(n, k, clamps)
            idx = np.nonzero(clamped)[0]
            rows[idx] = 0.0
            rows[idx, clamp_class[idx]] = 1.0
            S = SoftAssignment(rows=rows, clamped=clamped, clamp_class=clamp_class)
        else:
            S = SoftAssignment.unclamped(rows)

    r_prev = _relaxed(W, S.rows, a, cfg.lam)
    report.relaxed_trace.append(r_prev)
    report.inner_iters_per_outer.append(0)

    for _ in range(cfg.outer_max):
        S, inner_iters, w_inner = _s_block(W, a, S, cfg)
        M, w_proto = _update_prototypes(P, S, M, cfg)
        report.warnings.extend(w_inner)
        report.warnings.extend(w_proto)
        report.inner_iters_total += inner_iters
        report.inner_iters_per_outer.append(inner_iters)
        report.outer_iters += 1
        a = prototype_scores(P, M, cfg.rule, cfg.sigma2)
        r = _relaxed(W, S.rows, a, cfg.lam)
        report.relaxed_trace.append(r)
        if r > r_prev + 1e-9 * (1.0 + abs(r_prev)):
            report.warnings.append(
                f"relaxed objective increased at outer iteration {report.outer_iters} "
                f"({r_prev:.12g} -> {r:.12g}); affinity matrix may not be psd")
        if abs(r - r_prev) <= cfg.outer_tol * (1.0 + abs(r_prev)):
            r_prev = r
            break
        r_prev = r
    else:
        report.warnings.append(f"outer loop hit outer_max={cfg.outer_max}")

    report.discrete_objective = _refit_hard(P, W, S, M, cfg, report.warnings)
    return S, M, report


def kmeans_pp_seeds(X, k, rng) -> np.ndarray:
    """K-means++ seeding: iteratively sample centers by squared distance."""
    P = CenteredFeatures(X)
    n = P.X.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"need 1 <= k <= n_points, got k={k}, n={n}")
    centers = np.empty((k, P.X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = P.X[first]
    sqd = P.sqdist(centers[0:1])[:, 0]
    for j in range(1, k):
        total = sqd.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=sqd / total))
        centers[j] = P.X[idx]
        new = P.sqdist(centers[j:j + 1])[:, 0]
        np.minimum(sqd, new, out=sqd)
    return centers
