"""Block-coordinate bound optimizer for Laplacian-regularized prototypes.

The relaxed objective replaces hard assignments with simplex rows and adds a
negative-entropy barrier:

    R(S, M) = F(S, M) + (lambda/2) * (sum_p d_p - sum_{p,q} w(p,q) s_p.s_q)
              + sum_p s_p . log s_p

where F is the prototype term and the pairwise part is the linearizable
(concave, for psd affinities) form of the Laplacian penalty. The lambda/2
weight is what makes the closed-form row update softmax(a + lambda*b) the
exact minimizer of the per-point bound A(S; anchor) obtained by linearizing
-(lambda/2) s'Ws at an anchor. The discrete objective keeps its full weight,
E = F + (lambda/2) sum_{p,q} w ||s_p - s_q||^2; halving the relaxed pairwise
weight only reparameterizes the lambda scale, it does not change the family
of solutions swept as lambda varies.

Assignment rows are updated jointly (Jacobi style) by the closed-form softmax
minimizer of the per-point bound, so updates are order-independent and the
result does not depend on thread count.

Descent is certified sweep by sweep, for any symmetric affinity, without a
diagonal shift. The bound's gap is exact: A - R = (lambda/2) q'Wq with q the
sweep's change, and Wq is the difference of the votes after and before the
sweep, which the next sweep needs anyway. A sweep with q'Wq < 0 (possible when
W is not psd) is redone as softmax((a + lambda*b + c log anchor) / (1 + c)),
the minimizer of A + c KL(s || anchor); with c = lambda * max(0, max degree -
diag_shift), at least |lambda_min| by Gershgorin, Pinsker's inequality makes
that a majorization step, so R never rises inside an assignment block. So any
number of sweeps per block keeps the descent guarantee: ``inner_max`` is a
budget, and a block that spends it is counted, not warned about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import SparseAffinity, laplacian_quadratic
from .errors import DataError
from .prototypes import (
    ModeSolverConfig,
    Prototypes,
    RULE_MEANS,
    RULE_MODES,
    _centered,
    prototype_scores,
    update_means,
    update_modes,
)


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic N x K assignment with an optional per-row clamp.

    ``clamp_class`` holds each row's class, or -1 for a free row. Clamped rows
    are exact one-hots (support supervision) and are never touched by any
    update.
    """

    rows: np.ndarray
    clamp_class: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        clamp_class = np.asarray(self.clamp_class, dtype=np.int64)
        if rows.ndim != 2:
            raise DataError(f"assignment matrix must be 2-D, got {rows.shape}")
        n, k = rows.shape
        if clamp_class.shape != (n,):
            raise DataError("clamp_class must be length n_points")
        if rows.size:
            if rows.min() < 0 or not np.all(np.isfinite(rows)):
                raise DataError("assignment entries must be finite and >= 0")
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
                raise DataError("assignment rows must sum to 1 within 1e-9")
        idx = np.flatnonzero(clamp_class != -1)
        cls = clamp_class[idx]
        one_hot = cls[:, None] == np.arange(k)  # all False for a class out of range
        bad = (cls < 0) | (cls >= k) | np.any(rows[idx] != one_hot, axis=1)
        if bad.any():
            p, c = idx[bad][0], cls[bad][0]
            if not 0 <= c < k:
                raise DataError(f"clamp class {c} outside [0, {k})")
            raise DataError(f"clamped row {p} is not the one-hot of class {c}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "clamp_class", clamp_class)

    @property
    def clamped(self):
        """Rows with a class: the ones no update touches."""
        return self.clamp_class >= 0

    @property
    def k(self):
        return self.rows.shape[1]

    def hard_labels(self):
        """Row argmax; ties resolve to the lowest index."""
        return np.argmax(self.rows, axis=1)

    @staticmethod
    def unclamped(rows) -> "SoftAssignment":
        rows = np.asarray(rows, dtype=np.float64)
        return SoftAssignment(rows=rows, clamp_class=np.full(rows.shape[0], -1, dtype=np.int64))

    @staticmethod
    def from_hard(labels, k) -> "SoftAssignment":
        labels = np.asarray(labels, dtype=np.int64)
        rows = np.zeros((labels.shape[0], k))
        rows[np.arange(labels.shape[0]), labels] = 1.0
        return SoftAssignment.unclamped(rows)


def make_clamps(n_points, k, support):
    """The clamp_class array of (index, class) pairs: each point's class, -1 where
    it has none; one class per point."""
    clamp_class = np.full(n_points, -1, dtype=np.int64)
    for p, c in support:
        if not 0 <= p < n_points:
            raise DataError(f"clamp index {p} out of range")
        if not 0 <= c < k:
            raise DataError(f"clamp class {c} outside [0, {k})")
        if clamp_class[p] not in (-1, c):
            raise DataError(f"point {p} clamped to both class {clamp_class[p]} and class {c}")
        clamp_class[p] = c
    return clamp_class


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.0
    rule: str = RULE_MEANS
    sigma2: float | None = None
    inner_tol: float = 1e-6
    inner_max: int = 10  # sweeps per assignment block; every sweep is certified
    outer_tol: float = 1e-6
    outer_max: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise DataError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.rule not in (RULE_MEANS, RULE_MODES):
            raise DataError(f"unknown rule: {self.rule!r}")
        if self.sigma2 is not None and not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DataError("sigma2 must be finite and > 0 when given")
        if not all(np.isfinite(t) and t > 0 for t in (self.inner_tol, self.outer_tol)):
            raise DataError("tolerances must be finite and > 0")
        if min(self.inner_max, self.outer_max) < 1:
            raise DataError("iteration caps must be >= 1")


@dataclass
class SolveReport:
    relaxed_trace: list = field(default_factory=list)
    inner_iters_per_outer: list = field(default_factory=list)
    discrete_objective: float = np.nan
    outer_iters: int = 0
    inner_iters_total: int = 0
    inner_cap_hits: int = 0  # assignment blocks that spent inner_max sweeps
    redone_sweeps: int = 0  # sweeps whose bound gap was negative, redone with the KL term
    warnings: list = field(default_factory=list)


def neighbor_votes(W: SparseAffinity, S):
    """b_{p,k} = sum_q w(p,q) s_{q,k}, plus the diagonal-shift correction."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    b = W.matrix @ rows
    if W.diag_shift > 0.0:
        b += W.diag_shift * rows
    return b


def s_inner_update(a, b=None, lam=0.0):
    """Closed-form row minimizer: softmax(a + lambda*b), max-shifted for safety."""
    z = np.array(a, dtype=np.float64)
    if lam != 0.0 and b is not None:
        z += lam * np.asarray(b, dtype=np.float64)
    return _softmax_in_place(z)


def _softmax_in_place(z):
    """Row softmax of z, max-shifted, computed in place; returns z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def s_block(W: SparseAffinity, X, M: Prototypes, S: SoftAssignment, cfg: SolverConfig):
    """Inner assignment loop: Jacobi updates of all unclamped rows at once.

    The votes b are always computed from the previous inner iterate, so the
    update is synchronous and order-independent. Returns
    (SoftAssignment, n_inner_iters, n_redone_sweeps).
    """
    a = prototype_scores(X, M, cfg.rule, cfg.sigma2)
    rows, _, iters, redone, _ = _s_block(W, a, S.rows, ~S.clamped, cfg)
    return SoftAssignment(rows=rows, clamp_class=S.clamp_class), iters, redone


# A sweep is certified when q'Wq >= -_CERT_RTOL * max|q| * (total degree). The
# votes of a row sum to its degree (plus the shift), so that scale bounds
# sum |q| |b|; the rounding of the votes difference and of its dot with q is
# about (max degree + log2(N K)) eps times the scale, far below 1e-12 of it.
_CERT_RTOL = 1e-12


def _s_block(W, a, rows, free, cfg, b=None):
    """s_block on plain rows from the prototype scores a; only the ``free`` rows change.

    ``b``, when given, holds the votes of ``rows``; the block keeps the votes
    of its current rows in that one array. Returns (rows, b, iters, redone,
    delta): the votes of the returned rows (None at lambda 0), the sweeps made
    and how many of them were redone, and the last sweep's largest change. A
    block stops when that change is below ``inner_tol`` or after ``inner_max``
    sweeps.

    Each sweep is checked with the votes of its result, which the next sweep
    (or the next block: votes do not depend on the prototypes) starts from:
    its bound gap is (lambda/2) q'(b_next - b) over the free rows, the only
    ones where q is not 0. A sweep whose gap is negative is redone from the
    same anchor by ``_redo_sweep``, which costs two more products: the
    anchor's votes again, and the redone rows'.

    The free rows are addressed through one selector: a slice when they are
    contiguous (all rows when clustering, the queries after an episode's
    leading supports), otherwise their index array. The block works on one
    copy of ``rows``, so the caller's array is never written, and each sweep
    reuses two (n_free, K) buffers, the anchor's free rows and the new rows
    (then their change q). The votes difference is taken in b, whose anchor
    votes no later sweep reads: beyond the votes, a sweep allocates nothing
    N x K.
    """
    sel = _selector(free)
    if sel is None:
        return rows, b, 0, 0, 0.0
    rows = rows.copy()
    a_sel = a[sel]
    if cfg.lam == 0.0:
        rows[sel] = s_inner_update(a_sel)
        return rows, None, 1, 0, 0.0
    if b is None:
        b = neighbor_votes(W, rows)
    scale = _CERT_RTOL * (float(W.degrees.sum()) + W.diag_shift * rows.shape[0])
    z = np.empty_like(a_sel)
    anchor = np.empty_like(a_sel)
    redone = 0
    for iters in range(1, cfg.inner_max + 1):
        anchor[...] = rows[sel]
        np.multiply(b[sel], cfg.lam, out=z)
        z += a_sel
        _softmax_in_place(z)
        rows[sel] = z
        b_next = neighbor_votes(W, rows)
        z -= anchor
        delta = max(z.max(), -z.min())
        np.subtract(b_next, b, out=b)
        z *= b[sel]
        if z.sum() < -scale * delta:
            c = cfg.lam * max(0.0, float(W.degrees.max()) - W.diag_shift)
            if c > 0.0:  # else W + diag_shift is diagonally dominant: the gap is rounding
                rows[sel] = anchor
                del b_next  # the anchor's votes again, with two votes arrays alive at most
                b[...] = neighbor_votes(W, rows)
                _redo_sweep(z, a_sel, cfg.lam * b[sel], anchor, c)
                rows[sel] = z
                b_next = neighbor_votes(W, rows)
                z -= anchor
                delta = max(z.max(), -z.min())
                redone += 1
        b[...] = b_next  # in place: a caller's reference to b holds no stale votes
        del b_next
        if delta < cfg.inner_tol:
            break
    return rows, b, iters, redone, delta


def _redo_sweep(z, a_sel, lam_b, anchor, c):
    """z := softmax((a + lambda*b + c log anchor) / (1 + c)), the exact minimizer
    of the bound plus c KL(s || anchor). An anchor entry at 0 has log -inf and
    stays 0, without a log of 0 being taken."""
    z.fill(-np.inf)
    np.log(anchor, out=z, where=anchor > 0.0)
    z *= c
    z += a_sel
    z += lam_b
    z /= 1.0 + c
    _softmax_in_place(z)


def _selector(free):
    """The rows where ``free`` holds: a slice if they are contiguous, else an
    index array; None when there are none."""
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return None
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _entropy(rows):
    """sum_p s_p . log s_p with the 0 log 0 := 0 convention."""
    r = rows[rows > 0]
    return float(np.sum(r * np.log(r)))


def _pairwise_relaxed(W, rows, lam, b=None):
    """(lambda/2) * (sum_p d_p - sum_{p,q} w s_p.s_q), including the delta shift;
    ``b``, when given, holds the votes of ``rows``."""
    if lam == 0.0:
        return 0.0
    if b is None:
        b = neighbor_votes(W, rows)
    total = float(W.degrees.sum()) + W.diag_shift * rows.shape[0]
    return 0.5 * lam * (total - float(np.sum(rows * b)))


def relaxed_objective(X, W: SparseAffinity, S, M: Prototypes, cfg: SolverConfig) -> float:
    """R(S, M): prototype term + concave Laplacian surrogate + entropy barrier."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    return _relaxed(W, rows, prototype_scores(X, M, cfg.rule, cfg.sigma2), cfg.lam)


def _relaxed(W, rows, a, lam, b=None):
    """R from the prototype scores a of M (and the votes b of the rows, when given)."""
    return -float(np.sum(rows * a)) + _pairwise_relaxed(W, rows, lam, b) + _entropy(rows)


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


def _update_prototypes(P, rows, M, mode_cfg):
    """One prototype block: weighted means, or modes when ``mode_cfg`` is given."""
    if mode_cfg is not None:
        M_new, _, warnings = update_modes(P, rows, mode_cfg, M)
        return M_new, warnings
    M_new, empty = update_means(P, rows, prev=M)
    return M_new, [f"cluster {int(k)}: zero mass, previous mean kept"
                   for k in np.flatnonzero(empty)]


def _refit_hard(P, W, rows, M, cfg, mode_cfg, warnings):
    """Round to hard labels, re-fit prototypes once, and evaluate E.

    A re-fit that fails keeps the soft prototypes M for E and says so in
    ``warnings``.
    """
    hard = np.zeros_like(rows)
    hard[np.arange(rows.shape[0]), np.argmax(rows, axis=1)] = 1.0
    try:
        M_hard, _ = _update_prototypes(P, hard, M, mode_cfg)
    except DataError as exc:
        warnings.append(f"hard re-fit failed ({exc}); discrete objective uses the soft prototypes")
        M_hard = M
    return discrete_objective(P, W, hard, M_hard, cfg)


def solve(X, W: SparseAffinity, M0: Prototypes, cfg: SolverConfig, clamps=None):
    """Alternate assignment and prototype blocks until the relaxed objective settles.

    The rows start as the softmax of the scores of M0. ``clamps`` is an
    optional list of (point_index, class) pairs whose rows are set one-hot and
    frozen. Returns (SoftAssignment, Prototypes, SolveReport).

    X (or its CenteredFeatures) is centered once, the loop works on plain rows,
    and the prototype scores are computed once per prototype state: the scores
    of R at the new prototypes are the ones the next assignment block starts from.
    """
    P = _centered(X)
    n = P.X.shape[0]
    if W.n_points != n:
        raise DataError(f"graph has {W.n_points} points, features have {n}")
    # only symmetrize sets W.symmetric; any other graph gets one O(nnz) comparison
    if cfg.lam > 0.0 and not (W.symmetric or (W.matrix != W.matrix.T).nnz == 0):
        raise DataError(f"lambda={cfg.lam} > 0 needs a symmetric affinity graph, for the "
                        "bound's descent certificate; symmetrize it with mode 'max' or 'mean'")
    M = M0
    report = SolveReport()

    a = prototype_scores(P, M, cfg.rule, cfg.sigma2)
    mode_cfg = None if cfg.rule == RULE_MEANS else ModeSolverConfig(sigma2=cfg.sigma2)
    clamp_class = make_clamps(n, M.k, clamps or ())
    free = clamp_class < 0
    rows = s_inner_update(a)
    idx = np.flatnonzero(~free)
    rows[idx] = 0.0
    rows[idx, clamp_class[idx]] = 1.0

    # the votes of the current rows: each block starts from the previous one's,
    # and R at the block's end is evaluated from them
    b = neighbor_votes(W, rows) if cfg.lam != 0.0 else None
    r_prev = _relaxed(W, rows, a, cfg.lam, b)
    report.relaxed_trace.append(r_prev)
    report.inner_iters_per_outer.append(0)

    for _ in range(cfg.outer_max):
        rows, b, inner_iters, redone, delta = _s_block(W, a, rows, free, cfg, b)
        M, w_proto = _update_prototypes(P, rows, M, mode_cfg)
        report.warnings.extend(w_proto)
        report.inner_iters_total += inner_iters
        report.inner_iters_per_outer.append(inner_iters)
        report.inner_cap_hits += int(inner_iters == cfg.inner_max and delta >= cfg.inner_tol)
        report.redone_sweeps += redone
        report.outer_iters += 1
        a = prototype_scores(P, M, cfg.rule, cfg.sigma2)
        r = _relaxed(W, rows, a, cfg.lam, b)
        report.relaxed_trace.append(r)
        if r > r_prev + 1e-9 * (1.0 + abs(r_prev)):
            report.warnings.append(
                f"relaxed objective increased at outer iteration {report.outer_iters} "
                f"({r_prev:.12g} -> {r:.12g})")
        if abs(r - r_prev) <= cfg.outer_tol * (1.0 + abs(r_prev)):
            break
        r_prev = r
    else:
        report.warnings.append(f"outer loop hit outer_max={cfg.outer_max}")

    report.discrete_objective = _refit_hard(P, W, rows, M, cfg, mode_cfg, report.warnings)
    return SoftAssignment(rows=rows, clamp_class=clamp_class), M, report


def kmeans_pp_seeds(X, k, rng) -> np.ndarray:
    """K-means++ seeding: iteratively sample centers by squared distance."""
    P = _centered(X)
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
