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
result does not depend on thread count. With at most ``_CLUSTER_MAJOR_MAX_K``
(24) clusters the softmax runs on a cluster-major (K, n) copy of the scores,
so its max and sum are taken along N-long rows instead of K-long ones. The
sum keeps the row-major order, so the result is bitwise the row-major one,
and the votes product stays on the row-major rows.

Descent is certified sweep by sweep, for any symmetric affinity, without a
diagonal shift. The bound's gap is exact: A - R = (lambda/2) q'Wq with q the
sweep's change, and Wq is the difference of the votes after and before the
sweep, which the next sweep needs anyway. A sweep is one step,
softmax((a + lambda*b + c log anchor) / (1 + c)), the minimizer of
A + c KL(s || anchor); the plain sweep is c = 0. A sweep with q'Wq < 0
(possible when W is not psd) is redone from the same anchor and its votes at
c = lambda * max(0, max degree - diag_shift), at least |lambda_min| by
Gershgorin; Pinsker's inequality makes that a majorization step, so R never
rises inside an assignment block. So any
number of sweeps per block keeps the descent guarantee: ``inner_max`` is a
budget, and a block that spends it is counted, not warned about. The same
holds for the modes rule's prototype block: each mean-shift step raises every
cluster's kernel mass, so a block makes at most ``_MODE_STEPS`` of them, and a
cluster that spends them is counted in ``SolveReport.mode_cap_hits``. The
block starts from the current scores, which are the kernel matrix at the
current modes, and each step computes the full-width kernel at its new modes
once; the last one is the scores the next assignment block starts from, so an
outer iteration of the modes rule makes one distance product per mean-shift
step and no other. The hard re-fit behind E starts its mean-shift from the
loop's last scores too, so a modes ``solve`` makes one distance product for
the initial scores and one per mean-shift step, in the loop and in the
re-fit. On features a distance product is a d-wide GEMM. A few-shot episode
with N <= d points solves on their Gram matrix (``prototypes.GramPoints``),
where it is an N-wide product with G, and no step of the loop makes a d-wide
product at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .affinity import SparseAffinity, laplacian_quadratic
from .errors import DataError
from .io import _index, _integer_array
from .prototypes import (
    ModeSolverConfig,
    Prototypes,
    RULE_MEANS,
    RULE_MODES,
    _assignment_rows,
    _centered,
    _mean_shift,
    _selector,
    _weighted_means,
    prototype_scores,
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
        if rows.ndim != 2:
            raise DataError(f"assignment matrix must be 2-D, got {rows.shape}")
        n, k = rows.shape
        clamp_class = _clamp_array(self.clamp_class, n, k)
        if rows.size:
            if rows.min() < 0 or not np.all(np.isfinite(rows)):
                raise DataError("assignment entries must be finite and >= 0")
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
                raise DataError("assignment rows must sum to 1 within 1e-9")
        idx = np.flatnonzero(clamp_class >= 0)
        bad = np.any(rows[idx] != _one_hot(clamp_class[idx], k), axis=1)
        if bad.any():
            p = idx[bad][0]
            raise DataError(f"clamped row {p} is not the one-hot of class {clamp_class[p]}")
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
        """The one-hot rows of ``labels``, integers in [0, k)."""
        labels = _integer_array(np.asarray(labels), "labels")
        k = _index(k, "k")
        bad = (labels < 0) | (labels >= k)
        if bad.any():
            raise DataError(f"label {labels[bad][0]} outside [0, {k})")
        return SoftAssignment.unclamped(_one_hot(labels, k))


def _one_hot(labels, k):
    """The len(labels) x k float64 one-hot rows of int64 ``labels`` in [-1, k):
    a label's row is 1 in its column, and -1 (a free point) gets a zero row."""
    return (labels[:, None] == np.arange(k)).astype(np.float64)


def _clamp_array(clamp_class, n, k):
    """``clamp_class`` as an int64 array of shape (n,): each entry a class in
    [0, k), or -1 for a free point; a copy, so no caller's array is shared."""
    values = np.asarray(clamp_class)
    if values.shape != (n,):
        raise DataError(f"clamp_class must have shape ({n},), got {values.shape}")
    clamp_class = _integer_array(values, "clamp_class")
    bad = (clamp_class < -1) | (clamp_class >= k)
    if bad.any():
        raise DataError(f"clamp class {clamp_class[bad][0]} outside [0, {k})")
    return clamp_class


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.0
    rule: str = RULE_MEANS
    sigma2: float | None = None
    inner_tol: float = 1e-6
    # Sweeps per assignment block. Every sweep is certified, so this is a
    # budget, not a convergence test. On the N=10k means benchmark (d=10,
    # K=10, lambda=1; medians of 7 interleaved runs on 2 cores) budgets 3, 4
    # and 10 took 0.241, 0.239 and 0.314 s, and 3 changed its labels; budget 3
    # made a few-shot benchmark operation slower, 0.540 s against 0.502 s.
    inner_max: int = 4
    outer_tol: float = 1e-6
    outer_max: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise DataError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.rule not in (RULE_MEANS, RULE_MODES):
            raise DataError(f"unknown rule: {self.rule!r}")
        if self.sigma2 is not None:
            if self.rule == RULE_MEANS:
                raise DataError("sigma2 is read only by the modes rule; leave it unset for means")
            if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
                raise DataError("sigma2 must be finite and > 0 when given")
        if not all(np.isfinite(t) and t > 0 for t in (self.inner_tol, self.outer_tol)):
            raise DataError("tolerances must be finite and > 0")
        if min(_index(self.inner_max, "inner_max"), _index(self.outer_max, "outer_max")) < 1:
            raise DataError("iteration caps must be >= 1")


@dataclass
class SolveReport:
    relaxed_trace: list = field(default_factory=list)
    inner_iters_per_outer: list = field(default_factory=list)
    discrete_objective: float = np.nan
    # assignment blocks that spent inner_max sweeps with their last change still >= inner_tol
    inner_cap_hits: int = 0
    redone_sweeps: int = 0  # sweeps whose bound gap was negative, redone with the KL term
    mode_cap_hits: int = 0  # clusters that spent a prototype block's mean-shift steps
    stop_reason: str | None = None  # why the outer loop stopped: "tolerance" or "outer_max"
    warnings: list = field(default_factory=list)

    @property
    def outer_iters(self):
        return len(self.inner_iters_per_outer[1:])  # entry 0 is the initial point

    @property
    def inner_iters_total(self):
        return sum(self.inner_iters_per_outer)


def neighbor_votes(W: SparseAffinity, S):
    """b_{p,k} = sum_q w(p,q) s_{q,k}, plus the diagonal-shift correction.

    A symmetric dense graph's (see ``affinity.knn_graph``; a few-shot episode's
    or a small clustering run's) votes are the transpose of one BLAS product
    S^t A. That product adds each row's terms in column order, as the CSR
    product does, and every term is exact, so at the sizes
    ``affinity._DENSE_MAX_N`` admits the votes are the CSR product's bitwise.
    They are returned in C order, as the CSR product's are, so no later
    reduction over them sums in another order. Every other graph's votes,
    a directed dense one's too, are scipy's sparse product with its matrix.
    """
    rows = _assignment_rows(S, W.n_points, of="graph points")
    if W.dense is not None and W.symmetric:
        b = (rows.T @ W.dense).T.copy()
    else:
        b = W.matrix @ rows
    if W.diag_shift > 0.0:
        b += W.diag_shift * rows
    return b


def s_inner_update(a, b=None, lam=0.0):
    """Closed-form row minimizer: softmax(a + lambda*b), max-shifted for safety.
    b, when given, has a's shape."""
    z = np.array(a, dtype=np.float64)
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != z.shape:
            raise DataError(f"votes of shape {b.shape} for scores of shape {z.shape}")
        if lam != 0.0:
            z += lam * b
    return _softmax_in_place(z)


# Widest z whose softmax runs cluster-major. Per call on 10,000 rows (2-core
# VM, medians of 300) the (K, n) copy took 0.19 / 0.57 / 0.87 / 1.51 ms at
# K = 5 / 10 / 16 / 24, against 0.85 / 1.18 / 1.64 / 1.70 ms row-major; at
# K = 32 and 128 it was slower (3.08 against 2.36 ms, 14.1 against 5.2 ms).
_CLUSTER_MAJOR_MAX_K = 24


def _softmax_in_place(z):
    """Row softmax of z, max-shifted, computed in place; returns z.

    A 2-D z of at most ``_CLUSTER_MAJOR_MAX_K`` columns is worked on as a
    (K, n) copy, whose max, sum and divide run along contiguous N-long rows
    instead of K-long ones; the result is written back into z. The max, shift
    and ``exp`` are elementwise the row-major ones, and ``_row_major_sums``
    adds in the row-major order, so the result is bitwise the row-major
    softmax's.
    """
    if z.ndim == 2 and z.shape[1] <= _CLUSTER_MAJOR_MAX_K:
        zt = z.T.copy()
        zt -= zt.max(axis=0)
        np.exp(zt, out=zt)
        zt /= _row_major_sums(zt)
        z[...] = zt.T
        return z
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _row_major_sums(zt):
    """zt.sum(axis=0) of a (K, n) array, each column added in the order numpy
    sums a contiguous K-long row: in sequence below 8 terms; else terms j,
    j + 8, j + 16, ... into 8 running sums, combined as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then the last K mod 8
    terms in sequence (numpy's pairwise summation up to 128 terms). So it is
    bitwise the row sums of zt.T."""
    k = zt.shape[0]
    if k < 8:
        return zt.sum(axis=0)
    whole = k - k % 8
    s = zt[:8]
    for i in range(8, whole, 8):
        s = s + zt[i:i + 8]
    s = s[0::2] + s[1::2]
    s = s[0::2] + s[1::2]
    s = s[0] + s[1]
    for i in range(whole, k):
        s += zt[i]
    return s


def _scores(X, M: Prototypes, cfg: SolverConfig):
    """The prototype scores of M under cfg, whose rule must be M's."""
    if M.rule != cfg.rule:
        raise DataError(f"prototypes of rule {M.rule!r} under a solver of rule {cfg.rule!r}")
    return prototype_scores(X, M, cfg.sigma2)


def s_block(W: SparseAffinity, X, M: Prototypes, S: SoftAssignment, cfg: SolverConfig):
    """Inner assignment loop: Jacobi updates of all unclamped rows at once.

    The votes b are always computed from the previous inner iterate, so the
    update is synchronous and order-independent. Returns
    (SoftAssignment, n_inner_iters, n_redone_sweeps).
    """
    a = _scores(X, M, cfg)
    rows = _assignment_rows(S, *a.shape)
    rows, _, iters, redone, _ = _s_block(W, a, rows, _block_setup(W, ~S.clamped, cfg), cfg)
    return SoftAssignment(rows=rows, clamp_class=S.clamp_class), iters, redone


# A sweep is certified when q'Wq >= -_CERT_RTOL * max|q| * (total degree). The
# votes of a row sum to its degree (plus the shift), so that scale bounds
# sum |q| |b|; the rounding of the votes difference and of its dot with q is
# about (max degree + log2(N K)) eps times the scale, far below 1e-12 of it.
_CERT_RTOL = 1e-12


class _BlockSetup(NamedTuple):
    """What every assignment block of a solve reads and none changes."""

    sel: object  # the free rows, by ``_selector``: a slice, an index array, or None
    degree_total: float  # sum_p d_p + N delta: R's pairwise constant and the certificate's scale
    redo_c: float  # the KL weight of a redone sweep, lambda (max degree - delta)_+


def _block_setup(W, free, cfg):
    """The ``_BlockSetup`` of blocks on graph W whose ``free`` rows change."""
    return _BlockSetup(sel=_selector(free), degree_total=_degree_total(W),
                       redo_c=cfg.lam * max(0.0, float(W.degrees.max()) - W.diag_shift))


def _degree_total(W):
    """sum_p d_p + N delta, the degree total of W with its diagonal shift."""
    return float(W.degrees.sum()) + W.diag_shift * W.n_points


def _s_block(W, a, rows, setup, cfg, b=None):
    """s_block on plain rows from the prototype scores a; only the free rows
    (``setup.sel``) change.

    ``b``, when given, holds the votes of ``rows``; the block keeps the votes
    of its current rows in that one array. Returns (rows, b, iters, redone,
    delta): the votes of the returned rows (None at lambda 0), the sweeps made
    and how many of them were redone, and the last sweep's largest change. A
    block stops when that change is below ``inner_tol`` or after ``inner_max``
    sweeps.

    Each sweep is ``_sweep`` at KL weight 0, checked with the votes of its
    result, which the next sweep (or the next block: votes do not depend on
    the prototypes) starts from: its bound gap is (lambda/2) q'(b_next - b)
    over the free rows, the only ones where q is not 0. A sweep whose gap is
    negative is made again from the same anchor at ``setup.redo_c``, which
    costs one more product, the redone rows' votes. When ``redo_c`` is 0 no
    sweep could be redone, and the gap is not taken.

    ``setup`` holds what the block reads of the solve and does not change,
    made once per solve by ``_block_setup``: the certificate's scale, the
    redo's KL weight, and the free rows' selector, a slice when they are
    contiguous (all rows when clustering, the queries after an episode's
    leading supports), otherwise their index array. The block works on one
    copy of ``rows``, so the caller's array is never written, and its sweeps
    reuse three (n_free, K) buffers: the anchor's free rows, lambda times
    their votes, and the new rows (then their change q). The votes
    difference is taken in b, whose anchor votes no pass reads after it, and
    b is then bound to the new rows' votes: beyond the votes, a sweep
    allocates only the (K, n_free) copy of a cluster-major
    ``_softmax_in_place``.
    """
    sel = setup.sel
    if sel is None:
        return rows, b, 0, 0, 0.0
    rows = rows.copy()
    a_sel = a[sel]
    if cfg.lam == 0.0:
        rows[sel] = s_inner_update(a_sel)
        return rows, None, 1, 0, 0.0
    if b is None:
        b = neighbor_votes(W, rows)
    scale = _CERT_RTOL * setup.degree_total
    z = np.empty_like(a_sel)
    anchor = np.empty_like(a_sel)
    lam_b = np.empty_like(a_sel)
    redone = 0
    for iters in range(1, cfg.inner_max + 1):
        anchor[...] = rows[sel]
        np.multiply(b[sel], cfg.lam, out=lam_b)
        for c in (0.0, setup.redo_c):
            _sweep(z, a_sel, lam_b, anchor, c)
            rows[sel] = z
            b_next = neighbor_votes(W, rows)
            z -= anchor
            delta = max(z.max(), -z.min())
            if c == setup.redo_c:  # a redone sweep, or one no redo could replace
                break
            np.subtract(b_next, b, out=b)  # the anchor's votes live on in lam_b
            z *= b[sel]
            if not z.sum() < -scale * delta:
                break
        redone += c != 0.0
        b = b_next
        if delta < cfg.inner_tol:
            break
    return rows, b, iters, redone, delta


def _sweep(z, a_sel, lam_b, anchor, c):
    """z := softmax((a + lambda*b + c log anchor) / (1 + c)), the exact minimizer
    of the bound plus c KL(s || anchor); at c = 0, softmax(a + lambda*b), the
    plain sweep, with no log and no divide. An anchor entry at 0 has log -inf
    and, at c > 0, stays 0, without a log of 0 being taken."""
    if c == 0.0:
        np.add(a_sel, lam_b, out=z)
    else:
        z.fill(-np.inf)
        np.log(anchor, out=z, where=anchor > 0.0)
        z *= c
        z += a_sel
        z += lam_b
        z /= 1.0 + c
    _softmax_in_place(z)


def _entropy(rows):
    """sum_p s_p . log s_p with the 0 log 0 := 0 convention."""
    r = rows if rows.all() else rows[rows > 0]  # no masked copy when no entry is 0
    return float(np.sum(r * np.log(r)))


def _pairwise_relaxed(W, rows, lam, degree_total, b=None):
    """(lambda/2) * (sum_p d_p - sum_{p,q} w s_p.s_q), including the delta shift,
    from W's ``_degree_total``; ``b``, when given, holds the votes of ``rows``."""
    if lam == 0.0:
        return 0.0
    if b is None:
        b = neighbor_votes(W, rows)
    return 0.5 * lam * (degree_total - float(np.sum(rows * b)))


def relaxed_objective(X, W: SparseAffinity, S, M: Prototypes, cfg: SolverConfig) -> float:
    """R(S, M): prototype term + concave Laplacian surrogate + entropy barrier."""
    a = _scores(X, M, cfg)
    return _relaxed(W, _assignment_rows(S, *a.shape), a, cfg.lam, _degree_total(W))


def _relaxed(W, rows, a, lam, degree_total, b=None):
    """R from the prototype scores a of M and W's ``_degree_total`` (and the
    votes b of the rows, when given)."""
    return (-float(np.sum(rows * a)) + _pairwise_relaxed(W, rows, lam, degree_total, b)
            + _entropy(rows))


def discrete_objective(X, W: SparseAffinity, S_hard, M: Prototypes, cfg: SolverConfig) -> float:
    """E(S, M) = F + (lambda/2) * pairwise penalty, defined on binary rows."""
    a = _scores(X, M, cfg)
    rows = _assignment_rows(S_hard, *a.shape)
    if not np.all((rows == 0.0) | (rows == 1.0)) or np.any(rows.sum(axis=1) != 1.0):
        raise DataError("discrete objective requires binary row-stochastic assignments")
    return _discrete(W, rows, a, cfg.lam)


def _discrete(W, rows, a, lam):
    """E on binary rows from the prototype scores a of M."""
    value = -float(np.sum(rows * a))
    if lam != 0.0:
        value += 0.5 * lam * laplacian_quadratic(W, rows)
    return value


def auxiliary_value(X, W: SparseAffinity, S, S_anchor, M: Prototypes, cfg: SolverConfig) -> float:
    """Upper bound A(S) = sum_p s_p.(log s_p - a_p - lambda*b_p(anchor)) + const.

    The constant (lambda/2) * (sum_p d_p + anchor'W anchor), dropped when
    deriving the per-point updates, is restored here so that A equals R
    exactly at the anchor. With it, A - R = (lambda/2) * q'Wq for q = S -
    anchor (flattened), hence A >= R whenever the shifted affinity is psd.
    """
    a = _scores(X, M, cfg)
    rows = _assignment_rows(S, *a.shape)
    anchor = _assignment_rows(S_anchor, *a.shape)
    value = _entropy(rows) - float(np.sum(rows * a))
    if cfg.lam != 0.0:
        b = neighbor_votes(W, anchor)
        value -= cfg.lam * float(np.sum(rows * b))
        anchor_quad = float(np.sum(anchor * b))
        value += 0.5 * cfg.lam * (_degree_total(W) + anchor_quad)
    return value


def _update_prototypes(P, rows, M, mode_cfg, a):
    """One prototype block: weighted means, or mean-shift from M when
    ``mode_cfg`` (the solve's, made once) is given, starting from ``a``, the
    kernel matrix at M (the scores of M). Returns (Prototypes, scores,
    warnings, mode_cap_hits): the new prototypes, unchecked, as they are made
    from the loop's validated inputs; their scores, which under modes are
    mean-shift's last kernel matrix; and the clusters that spent
    ``mode_cfg.max_iters`` steps, counted, not warned about.
    """
    if mode_cfg is not None:
        M_new, a_new, _, zero_mass, capped = _mean_shift(P, rows, mode_cfg, M, a)
        return M_new, a_new, [f"cluster {int(k)}: zero assignment mass, mode kept"
                              for k in np.flatnonzero(zero_mass)], int(np.count_nonzero(capped))
    values, empty = _weighted_means(P, rows, M)
    M_new = Prototypes._of_valid(values, RULE_MEANS)
    return M_new, prototype_scores(P, M_new), [f"cluster {int(k)}: zero mass, previous mean kept"
                                               for k in np.flatnonzero(empty)], 0


def _refit_hard(P, W, rows, M, a, cfg):
    """Round to hard labels, re-fit prototypes once, and evaluate E.

    ``a`` is the loop's last scores, those of M. Under modes the re-fit runs
    mean-shift from M, with ``a`` as the kernel matrix at M, to convergence
    (or to ``ModeSolverConfig``'s default cap), not within the loop's budget,
    so E is taken at converged modes, from the scores the re-fit returns. The
    re-fit cannot fail: a cluster the rounding leaves empty keeps its
    prototype in M. Returns (E, warnings): the re-fit's warnings, and one when
    a cluster spent the mean-shift cap, each prefixed "hard re-fit: ".
    """
    hard = _one_hot(np.argmax(rows, axis=1), rows.shape[1])
    mode_cfg = None if cfg.rule == RULE_MEANS else ModeSolverConfig(sigma2=cfg.sigma2)
    _, a_hard, warned, capped = _update_prototypes(P, hard, M, mode_cfg, a)
    if capped:
        warned.append(f"mode solver hit max_iters={mode_cfg.max_iters} in {capped} cluster(s)")
    return _discrete(W, hard, a_hard, cfg.lam), [f"hard re-fit: {w}" for w in warned]


def solve(X, W: SparseAffinity, M0: Prototypes, cfg: SolverConfig, clamp_class=None):
    """Alternate assignment and prototype blocks until the relaxed objective settles.

    The rows start as the softmax of the scores of M0, whose rule must be
    ``cfg.rule``. ``clamp_class``, when given, holds one entry per point: its
    class in [0, K), whose one-hot row is frozen, or -1 for a free point. Both
    are checked before the first sweep. Returns (SoftAssignment, Prototypes,
    SolveReport).

    X (or its CenteredFeatures) is centered once, the loop works on plain rows,
    and the prototype scores are computed once per prototype state: the scores
    of R at the new prototypes are the ones the next assignment block starts
    from. Under modes they are mean-shift's last kernel matrix. X may also be
    a prepared episode's GramPoints, with M0 as coefficient rows over its
    points; the returned prototypes are then coefficient rows too.

    After the loop, the rows are rounded to hard labels, the prototypes are
    re-fit to them once, and ``SolveReport.discrete_objective`` is E there;
    the re-fit's warnings join the loop's in ``SolveReport.warnings``.
    Few-shot episodes read only the labels, so ``run_episode`` runs the loop
    without this re-fit and its report's E stays NaN.
    """
    P = _centered(X)
    n = P.n_points
    if W.n_points != n:
        raise DataError(f"graph has {W.n_points} points, features have {n}")
    # a graph from symmetrize is marked symmetric; any other gets one O(nnz) comparison
    if cfg.lam > 0.0 and not (W.symmetric or (W.matrix != W.matrix.T).nnz == 0):
        raise DataError(f"lambda={cfg.lam} > 0 needs a symmetric affinity graph, for the "
                        "bound's descent certificate; symmetrize it with mode 'max' or 'mean'")
    clamp_class = _clamp_array(np.full(n, -1) if clamp_class is None else clamp_class, n, M0.k)
    rows, M, a, report = _solve_loop(P, W, M0, cfg, clamp_class)
    report.discrete_objective, refit_warnings = _refit_hard(P, W, rows, M, a, cfg)
    report.warnings.extend(refit_warnings)
    return SoftAssignment(rows=rows, clamp_class=clamp_class), M, report


# Mean-shift steps per prototype block of the loop. Each step is a bound
# optimization step on sum_p s_pk k(x_p, m_k) (Fashing & Tomasi 2005), so the
# relaxed objective cannot rise however few a block makes; the block starts
# from the previous modes. At the default inner budget of 4, caps of 2, 3, 5
# and 100 steps give the same labels on the few-shot and CLI benchmark
# workloads, and the CLI's E differs between them only in its last digit; at
# 1, few-shot labels move. One few-shot benchmark operation takes a median of
# 0.50 s at 2 steps against 0.54 s at 3 (2-core VM, 5 interleaved runs each).
_MODE_STEPS = 2


def _solve_loop(P, W, M0, cfg, clamp_class):
    """``solve`` without its checks and its hard re-fit, on inputs it would
    accept: centered features, a graph of their size (symmetric when lambda >
    0) and an int64 ``clamp_class`` in [-1, K). Returns (rows, Prototypes,
    scores, SolveReport): the scores of the returned prototypes, which the
    hard re-fit starts from, and the report with E unset (NaN) and
    ``stop_reason`` set: "tolerance" when R settled, "outer_max" at the cap.

    What no block changes is made once, before the first: the blocks' setup
    (free rows, certificate scale, redo weight; ``_block_setup``), whose
    degree total R's pairwise term reads too, and the mean-shift budget. The
    prototypes a block makes are not checked again: they are averages of the
    validated points. R at the initial point is checked before the first
    sweep: under means its sum of N x K finite squared distances can overflow,
    and that is a DataError, with numpy's overflow warning held back. A
    non-finite R later stops the loop with a DataError too.
    """
    M = M0
    report = SolveReport()

    a = _scores(P, M, cfg)
    mode_cfg = (None if cfg.rule == RULE_MEANS
                else ModeSolverConfig(sigma2=cfg.sigma2, max_iters=_MODE_STEPS))
    free = clamp_class < 0
    setup = _block_setup(W, free, cfg)
    rows = s_inner_update(a)
    rows[~free] = _one_hot(clamp_class[~free], rows.shape[1])

    # the votes of the current rows: each block starts from the previous one's,
    # and R at the block's end is evaluated from them
    b = neighbor_votes(W, rows) if cfg.lam != 0.0 else None
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        r_prev = _relaxed(W, rows, a, cfg.lam, setup.degree_total, b)
    if not np.isfinite(r_prev):
        raise DataError(f"relaxed objective overflows to {r_prev} at the initial point: "
                        "its sum of squared distances exceeds the float64 range; "
                        "scale the features down")
    report.relaxed_trace.append(r_prev)
    report.inner_iters_per_outer.append(0)

    for _ in range(cfg.outer_max):
        rows, b, inner_iters, redone, delta = _s_block(W, a, rows, setup, cfg, b)
        M, a, w_proto, mode_cap_hits = _update_prototypes(P, rows, M, mode_cfg, a)
        report.warnings.extend(w_proto)
        report.inner_iters_per_outer.append(inner_iters)
        report.inner_cap_hits += int(inner_iters == cfg.inner_max and delta >= cfg.inner_tol)
        report.redone_sweeps += redone
        report.mode_cap_hits += mode_cap_hits
        r = _relaxed(W, rows, a, cfg.lam, setup.degree_total, b)
        report.relaxed_trace.append(r)
        if not np.isfinite(r):
            raise DataError(f"relaxed objective is {r} at outer iteration {report.outer_iters}")
        if r > r_prev + 1e-9 * (1.0 + abs(r_prev)):
            report.warnings.append(
                f"relaxed objective increased at outer iteration {report.outer_iters} "
                f"({r_prev:.12g} -> {r:.12g})")
        if abs(r - r_prev) <= cfg.outer_tol * (1.0 + abs(r_prev)):
            report.stop_reason = "tolerance"
            break
        r_prev = r
    else:
        report.stop_reason = "outer_max"
        report.warnings.append(f"outer loop hit outer_max={cfg.outer_max}")
    return rows, M, a, report


def kmeans_pp_seeds(X, k, rng) -> np.ndarray:
    """K-means++ seeding: iteratively sample centers by squared distance."""
    P = _centered(X)
    n = P.X.shape[0]
    k = _index(k, "k")
    if not 1 <= k <= n:
        raise DataError(f"need 1 <= k <= n_points, got k={k}, n={n}")
    centers = np.empty((k, P.X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = P.X[first]
    sqd = P.sqdist(centers[0:1])[:, 0]
    for j in range(1, k):
        with np.errstate(over="ignore"):
            total = sqd.sum()
        weights = sqd
        if total == np.inf:  # the sum of N finite terms overflows; that of 1/N of each does not
            weights = sqd / n
            total = weights.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centers[j] = P.X[idx]
        new = P.sqdist(centers[j:j + 1])[:, 0]
        np.minimum(sqd, new, out=sqd)
    return centers
