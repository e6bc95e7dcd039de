"""Block-coordinate bound optimizer for Laplacian-regularized prototypes.

On simplex rows S and prototypes M the relaxed objective is

    R(S, M) = F(S, M) + (lambda/2) * (sum_p d_p - sum_{p,q} w(p,q) s_p.s_q)
              + sum_p s_p . log s_p,

F being the prototype term; the discrete objective on hard rows is
E = F + (lambda/2) sum_{p,q} w(p,q) ||s_p - s_q||^2. The lambda/2 weight makes
softmax(a + lambda*b) the exact minimizer of R's bound linearized at an
anchor; it rescales lambda and leaves the family of solutions unchanged.

``solve`` alternates two blocks until R settles, then rounds the rows and
re-fits once for E (``_refit_hard``):

- assignments (``_s_block``): Jacobi sweeps of every free row at once, so the
  result does not depend on row order or thread count. Each sweep certifies
  its own descent, so ``inner_max`` is a budget, not a convergence test;
- prototypes (``_update_prototypes``): weighted means, or at most
  ``_MODE_STEPS`` mean-shift steps, each of which also lowers R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .affinity import SparseAffinity, laplacian_quadratic
from .errors import DataError
from .io import _index, _integer_array, _real
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

    ``clamp_class`` holds each row's class, or -1 for a free row. A clamped
    row is the exact one-hot of its class, and no update touches it.
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
    """Settings of ``solve``, checked when made.

    ``lam``: the Laplacian weight lambda, finite and >= 0.
    ``rule``: ``RULE_MEANS`` or ``RULE_MODES``, the prototype update.
    ``sigma2``: the modes kernel width, finite and > 0; unset under means, and
    required by a modes solve (``estimate_sigma2`` gives one).
    ``inner_tol``: an assignment block stops once no entry changes this much.
    ``inner_max``: sweeps per assignment block, a budget, since every sweep is
    certified. On the N=10k means benchmark (2-core VM, medians of 7) 4 took
    0.261 s, 3 took 0.258 s and changed the labels, and 10 took 0.375 s.
    ``outer_tol``: the loop stops once R moves by at most outer_tol (1 + |R|).
    ``outer_max``: outer iterations before the loop stops with a warning.
    """
    lam: float = 0.0
    rule: str = RULE_MEANS
    sigma2: float | None = None
    inner_tol: float = 1e-6
    inner_max: int = 4
    outer_tol: float = 1e-6
    outer_max: int = 100

    def __post_init__(self):
        lam = _real(self.lam, "lambda")
        if not (np.isfinite(lam) and lam >= 0):
            raise DataError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.rule not in (RULE_MEANS, RULE_MODES):
            raise DataError(f"unknown rule: {self.rule!r}")
        if self.sigma2 is not None:
            if self.rule == RULE_MEANS:
                raise DataError("sigma2 is read only by the modes rule; leave it unset for means")
            sigma2 = _real(self.sigma2, "sigma2")
            if not (np.isfinite(sigma2) and sigma2 > 0):
                raise DataError("sigma2 must be finite and > 0 when given")
        tols = (_real(self.inner_tol, "inner_tol"), _real(self.outer_tol, "outer_tol"))
        if not all(np.isfinite(t) and t > 0 for t in tols):
            raise DataError("tolerances must be finite and > 0")
        if min(_index(self.inner_max, "inner_max"), _index(self.outer_max, "outer_max")) < 1:
            raise DataError("iteration caps must be >= 1")


@dataclass
class SolveReport:
    """What one solve did.

    ``relaxed_trace``: R at the initial point and after each outer iteration.
    ``inner_iters_per_outer``: sweeps per outer iteration, 0 at the initial point.
    ``discrete_objective``: E after the hard re-fit; NaN when none was made.
    ``inner_cap_hits``: assignment blocks that spent ``inner_max`` sweeps with
    their last change still >= ``inner_tol``.
    ``redone_sweeps``: sweeps whose bound gap was negative, redone with the KL term.
    ``mode_cap_hits``: clusters that spent a prototype block's mean-shift steps.
    ``stop_reason``: why the outer loop stopped, "tolerance" or "outer_max".
    ``warnings``: numerical warnings, the hard re-fit's prefixed "hard re-fit: ".
    """

    relaxed_trace: list = field(default_factory=list)
    inner_iters_per_outer: list = field(default_factory=list)
    discrete_objective: float = np.nan
    inner_cap_hits: int = 0
    redone_sweeps: int = 0
    mode_cap_hits: int = 0
    stop_reason: str | None = None
    warnings: list = field(default_factory=list)

    @property
    def outer_iters(self):
        return len(self.inner_iters_per_outer[1:])  # entry 0 is the initial point

    @property
    def inner_iters_total(self):
        return sum(self.inner_iters_per_outer)


def neighbor_votes(W: SparseAffinity, S):
    """b_{p,k} = sum_q w(p,q) s_{q,k}, plus diag_shift * s_{p,k}.

    A symmetric dense graph's votes are the transpose of one BLAS product
    S^t A, bitwise the CSR product's (see ``affinity._DENSE_MAX_N``), copied
    to C order so that later sums over them add in the CSR product's order.
    Every other graph's votes are scipy's sparse product.
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


# Widest z whose softmax runs cluster-major. Per call on 10,000 rows (2-core VM,
# medians of 300) the (K, n) copy was faster up to K = 24 (1.51 against 1.70 ms)
# and slower from K = 32 (3.08 against 2.36 ms).
_CLUSTER_MAJOR_MAX_K = 24


def _softmax_in_place(z):
    """Row softmax of z, max-shifted, in place; returns z. Up to
    ``_CLUSTER_MAJOR_MAX_K`` columns it reduces along the N-long rows of a
    (K, n) copy, and ``_row_major_sums`` keeps it bitwise the row-major one."""
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
    """zt.sum(axis=0) of a (K, n) array, bitwise the row sums of zt.T: each
    column adds as numpy sums a contiguous K-long row, in sequence below 8
    terms, else terms j, j + 8, ... into 8 running sums, combined as ((s0 + s1)
    + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then the last K mod 8 in sequence."""
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
    """One assignment block: Jacobi sweeps of every unclamped row at once, each
    from the votes of the previous sweep's rows. Returns (SoftAssignment,
    n_inner_iters, n_redone_sweeps).
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
    """``s_block`` on plain rows and scores a, changing the rows ``setup.sel``
    of a copy. Returns (rows, b, iters, redone, delta): b, like the argument,
    holds the votes of the rows (None at lambda 0), and delta the last sweep's
    largest change; the block stops when it is below ``inner_tol``.

    Descent certificate: a sweep's bound gap is exactly A - R =
    (lambda/2) q'Wq for its change q, and Wq is the votes after the sweep
    minus those before, which the next sweep reads anyway. A sweep whose gap is
    negative (W not psd) is made again from the same anchor at KL weight
    ``setup.redo_c``, at least |lambda_min(W)| by Gershgorin; by Pinsker's
    inequality that step majorizes R, so R never rises inside a block. A sweep
    makes one votes product, and a redone one a second.
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
    """z := softmax((a + lambda*b + c log anchor) / (1 + c)), the minimizer of
    the bound plus c KL(s || anchor); c = 0 is the plain sweep, with no log and
    no divide. An anchor entry at 0 stays 0, and no log of 0 is taken."""
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

    The constant (lambda/2) * (sum_p d_p + anchor'W anchor) makes A equal R at
    the anchor, so A - R = (lambda/2) q'Wq for q = S - anchor, and A >= R
    whenever the shifted affinity is psd.
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
    """One prototype block from M, whose scores are ``a``: weighted means, or
    mean-shift under ``mode_cfg``. Returns (Prototypes, scores, warnings,
    mode_cap_hits); the prototypes, averages of valid points, are unchecked."""
    if mode_cfg is not None:
        M_new, a_new, _, zero_mass, capped = _mean_shift(P, rows, mode_cfg, M, a)
        return M_new, a_new, [f"cluster {int(k)}: zero assignment mass, mode kept"
                              for k in np.flatnonzero(zero_mass)], int(np.count_nonzero(capped))
    values, empty = _weighted_means(P, rows, M)
    M_new = Prototypes._of_valid(values, RULE_MEANS)
    return M_new, prototype_scores(P, M_new), [f"cluster {int(k)}: zero mass, previous mean kept"
                                               for k in np.flatnonzero(empty)], 0


def _refit_hard(P, W, rows, M, a, cfg):
    """Round the rows to hard labels, re-fit the prototypes once, and return
    (E, warnings). Under modes the re-fit's mean-shift starts from M and its scores ``a`` and
    runs to ``ModeSolverConfig``'s default cap, so E is taken at converged
    modes. A cluster the rounding empties keeps its prototype. The warnings,
    with one for clusters that spent the cap, are prefixed "hard re-fit: ".
    """
    hard = _one_hot(np.argmax(rows, axis=1), rows.shape[1])
    mode_cfg = None if cfg.rule == RULE_MEANS else ModeSolverConfig(sigma2=cfg.sigma2)
    _, a_hard, warned, capped = _update_prototypes(P, hard, M, mode_cfg, a)
    if capped:
        warned.append(f"mode solver hit max_iters={mode_cfg.max_iters} in {capped} cluster(s)")
    return _discrete(W, hard, a_hard, cfg.lam), [f"hard re-fit: {w}" for w in warned]


def solve(X, W: SparseAffinity, M0: Prototypes, cfg: SolverConfig, clamp_class=None):
    """Alternate assignment and prototype blocks until R settles; returns
    (SoftAssignment, Prototypes, SolveReport).

    The rows start as the softmax of the scores of M0, whose rule must be
    ``cfg.rule``. ``clamp_class``, one entry per point, is the class whose
    one-hot row stays frozen, or -1 for a free point. X may be features, their
    CenteredFeatures, or a GramPoints with M0 as coefficient rows. Scores are
    computed once per prototype state, so a modes solve makes one distance
    product for the first scores and one per mean-shift step, re-fit included.
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


# Mean-shift steps per prototype block of the loop; each step lowers R (Fashing
# & Tomasi 2005). Caps of 2, 3, 5 and 100 give the same benchmark labels, and 1
# moves few-shot labels. A few-shot benchmark operation took 0.58 s at 2 steps
# against 0.61 s at 3 (2-core VM, medians of 7 interleaved).
_MODE_STEPS = 2


def _solve_loop(P, W, M0, cfg, clamp_class):
    """``solve`` without its checks and hard re-fit, on inputs it would accept:
    (rows, Prototypes, their scores, SolveReport with E unset). A non-finite R
    is a DataError, also at the initial point, where a means objective's sum
    of N x K finite squared distances can overflow."""
    M = M0
    report = SolveReport()

    a = _scores(P, M, cfg)
    mode_cfg = (None if cfg.rule == RULE_MEANS
                else ModeSolverConfig(sigma2=cfg.sigma2, max_iters=_MODE_STEPS))
    free = clamp_class < 0
    setup = _block_setup(W, free, cfg)
    rows = s_inner_update(a)
    rows[~free] = _one_hot(clamp_class[~free], rows.shape[1])

    # the current rows' votes: each block starts from them, and R reads them
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
