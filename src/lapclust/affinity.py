"""Sparse neighborhood affinities and graph-Laplacian quantities.

The affinity graph connects each point to its rho nearest neighbors (squared
Euclidean distance, binary weights). Neighbor sets are exact under the
package's one centered kernel (``prototypes.CenteredFeatures``), which keeps
them exact far from the origin; ties are broken toward the lower point index
for cross-platform determinism. The search takes one of two paths, chosen on
the feature dimension d:

- d <= ``_TREE_MAX_DIM`` (10): a kd-tree (``scipy.spatial.cKDTree``, Friedman,
  Bentley & Finkel 1977) finds each point's rho + 1 nearest others. A row whose
  rho-th and (rho+1)-th lie within the kernel's rounding of each other
  (``_near_tie``) is searched again by the exact pass; every other row's
  distances are recomputed by the kernel's expansion pair by pair, so they can
  differ from the exact pass's GEMM values in the last bits (and sigma^2 with
  them). Memory is a few N x (rho + 2) arrays.
- wider features: brute force in row blocks of at most 8 MB
  (``_CHUNK_BUDGET`` float64 distances, or twice as many float32 ones),
  written in place into two buffers allocated once per search pass, so its
  memory is bounded by that budget whatever N is and no dense N x N matrix is
  ever materialized. When N holds more than
  rho + 1 strided groups of ``_GROUP_SIZE`` columns, the search has three
  stages, as FAISS ranks by a single-precision product (Johnson, Douze &
  Jegou 2019) and the tree path certifies its rows:
  1. a float32 prefilter: blocks of half distances in single precision, twice
     the rows per block, keep each row's rho + 1 + ``_SPARE`` candidates and
     the next float32 value as a threshold;
  2. a float64 re-rank of the candidates by the kernel's expansion pair by
     pair, as on the tree path;
  3. the exact pass for every row the re-rank cannot certify: a tie or near
     tie at the cut, a (rho+1)-th within float32 rounding of the threshold,
     or a scale where float32 overflows or underflows.
  The exact pass, which is the whole search of a smaller N (every few-shot
  episode), fills float64 blocks with half distances, made by the product and
  two elementwise passes; only the entries a row keeps are doubled and
  clamped, which gives the kernel's GEMM values bitwise. A row's rho + 1
  nearest are selected in two stages: the minimum of each strided group of
  columns, then only the groups with the smallest minima (``_nearest_columns``,
  which also picks the prefilter's candidates). Only a row whose rho-th and
  (rho+1)-th distances are equal takes the tie pass.

The threshold is measured (N=10k, rho=5, one core of a 2-core VM, best of 3,
two runs): on unclustered Gaussians the tree takes 0.71-0.79 / 1.12-1.15 /
1.11-1.20 s at d = 10 / 11 / 12, against 0.65-0.75 / 0.57-0.75 / 0.67-0.69 s
for brute force; on clustered blobs it takes about 0.2 s at those d, against
0.63-0.75 s. At d = 10 the tree is 3x faster on clustered data and about as
fast on unclustered data, so the tree keeps d <= 10. At d=128 the tree took
18.6 s, against 2.5 s for the brute force before its two-stage selection.
These brute-force times predate the float32 prefilter. At N=10k, d=128
(clustered, rho=5, best of 5) the prefiltered search takes 0.52 s on one BLAS
thread and 0.44 s on two, against 0.91 and 0.61 s for the exact pass alone.

A graph is built from its matrix alone, checked in full; its degrees are the
row sums. Only ``knn_graph`` attaches its search distances, from which
``estimate_sigma2`` takes the kernel width without a second search. Only
``with_diag_shift`` sets a shift, and only ``symmetrize`` marks a graph
``symmetric`` (``solve`` compares any other graph with its transpose); both
derive valid graphs from a checked one and skip that O(nnz) check. Every
function here that takes a feature matrix also accepts a ``CenteredFeatures``,
so a caller that already centered X does not do it again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError, DegenerateDataError
from .prototypes import _centered, _half_sqdist

_CHUNK_BUDGET = 1_000_000  # float64 distances per search block; a float32 block holds twice as many
_GROUP_SIZE = 32  # columns per strided group of the two-stage selection
_TREE_MAX_DIM = 10  # widest features searched by kd-tree; from d=11 brute force is faster
# Candidates a prefiltered row keeps beyond its rho + 1. On the CLI benchmark's
# input (N=10k, d=128, rho=5) 0 leaves 100 rows to the exact pass and 1 or 2
# none; each spare costs about 3% of the prefilter's time.
_SPARE = 2
_F32 = np.finfo(np.float32)
SYM_MODES = ("max", "mean")  # elementwise max or mean of W and its transpose


@dataclass(frozen=True)
class SparseAffinity:
    """CSR affinity graph, built from its matrix alone.

    Every other field is set by the one function that computes it: ``degrees``
    (the row sums) here, ``knn_sqdist`` (the N x rho squared distances of the
    search; None on a graph built directly) by ``knn_graph``, ``diag_shift``
    (the psd correction, never stored as edges) by ``with_diag_shift``, and
    ``symmetric`` by ``symmetrize``.
    """

    matrix: sp.csr_matrix
    degrees: np.ndarray = field(init=False)
    diag_shift: float = field(default=0.0, init=False)
    symmetric: bool = field(default=False, init=False)
    knn_sqdist: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise DataError(f"affinity matrix must be square, got {m.shape}")
        if m.nnz and (not np.all(np.isfinite(m.data)) or m.data.min() < 0):
            raise DataError("affinity weights must be finite and >= 0")
        if m.diagonal().any():
            raise DataError("affinity graph must not contain self-loops")
        object.__setattr__(self, "degrees", np.asarray(m.sum(axis=1)).ravel())

    @property
    def n_points(self):
        return self.matrix.shape[0]

    def with_diag_shift(self, delta: float) -> "SparseAffinity":
        delta = float(delta)
        if delta < 0:
            raise DataError("diag_shift must be >= 0")
        return _derived(self, diag_shift=delta)


def _derived(W, **changes):
    """W with ``changes`` applied, skipping the O(nnz) checks of ``__post_init__``.

    Only for graphs derived from a checked one whose edges stay finite,
    non-negative, loop-free and summed into ``degrees`` by construction.
    """
    out = copy.copy(W)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


def _neighbor_search(X, rho):
    """Exact rho-NN per row. Returns (indices, sqdists), both (N, rho), each row
    in (distance, index) order.

    Features of at most ``_TREE_MAX_DIM`` columns are searched with a kd-tree
    (``_tree_search``), wider ones by blocked brute force (``_brute_search``);
    both return the neighbor sets of the centered kernel's distances. Within a
    row, two neighbors whose distances differ only by rounding can come in
    either order on the tree path.
    """
    P = _centered(X)
    n, dim = P.X.shape
    if not 1 <= rho < n:
        raise DataError(f"rho must satisfy 1 <= rho < n_points, got rho={rho}, n={n}")
    search = _tree_search if dim <= _TREE_MAX_DIM else _brute_search
    return search(P, rho)


def _brute_search(P, rho):
    """rho-NN of every point of the CenteredFeatures P by blocked brute force.

    A search over more than rho + 1 column groups is prefiltered in single
    precision (``_prefiltered_rows``); the rows it cannot certify, and every
    row of a smaller search, go through ``_exact_rows``.
    """
    n = P.X.shape[0]
    idx_out = np.empty((n, rho), dtype=np.int64)
    sqd_out = np.empty((n, rho), dtype=np.float64)
    if n > (rho + 1) * _GROUP_SIZE:
        redo = _prefiltered_rows(P, rho, idx_out, sqd_out)
    else:
        redo = np.arange(n)
    _exact_rows(P, rho, redo, idx_out, sqd_out)
    return idx_out, sqd_out


def _prefiltered_rows(P, rho, idx_out, sqd_out):
    """Writes the rho-NN of every point whose set it can certify; returns the
    other points, increasing.

    Blocks hold half distances computed in float32 (``_half_sqdist``), twice
    the rows of a float64 block in the same bytes. Each row keeps k =
    rho + 1 + ``_SPARE`` candidate columns from ``_nearest_columns`` (fewer
    when N has fewer groups) and, as its threshold T, the (k+1)-th smallest
    float32 value, at or below every column it leaves out. The candidates'
    distances are recomputed in float64 by ``CenteredFeatures.pair_sqdist`` and
    sorted by (distance, index). A row is certified when its (rho+1)-th lies
    below 2T minus ``_f32_slack``, so no column left out can be nearer, and is
    not a ``_near_tie``, so the float64 GEMM ranks the same rho first. Ties,
    rows at a scale where float32 overflows or underflows and rows with a NaN
    threshold fail the first test.
    """
    n, dim = P.X.shape
    k = min(rho + 1 + _SPARE, -(-n // _GROUP_SIZE) - 1)  # at least rho + 1: N holds rho + 2 groups
    with np.errstate(over="ignore"):  # where float32 overflows, slack is infinite
        C = P.centered.astype(np.float32)
        half_norms = (0.5 * P.sq_norms).astype(np.float32)
    slack = _f32_slack(dim, P.sq_norms + P.sq_norms.max())
    chunk = max(1, min(n, 2 * _CHUNK_BUDGET // n))
    buffers = np.empty((2, chunk, n), dtype=np.float32)
    redo = []
    for start in range(0, n, chunk):
        block = slice(start, min(start + chunk, n))
        rows = np.arange(block.stop - start)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the cutoff test
            h = _half_sqdist(C, block, half_norms, out=buffers[:, :rows.size])
            h[rows, rows + start] = np.inf
            part = _nearest_columns(h, k)
            cutoff = 2.0 * h[rows, part[:, k]].astype(np.float64) - slack[block]
        cand = part[:, :k]
        cand_d = P.pair_sqdist(cand, block)
        order = np.lexsort((cand, cand_d), axis=1)[:, :rho + 1]
        cand = np.take_along_axis(cand, order, axis=1)
        cand_d = np.take_along_axis(cand_d, order, axis=1)
        idx_out[block] = cand[:, :rho]
        sqd_out[block] = cand_d[:, :rho]
        certified = (cand_d[:, rho] < cutoff) & ~_near_tie(P, block, cand_d)
        redo.append(start + np.flatnonzero(~certified))
    return np.concatenate(redo)


def _f32_slack(dim, scale):
    """Per row, a bound on |2 h32 - D| over its columns, where h32 is a float32
    half distance of ``_prefiltered_rows``, D the exact squared distance and
    ``scale`` the row's |c_i|^2 + max_j |c_j|^2.

    Rounding the features and half norms to float32, the d-term product and
    the two sums move 2 h32 by at most about (d + 6) / 2 eps32 scale; the bound
    is 4 times that, plus a tiny32 term per step for underflow. Where scale
    reaches float32's range the block can hold inf or NaN, and the bound is
    infinite.
    """
    bound = 2.0 * (dim + 6) * (_F32.eps * scale + _F32.tiny)
    return np.where(scale < _F32.max / 4, bound, np.inf)


def _near_tie(P, rows, t):
    """The rows (a selector of P's points) whose last two squared distances in
    t, ascending, could be ordered otherwise by the centered kernel.

    The kernel's value for a pair p, q is off by at most about
    (d + 3) eps (|c_p|^2 + |c_q|^2), and |c_q|^2 <= 2 |c_p|^2 + 2 dist, so two
    computations of it (a GEMM and row-wise dots, or a kd-tree's distance and
    a GEMM) disagree by at most 6 (d + 3) eps (|c_p|^2 + dist). A row is a near
    tie when its gap is at most 8 (d + 3) eps (|c_p|^2 + dist).
    """
    rtol = 8 * (P.X.shape[1] + 3) * np.finfo(np.float64).eps
    return t[:, -1] - t[:, -2] <= rtol * (P.sq_norms[rows] + t[:, -2])


def _tree_search(P, rho):
    """rho-NN of every point of the CenteredFeatures P by a kd-tree.

    The tree returns each point's rho + 2 nearest, itself among them unless
    more than rho + 1 points coincide with it; such a row drops its farthest
    instead, and its rho-th and (rho+1)-th are then both at distance 0. A row
    whose rho-th and (rho+1)-th other points are a ``_near_tie`` could order
    differently under the centered kernel and is searched again by
    ``_exact_rows``. For every other row the kernel's
    rounding cannot move a point across the cut, so the set is the kernel's;
    its distances are recomputed by ``CenteredFeatures.pair_sqdist``.
    """
    from scipy.spatial import cKDTree  # imported here: a run at d > 10 never loads it

    n = P.X.shape[0]
    dist, nbr = cKDTree(P.centered, leafsize=32).query(P.centered, k=rho + 2)
    own = nbr == np.arange(n)[:, None]
    own[~own.any(axis=1), -1] = True
    nbr = nbr[~own].reshape(n, rho + 1)  # at rho = n - 1 the last column is missing (index n)
    t = np.square(dist[~own].reshape(n, rho + 1))
    redo = _near_tie(P, slice(None), t[:, rho - 1:])
    cand = nbr[:, :rho]
    cand_d = P.pair_sqdist(cand)
    order = np.lexsort((cand, cand_d), axis=1)
    idx_out = np.take_along_axis(cand, order, axis=1)
    sqd_out = np.take_along_axis(cand_d, order, axis=1)
    if redo.any():
        _exact_rows(P, rho, np.flatnonzero(redo), idx_out, sqd_out)
    return idx_out, sqd_out


def _exact_rows(P, rho, ids, idx_out, sqd_out):
    """Writes the rho-NN of the points ``ids`` (increasing) into their rows of
    idx_out and sqd_out, from the centered kernel's distances to every point.

    Works in blocks of at most ``_CHUNK_BUDGET`` distances, filled in place
    into two buffers allocated once. A block holds half distances
    (``CenteredFeatures.half_sqdist_rows``), which rank as the kernel's
    unclamped values do; only the entries a row keeps are doubled and clamped
    at 0, which gives the kernel's values bitwise. Each row's rho nearest and
    its (rho+1)-th come from ``_nearest_columns`` when N holds more than
    rho + 1 groups of ``_GROUP_SIZE`` columns, else from one argpartition of
    the row. Only a row where the two are equally far after the clamp has a
    tie at the cut; it is resolved in full by (distance, index) order over
    every point within its cutoff.
    """
    n = P.X.shape[0]
    chunk = max(1, min(ids.size, _CHUNK_BUDGET // n))
    buffers = np.empty((2, chunk, n))
    half_norms = 0.5 * P.sq_norms
    grouped = n > (rho + 1) * _GROUP_SIZE
    for start in range(0, ids.size, chunk):
        block = ids[start:start + chunk]
        rows = np.arange(block.size)
        contiguous = block[-1] - block[0] + 1 == block.size
        sel = slice(int(block[0]), int(block[-1]) + 1) if contiguous else block
        h = P.half_sqdist_rows(sel, half_norms, out=buffers[:, :block.size])
        h[rows, block] = np.inf
        if grouped:
            part = _nearest_columns(h, rho)
        else:
            part = np.argpartition(h, rho, axis=1)[:, :rho + 1].copy()  # frees the N-wide block
        part_d = np.maximum(2.0 * np.take_along_axis(h, part, axis=1), 0.0)
        cand, cand_d = part[:, :rho], part_d[:, :rho]
        cutoff = cand_d.max(axis=1)
        tied = part_d[:, rho] == cutoff
        order = np.lexsort((cand, cand_d), axis=1)
        idx_out[block] = np.take_along_axis(cand, order, axis=1)
        sqd_out[block] = np.take_along_axis(cand_d, order, axis=1)
        if tied.any():
            _resolve_ties(h, block, np.flatnonzero(tied), cutoff, rho, idx_out, sqd_out)


def _resolve_ties(h, block, tied, cutoff, rho, idx_out, sqd_out):
    """Rows ``tied`` of the block h: their rho nearest in (distance, index) order
    over every column within the row's cutoff, from one mask and one nonzero.

    max(2h, 0) <= cutoff iff h <= cutoff / 2: the cutoff is 0 or twice a half
    distance, which halving gives back exactly. Each row has at least rho such
    columns, its candidates.
    """
    rows = h if tied.size == h.shape[0] else h[tied]  # no copy when every row ties
    r, col = np.divmod(np.flatnonzero(rows <= 0.5 * cutoff[tied, None]), h.shape[1])
    dist = np.maximum(2.0 * h[tied[r], col], 0.0)
    # stable: a row's equal distances keep the increasing column order of nonzero
    order = np.lexsort((dist, r))
    first = np.searchsorted(r, np.arange(tied.size))
    keep = order[first[:, None] + np.arange(rho)]
    idx_out[block[tied]] = col[keep]
    sqd_out[block[tied]] = dist[keep]


def _nearest_columns(h, rho):
    """Per row of h, the columns of its rho + 1 smallest values, the (rho+1)-th
    last, found in two stages.

    The columns fall into ng >= rho + 1 strided groups of at most
    ``_GROUP_SIZE`` (columns j, j + ng, j + 2 ng, ...); at ng = rho + 1, which
    only the prefilter asks for, every group is searched. One reduction gives
    every group's minimum, and only the rho + 1 groups with the smallest minima
    are searched. With t the largest of their minima, the searched columns hold
    every column below t and at least rho + 1 at or below t, and every column
    left out is at t or above. So a column left out can come before a searched
    one in (distance, index) order only when the searched rho-th and (rho+1)-th
    are as far as it, also after the clamp at 0: a tie at the cut, which
    ``_exact_rows`` resolves over the whole row. A row whose groups tie at t
    needs no second search. In ``_prefiltered_rows`` the (rho+1)-th value
    is the threshold, at or below every column left out.
    """
    b, n = h.shape
    ng = -(-n // _GROUP_SIZE)
    full = n // ng  # complete strides; the last n - full * ng columns start another
    mins = h[:, :full * ng].reshape(b, full, ng).min(axis=1)
    tail = n - full * ng
    if tail:
        np.minimum(mins[:, :tail], h[:, full * ng:], out=mins[:, :tail])
    groups = np.argpartition(mins, rho, axis=1)[:, :rho + 1]
    cols = (groups[:, :, None] + ng * np.arange(full + (tail > 0))).reshape(b, -1)
    past = cols >= n  # groups from the tail on have no column in the last stride
    vals = np.take_along_axis(h, np.where(past, 0, cols), axis=1)
    vals[past] = np.inf
    return np.take_along_axis(cols, np.argpartition(vals, rho, axis=1)[:, :rho + 1], axis=1)


def knn_graph(X, rho: int) -> SparseAffinity:
    """Directed binary rho-NN graph: w(p,q) = 1 iff q is among p's rho nearest."""
    idx, sqd = _neighbor_search(X, rho)
    n = idx.shape[0]
    indptr = np.arange(0, n * rho + 1, rho, dtype=np.int64)
    data = np.ones(n * rho, dtype=np.float64)
    m = sp.csr_matrix((data, idx.ravel(), indptr), shape=(n, n))
    m.sort_indices()
    return _derived(SparseAffinity(matrix=m), knn_sqdist=sqd)


def _check_sym_mode(mode):
    """Raises DataError unless ``mode`` is one of ``SYM_MODES``."""
    if mode not in SYM_MODES:
        raise DataError(f"unknown symmetrization mode: {mode!r}; expected one of {SYM_MODES}")


def symmetrize(W: SparseAffinity, mode: str = "max") -> SparseAffinity:
    """Symmetrize stored weights by elementwise max or mean."""
    _check_sym_mode(mode)
    m = W.matrix.maximum(W.matrix.T) if mode == "max" else (W.matrix + W.matrix.T) * 0.5
    m = m.tocsr()
    m.eliminate_zeros()
    m.sort_indices()
    degrees = np.asarray(m.sum(axis=1)).ravel()
    return _derived(W, matrix=m, degrees=degrees, symmetric=True)


def estimate_sigma2(X, rho: int) -> float:
    """Kernel width: mean squared distance to the rho nearest neighbors.

    X is a feature matrix, or a graph from ``knn_graph(X, rho)``, whose search
    distances are used instead of a second search.
    """
    sqd = X.knn_sqdist if isinstance(X, SparseAffinity) else _neighbor_search(X, rho)[1]
    if sqd is None or sqd.shape[1] != rho:
        raise DataError(f"graph carries no rho={rho} neighbor distances; pass the features")
    sigma2 = float(sqd.sum()) / (sqd.shape[0] * rho)
    if sigma2 <= 0.0:
        raise DegenerateDataError("all rho-NN distances are zero; kernel width undefined")
    return sigma2


def laplacian_quadratic(W: SparseAffinity, S) -> float:
    """Pairwise penalty sum_{p,q} w(p,q) ||s_p - s_q||^2 over stored entries."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    if rows.shape[0] != W.n_points:
        raise DataError(f"assignment rows ({rows.shape[0]}) != graph points ({W.n_points})")
    sq = np.einsum("ij,ij->i", rows, rows)
    col_deg = np.asarray(W.matrix.sum(axis=0)).ravel()
    cross = float(np.sum(rows * (W.matrix @ rows)))
    return float(W.degrees @ sq + col_deg @ sq - 2.0 * cross)
