"""Sparse neighborhood affinities and graph-Laplacian quantities.

``knn_graph`` links each point to its rho nearest others, ``symmetrize`` and
``with_diag_shift`` derive graphs from it, and ``estimate_sigma2`` reads the
kernel width from its search distances.

``_neighbor_search`` finds each point's rho nearest exactly under the centered
kernel (see ``prototypes``), ties to the lower index. A candidate pass, chosen
on the feature width d and on N, writes every row and returns the rows it
cannot certify, which one call of the exact pass ``_exact_rows`` redoes:

- d <= ``_TREE_MAX_DIM``: a sliding-midpoint kd-tree (``_tree_rows``);
- wider, when N holds more than rho + 1 groups of ``_GROUP_SIZE`` columns: a
  float32 prefilter (``_prefiltered_rows``), as FAISS ranks by a
  single-precision product (Johnson, Douze & Jegou 2019);
- otherwise none, and the exact pass searches every row.

A candidate pass takes its distances from ``CenteredFeatures.pair_sqdist``,
so they can differ from the exact pass's in the last bits, and two neighbors
a rounding apart can come in either order. The search's result does not
depend on the thread count. Its memory is bounded whatever N is: the exact
pass holds two blocks of ``_CHUNK_BUDGET`` distances, the tree a few
N x (rho + 2) arrays.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .errors import DataError, DegenerateDataError
from .io import _index, _real
from .prototypes import GramPoints, _assignment_rows, _centered, _half_sqdist, _selector

_CHUNK_BUDGET = 1_000_000  # float64 distances per search block, 8 MB; a float32 one holds 2x
_GROUP_SIZE = 32  # columns per strided group of the prefilter's two-stage selection
# Widest features searched by kd-tree. On unclustered Gaussians (N=10k, rho=5,
# 2-core VM, best of 3) brute force wins from d = 11, 0.18-0.19 s against
# 0.32-0.34 s; on the criterion-11 blobs the tree takes 0.05-0.06 s at d = 10-12
# against 0.19-0.20 s.
_TREE_MAX_DIM = 10
# Points per kd-tree leaf, and the sliding-midpoint split. On the N=10k, d=10,
# rho=5 clustered input the queries took 0.070 s with 64-point leaves, 0.080 s
# with 32, and 0.100 s on a median-split tree (2 workers, 2-core VM, medians of 7).
_TREE_LEAFSIZE = 64
_TREE_BALANCED = False
# Fewest queries per kd-tree worker thread, as each call starts its threads: 2
# workers took 1.37 ms against 1.16 ms for 1 at N = 400, and 3.4-4.8 ms against
# 5.4-5.7 ms at N = 2000 (the same input and VM).
_TREE_QUERIES_PER_WORKER = 1024
# Candidates a prefiltered row keeps beyond its rho + 1: on the CLI benchmark's
# input (N=10k, d=128, rho=5) 0 leaves 100 rows to the exact pass and 2 none,
# and each spare costs about 3% of the prefilter's time.
_SPARE = 2
_F32 = np.finfo(np.float32)
SYM_MODES = ("max", "mean")  # elementwise max or mean of W and its transpose
# Most points of a dense graph. Its votes, one BLAS product of the transposed
# rows with the adjacency, add each row's exact terms in column order, so they
# are bitwise the CSR product's while OpenBLAS multiplies with its unblocked
# small-matrix kernel: up to K N^2 = 10^6 under 2 threads (OpenBLAS 0.3.31,
# AVX-512 Xeon), every K <= N at N <= 100 (test_dense_votes_are_the_csr_product).
# At N = 100, K = 5 the dense product took 4.4 us against 7.9 us for the CSR one.
_DENSE_MAX_N = 100


class SparseAffinity:
    """Affinity graph: a CSR matrix, or a dense N x N adjacency (``dense``)
    whose CSR ``matrix`` is made on first read, since converting a 100 x 100
    adjacency takes longer than building it.

    ``SparseAffinity(matrix)`` checks a caller's CSR matrix in full and takes
    its row sums as ``degrees``. A derived graph skips that O(nnz) check, and
    each other field is set by the one function that computes it:
    ``knn_sqdist`` (the search's N x rho squared distances) and ``dense`` by
    ``knn_graph``, ``diag_shift`` by ``with_diag_shift``, and ``symmetric`` by
    ``symmetrize``.
    """

    __slots__ = ("_matrix", "dense", "degrees", "diag_shift", "symmetric", "knn_sqdist")

    def __init__(self, matrix):
        m = matrix
        if m.shape[0] != m.shape[1]:
            raise DataError(f"affinity matrix must be square, got {m.shape}")
        if m.nnz and (not np.all(np.isfinite(m.data)) or m.data.min() < 0):
            raise DataError("affinity weights must be finite and >= 0")
        if m.diagonal().any():
            raise DataError("affinity graph must not contain self-loops")
        self._fill(m, None, np.asarray(m.sum(axis=1)).ravel())

    @classmethod
    def _of_valid(cls, matrix, dense, degrees, **fields):
        """One whose CSR ``matrix`` (None to make it from ``dense`` when read)
        or ``dense`` adjacency is valid by construction, with ``degrees`` its
        row sums, unchecked."""
        W = cls.__new__(cls)
        W._fill(matrix, dense, degrees, **fields)
        return W

    def _fill(self, matrix, dense, degrees, knn_sqdist=None, symmetric=False, diag_shift=0.0):
        self._matrix, self.dense, self.degrees = matrix, dense, degrees
        self.knn_sqdist, self.symmetric, self.diag_shift = knn_sqdist, symmetric, diag_shift

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = sp.csr_matrix(self.dense)  # indices sorted, no zero stored
        return self._matrix

    @property
    def n_points(self):
        return self.degrees.shape[0]

    def with_diag_shift(self, delta: float) -> "SparseAffinity":
        delta = _real(delta, "diag_shift")
        if not (np.isfinite(delta) and delta >= 0):
            raise DataError("diag_shift must be finite and >= 0")
        return SparseAffinity._of_valid(self._matrix, self.dense, self.degrees,
                                        knn_sqdist=self.knn_sqdist, symmetric=self.symmetric,
                                        diag_shift=delta)


def _neighbor_search(X, rho):
    """Exact rho-NN of every point of X: (indices, sqdists), both (N, rho),
    each row in (distance, index) order. A GramPoints is searched as its
    features, and its exact pass reads G.
    """
    P = _centered(X)
    gram = None
    if isinstance(P, GramPoints):
        P, gram = P.features, P.gram
    n, dim = P.X.shape
    rho = _index(rho, "rho")
    if not 1 <= rho < n:
        raise DataError(f"rho must satisfy 1 <= rho < n_points, got rho={rho}, n={n}")
    idx_out = np.empty((n, rho), dtype=np.int64)
    sqd_out = np.empty((n, rho), dtype=np.float64)
    if dim <= _TREE_MAX_DIM:
        redo = _tree_rows(P, rho, idx_out, sqd_out)
    elif n > (rho + 1) * _GROUP_SIZE:
        redo = _prefiltered_rows(P, rho, idx_out, sqd_out)
    else:
        redo = np.arange(n)
    _exact_rows(P, rho, redo, idx_out, sqd_out, gram)
    return idx_out, sqd_out


def _by_distance(cand, cand_d, keep=None):
    """The candidate columns ``cand`` and their distances ``cand_d``, each row
    in (distance, index) order, cut to its first ``keep`` (all when None)."""
    order = np.lexsort((cand, cand_d), axis=1)[:, :keep]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(cand_d, order, axis=1)


def _prefiltered_rows(P, rho, idx_out, sqd_out):
    """Writes the rho-NN of every point it can certify; returns the others.

    Float32 half distances (``_half_sqdist``) give each row k = rho + 1 +
    ``_SPARE`` candidates from ``_nearest_columns`` (fewer when N has fewer
    groups) and a threshold T, the (k+1)-th smallest value, at or below every
    column left out. The candidates are re-ranked in float64. A row is
    certified when its (rho+1)-th lies below 2T - ``_f32_slack``, so no column
    left out can be nearer, and it is not a ``_near_tie``. Ties, NaN thresholds
    and scales where float32 overflows or underflows fail the first test.
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
        cand, cand_d = _by_distance(part[:, :k], P.pair_sqdist(part[:, :k], block), rho + 1)
        idx_out[block], sqd_out[block] = cand[:, :rho], cand_d[:, :rho]
        certified = (cand_d[:, rho] < cutoff) & ~_near_tie(P, block, cand_d)
        redo.append(start + np.flatnonzero(~certified))
    return np.concatenate(redo)


def _f32_slack(dim, scale):
    """Per row, a bound on |2 h32 - D|, h32 being a float32 half distance of
    ``_prefiltered_rows`` and D the exact squared distance, for ``scale`` the
    row's |c_i|^2 + max_j |c_j|^2. Rounding moves 2 h32 by at most about
    (d + 6) / 2 eps32 scale; the bound is 4 times that plus a tiny32 term per
    step for underflow, and infinite where scale reaches float32's range.
    """
    bound = 2.0 * (dim + 6) * (_F32.eps * scale + _F32.tiny)
    return np.where(scale < _F32.max / 4, bound, np.inf)


def _near_tie(P, rows, t):
    """The rows (a selector of P's points) whose last two ascending squared
    distances in t could be ordered otherwise by the centered kernel: two
    computations of a pair's distance disagree by at most 6 (d + 3) eps
    (|c_p|^2 + dist), and a row is a near tie when its gap is at most
    8 (d + 3) eps (|c_p|^2 + dist)."""
    rtol = 8 * (P.X.shape[1] + 3) * np.finfo(np.float64).eps
    return t[:, -1] - t[:, -2] <= rtol * (P.sq_norms[rows] + t[:, -2])


def _tree_rows(P, rho, idx_out, sqd_out):
    """Writes the rho-NN of every point found by a kd-tree; returns the points
    with a ``_near_tie`` at the cut, increasing.

    The tree returns each point's rho + 2 nearest, itself among them unless
    more than rho + 1 points coincide with it; such a row drops its farthest.
    The points are queried in the tree's leaf order on ``_search_workers(n)``
    threads, and only their final rho columns are scattered back, so the
    query's own arrays are the only N x (rho + 2) ones.
    """
    from scipy.spatial import cKDTree  # imported here: a run at d > 10 never loads it

    n = P.X.shape[0]
    tree = cKDTree(P.centered, leafsize=_TREE_LEAFSIZE, balanced_tree=_TREE_BALANCED)
    order = tree.indices
    dist, nbr = tree.query(P.centered[order], k=rho + 2, workers=_search_workers(n))
    own = nbr == order[:, None]
    own[~own.any(axis=1), -1] = True
    t = np.square(dist[~own].reshape(n, rho + 1)[:, rho - 1:])  # the rho-th and (rho+1)-th
    cand = nbr[~own].reshape(n, rho + 1)[:, :rho]  # at rho = n - 1 the last is missing (index n)
    del dist, nbr, own
    idx_out[order], sqd_out[order] = _by_distance(cand, P.pair_sqdist(cand, order))
    return np.sort(order[_near_tie(P, order, t)])


def _search_workers(n):
    """Threads for the kd-tree's n queries: the CPUs this process may run on,
    but at most one per ``_TREE_QUERIES_PER_WORKER`` queries."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n // _TREE_QUERIES_PER_WORKER))


def _exact_rows(P, rho, ids, idx_out, sqd_out, gram=None):
    """Writes the rho-NN of the points ``ids`` (increasing) into idx_out and
    sqd_out, from the centered kernel's distances to every point.

    A pass whose one block is every point reads the product from ``gram``
    when given; a product of fewer rows can differ from G's in the last bits.
    Rho ``argmin`` passes, each setting its pick to inf, give the row in
    (distance, index) order, ties included.
    """
    n = P.X.shape[0]
    chunk = max(1, min(ids.size, _CHUNK_BUDGET // n))
    if chunk < n:  # G's rows are the product of a block of every point, not of fewer rows
        gram = None
    buffers = np.empty((1 if gram is not None else 2, chunk, n))
    half_norms = 0.5 * P.sq_norms
    for start in range(0, ids.size, chunk):
        block = ids[start:start + chunk]
        rows = np.arange(block.size)
        d = _half_sqdist(P.centered, _selector(block), half_norms, out=buffers[:, :block.size],
                         gram=gram)
        d *= 2.0
        np.maximum(d, 0.0, out=d)
        d[rows, block] = np.inf
        for j in range(rho):
            col = d.argmin(axis=1)
            idx_out[block, j] = col
            sqd_out[block, j] = d[rows, col]
            d[rows, col] = np.inf


def _nearest_columns(h, k):
    """Per row of h, the columns of its k + 1 smallest values, the (k+1)-th
    last.

    The columns fall into ng >= k + 1 strided groups of at most
    ``_GROUP_SIZE`` (j, j + ng, j + 2 ng, ...). Only the k + 1 groups with the
    smallest minima are searched; with t the largest of those minima, they
    hold at least k + 1 columns at or below t, and every column left out is at
    t or above. So the (k+1)-th value found is at or below every one left out.
    """
    b, n = h.shape
    ng = -(-n // _GROUP_SIZE)
    full = n // ng  # complete strides; the last n - full * ng columns start another
    mins = h[:, :full * ng].reshape(b, full, ng).min(axis=1)
    tail = n - full * ng
    if tail:
        np.minimum(mins[:, :tail], h[:, full * ng:], out=mins[:, :tail])
    groups = np.argpartition(mins, k, axis=1)[:, :k + 1]
    cols = (groups[:, :, None] + ng * np.arange(full + (tail > 0))).reshape(b, -1)
    past = cols >= n  # groups from the tail on have no column in the last stride
    vals = np.take_along_axis(h, np.where(past, 0, cols), axis=1)
    vals[past] = np.inf
    return np.take_along_axis(cols, np.argpartition(vals, k, axis=1)[:, :k + 1], axis=1)


def knn_graph(X, rho: int) -> SparseAffinity:
    """Directed binary rho-NN graph: w(p,q) = 1 iff q is among p's rho nearest.
    Dense up to ``_DENSE_MAX_N`` points, else CSR; every degree is rho, and the
    graph is valid by construction.
    """
    idx, sqd = _neighbor_search(X, rho)
    n = idx.shape[0]
    degrees = np.full(n, float(rho))
    if n <= _DENSE_MAX_N:
        A = np.zeros((n, n))
        A[np.arange(n)[:, None], idx] = 1.0
        return SparseAffinity._of_valid(None, A, degrees, knn_sqdist=sqd)
    indptr = np.arange(0, n * rho + 1, rho, dtype=np.int64)
    data = np.ones(n * rho, dtype=np.float64)
    m = sp.csr_matrix((data, idx.ravel(), indptr), shape=(n, n))
    m.sort_indices()
    return SparseAffinity._of_valid(m, None, degrees, knn_sqdist=sqd)


def _check_sym_mode(mode):
    """Raises DataError unless ``mode`` is one of ``SYM_MODES``."""
    if mode not in SYM_MODES:
        raise DataError(f"unknown symmetrization mode: {mode!r}; expected one of {SYM_MODES}")


def symmetrize(W: SparseAffinity, mode: str = "max") -> SparseAffinity:
    """Symmetrize stored weights by elementwise max or mean, in W's form. A
    dense graph's entries are then 0, 1/2 or 1, so its row sums are exact in
    any order and bitwise the CSR form's degrees.
    """
    _check_sym_mode(mode)
    kept = dict(knn_sqdist=W.knn_sqdist, symmetric=True, diag_shift=W.diag_shift)
    if W.dense is not None:
        A = W.dense
        A = np.maximum(A, A.T) if mode == "max" else (A + A.T) * 0.5
        return SparseAffinity._of_valid(None, A, A.sum(axis=1), **kept)
    m = W.matrix.maximum(W.matrix.T) if mode == "max" else (W.matrix + W.matrix.T) * 0.5
    m = m.tocsr()
    m.eliminate_zeros()
    m.sort_indices()
    return SparseAffinity._of_valid(m, None, np.asarray(m.sum(axis=1)).ravel(), **kept)


def estimate_sigma2(X, rho: int) -> float:
    """Kernel width: mean squared distance to the rho nearest neighbors. X is
    a feature matrix, or a graph from ``knn_graph(X, rho)``, whose search
    distances are read instead of a second search.
    """
    sqd = X.knn_sqdist if isinstance(X, SparseAffinity) else _neighbor_search(X, rho)[1]
    if sqd is None or sqd.shape[1] != rho:
        raise DataError(f"graph carries no rho={rho} neighbor distances; pass the features")
    n_terms = sqd.shape[0] * rho
    with np.errstate(over="ignore"):
        sigma2 = float(sqd.sum()) / n_terms
    if sigma2 == np.inf:  # the sum overflows; its terms, and so their mean, do not
        sigma2 = float((sqd / n_terms).sum())
    if sigma2 <= 0.0:
        raise DegenerateDataError("all rho-NN distances are zero; kernel width undefined")
    return sigma2


def laplacian_quadratic(W: SparseAffinity, S) -> float:
    """Pairwise penalty sum_{p,q} w(p,q) ||s_p - s_q||^2 over stored entries."""
    rows = _assignment_rows(S, W.n_points, of="graph points")
    sq = np.einsum("ij,ij->i", rows, rows)
    col_deg = np.asarray(W.matrix.sum(axis=0)).ravel()
    cross = float(np.sum(rows * (W.matrix @ rows)))
    return float(W.degrees @ sq + col_deg @ sq - 2.0 * cross)
