"""Sparse neighborhood affinities and graph-Laplacian quantities.

The affinity graph connects each point to its rho nearest neighbors (squared
Euclidean distance, binary weights). Neighbor sets are exact under the
package's one centered kernel (``prototypes.CenteredFeatures``), which keeps
them exact far from the origin; ties are broken toward the lower point index
for cross-platform determinism. The search is one function
(``_neighbor_search``) over three passes. A candidate pass, chosen on the
feature dimension d and on N, writes every row and returns the rows it cannot
certify; ``_neighbor_search`` then sends those rows to the exact pass, its
only call. The candidate passes:

- d <= ``_TREE_MAX_DIM`` (10): a kd-tree (``scipy.spatial.cKDTree``, Friedman,
  Bentley & Finkel 1977), split at the sliding midpoint (Maneewongvatana &
  Mount 1999), finds each point's rho + 1 nearest others. The points are
  queried in the tree's leaf order on every CPU the process may use (at most
  one thread per 1024 queries), and the results are scattered back; each
  query is exact and independent, so the result does not depend on the
  worker count. A row whose rho-th and (rho+1)-th lie within the kernel's
  rounding of each other (``_near_tie``) is left to the exact pass; every
  other row's distances are recomputed by the kernel's expansion pair by
  pair, so they can differ from the exact pass's GEMM values in the last bits
  (and sigma^2 with them). Memory is a few N x (rho + 2) arrays.
- wider features, when N holds more than rho + 1 strided groups of
  ``_GROUP_SIZE`` columns: a float32 prefilter, as FAISS ranks by a
  single-precision product (Johnson, Douze & Jegou 2019). Blocks of half
  distances in single precision, twice the rows per block, keep each row's
  rho + 1 + ``_SPARE`` candidates and the next float32 value as a threshold;
  the candidates are re-ranked in float64 pair by pair, as on the tree path.
  A row is left to the exact pass when it has a tie or near tie at the cut, a
  (rho+1)-th within float32 rounding of the threshold, or a scale where
  float32 overflows or underflows.
- otherwise (the paper's few-shot episodes, among others) there is no
  candidate pass, and the exact pass searches every row.

The exact pass is brute force in row blocks of at most 8 MB
(``_CHUNK_BUDGET`` float64 distances; a prefilter block holds twice as many
float32 ones), written in place into two buffers allocated once per pass, so
its memory is bounded by that budget whatever N is: only a search whose N x N
distances fit in one block holds them all at once. It fills float64 blocks
with half distances, made by the product and two elementwise passes, then
doubles and clamps them in place, which gives the kernel's GEMM values
bitwise. Searching a ``GramPoints`` (an episode with N <= d), a pass over
every point in one block reads the product from the points' Gram matrix G
instead, which is that product bitwise. A row's rho nearest come from rho
``argmin`` passes, each picked column set to inf before the next; ``argmin``
returns the first of equal minima, so the row comes in (distance, index)
order, ties included. The candidate passes order their rows by (distance,
index) with ``_by_distance``.

The threshold is measured (N=10k, rho=5, 2-core VM, best of 3): on the
criterion-11 blobs the tree takes 0.05-0.06 s at d = 10, 11 and 12, against
0.19-0.20 s for the prefiltered brute force; on unclustered Gaussians it
takes 0.23 s at d = 10 and 0.32-0.34 s at d = 11 and 12, against 0.18-0.19 s.
So the tree keeps d <= 10, where it is 3x faster on clustered data and not
much slower on unclustered data. At N=50k (acceptance criterion 11) the tree
search takes 0.75-0.87 s. At N=10k, d=128 (clustered, rho=5, best of 5) the
prefiltered search takes 0.52 s on one BLAS thread and 0.44 s on two, against
0.91 and 0.61 s for the exact pass alone.

A graph built from a caller's matrix is checked in full; its degrees are the
row sums. ``knn_graph``, ``symmetrize`` and ``with_diag_shift`` derive their
graphs from the search or from a graph already valid, so they skip that
O(nnz) check. Only ``knn_graph`` attaches its search distances, from which
``estimate_sigma2`` takes the kernel width without a second search. Only
``with_diag_shift`` sets a shift, and only ``symmetrize`` marks a graph
``symmetric`` (``solve`` compares any other graph with its transpose). Every
function here that takes a feature matrix also accepts a
``CenteredFeatures``, so a caller that already centered X does not do it
again.

A graph of at most ``_DENSE_MAX_N`` points (a few-shot episode, or a small
clustering run) is dense: ``knn_graph`` sets the search's ones in an N x N
array of zeros, and ``symmetrize`` and ``with_diag_shift`` keep that form. It
takes at most 80 KB, and the votes of a symmetrized one are one BLAS product
(``optimizer.neighbor_votes``) instead of scipy's sparse dispatch. Its CSR
matrix, bitwise the one the sparse form would hold, is made only when
something reads it: converting a 100 x 100 adjacency takes longer than
building it.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .errors import DataError, DegenerateDataError
from .io import _index
from .prototypes import GramPoints, _assignment_rows, _centered, _half_sqdist, _selector

_CHUNK_BUDGET = 1_000_000  # float64 distances per search block; a float32 block holds twice as many
_GROUP_SIZE = 32  # columns per strided group of the prefilter's two-stage selection
_TREE_MAX_DIM = 10  # widest features searched by kd-tree; from d=11 brute force is faster
# The kd-tree splits at the sliding midpoint (Maneewongvatana & Mount 1999)
# into leaves of up to 64 points. On the N=10k, d=10, rho=5 clustered input
# its queries took 0.070 s on 2 workers in leaf order (0.080 s with 32-point
# leaves), against 0.100 s for a median-split tree with 32-point leaves and
# 0.138 s for that tree queried in input order on 1 worker (2-core VM,
# medians of 7).
_TREE_LEAFSIZE = 64
_TREE_BALANCED = False
# Fewest queries per kd-tree worker thread. On the same input and VM, 2
# workers took 0.19 / 1.37 ms against 0.09 / 1.16 ms for 1 at N = 100 / 400
# (each call starts its threads), and 3.4-4.8 ms against 5.4-5.7 ms at N=2000.
_TREE_QUERIES_PER_WORKER = 1024
# Candidates a prefiltered row keeps beyond its rho + 1. On the CLI benchmark's
# input (N=10k, d=128, rho=5) 0 leaves 100 rows to the exact pass and 1 or 2
# none; each spare costs about 3% of the prefilter's time.
_SPARE = 2
_F32 = np.finfo(np.float32)
SYM_MODES = ("max", "mean")  # elementwise max or mean of W and its transpose
# Most points of a dense graph. Its votes, the product of the transposed rows
# with the adjacency, add each row's terms in column order, as the CSR product
# does, and the terms are exact (a weight of 1/2 or 1 times a vote row outside
# the subnormal range), so the two are bitwise equal as long as OpenBLAS
# multiplies with its unblocked small-matrix kernel: up to K N^2 = 10^6 under
# 2 threads (OpenBLAS 0.3.31, AVX-512 Xeon; a larger product is split across
# threads and regrouped). So every K up to N passes at N <= 100 (an episode has
# fewer classes than points, and k-means++ seeds at most N);
# test_affinity.py's test_dense_votes_are_the_csr_product checks every such K
# at N = 80 and 100 under 1 and 2 threads. At N = 80 and 100, K = 5, a dense
# product took 3.5 and 4.4 us against 6.8 and 7.9 us for the CSR one (best of
# 5 x 5000 calls).
_DENSE_MAX_N = 100


class SparseAffinity:
    """Affinity graph: a CSR matrix, or a dense N x N adjacency (``dense``)
    whose CSR ``matrix`` is made on first read.

    ``SparseAffinity(matrix)`` checks a caller's CSR matrix in full and takes
    its row sums as ``degrees``. Every other field is set by the one function
    that computes it: ``dense`` (None on a CSR graph) and ``knn_sqdist`` (the
    N x rho squared distances of the search; None on a graph built directly)
    by ``knn_graph``, ``diag_shift`` (the psd correction, never stored as
    edges) by ``with_diag_shift``, and ``symmetric`` by ``symmetrize``.
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
        delta = float(delta)
        if delta < 0:
            raise DataError("diag_shift must be >= 0")
        return SparseAffinity._of_valid(self._matrix, self.dense, self.degrees,
                                        knn_sqdist=self.knn_sqdist, symmetric=self.symmetric,
                                        diag_shift=delta)


def _neighbor_search(X, rho):
    """Exact rho-NN per row. Returns (indices, sqdists), both (N, rho), each row
    in (distance, index) order.

    The search is one pipeline over the centered kernel's distances. The
    outputs are allocated here, and a candidate pass chosen by d and N fills
    them and returns the rows it cannot certify: the kd-tree (``_tree_rows``)
    for features of at most ``_TREE_MAX_DIM`` columns, else the float32
    prefilter (``_prefiltered_rows``) when N holds more than rho + 1 groups of
    ``_GROUP_SIZE`` columns. Both re-rank their candidates in float64, pair by
    pair, so within a row two neighbors whose distances differ only by rounding
    can come in either order. A smaller search has no candidate pass: every
    row is redone. This function then makes the one call of the exact pass,
    ``_exact_rows``, over the rows to redo (none, often). The points of a
    ``GramPoints`` are searched as its features, with the exact pass reading G.
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
        cand, cand_d = _by_distance(part[:, :k], P.pair_sqdist(part[:, :k], block), rho + 1)
        idx_out[block], sqd_out[block] = cand[:, :rho], cand_d[:, :rho]
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


def _tree_rows(P, rho, idx_out, sqd_out):
    """Writes the rho-NN of every point of the CenteredFeatures P found by a
    kd-tree; returns the points whose set it cannot certify, increasing.

    The tree returns each point's rho + 2 nearest, itself among them unless
    more than rho + 1 points coincide with it; such a row drops its farthest
    instead, and its rho-th and (rho+1)-th are then both at distance 0. A row
    whose rho-th and (rho+1)-th other points are a ``_near_tie`` could order
    differently under the centered kernel and is returned. For every other row
    the kernel's rounding cannot move a point across the cut, so the set is the
    kernel's; its distances are recomputed by ``CenteredFeatures.pair_sqdist``.

    The points are queried in the tree's leaf order (``tree.indices``), so
    consecutive queries walk the same nodes, on ``_search_workers(n)`` threads.
    The rows stay in that order until their final rho columns are scattered
    into idx_out and sqd_out, so the query's own result arrays are the only
    N x (rho + 2) ones. Each query is exact and independent of the others, and
    each pair's distance is computed row by row, so the result does not depend
    on the order or on the worker count.
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
    """Writes the rho-NN of the points ``ids`` (increasing) into their rows of
    idx_out and sqd_out, from the centered kernel's distances to every point.

    Works in blocks of at most ``_CHUNK_BUDGET`` distances, filled in place
    into two buffers allocated once. A pass whose one block is every point
    reads the product from the points' Gram matrix ``gram``, when given, and
    needs one buffer: G is that product (a SYRK) bitwise, but a product of
    fewer rows (a GEMM) can differ from G's rows in the last bits. A block
    holds half distances (``_half_sqdist``); doubling them and clamping at 0
    in place gives the kernel's values bitwise. With each row's own column at
    inf, rho ``argmin`` passes pick its neighbors, each picked column set to
    inf after it is picked: ``argmin`` returns the first of equal minima, so
    the picks come in (distance, index) order, ties at the cut included.
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
    last, found in two stages; ``_prefiltered_rows`` picks its candidates and
    threshold with it.

    The columns fall into ng >= k + 1 strided groups of at most
    ``_GROUP_SIZE`` (columns j, j + ng, j + 2 ng, ...); at ng = k + 1 every
    group is searched. One reduction gives every group's minimum, and only
    the k + 1 groups with the smallest minima are searched. With t the
    largest of their minima, the searched columns hold at least k + 1 at or
    below t, and every column left out is at t or above. So the (k+1)-th
    value found is at or below every column left out.
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

    Up to ``_DENSE_MAX_N`` points the graph is dense, the N x N adjacency;
    beyond, it is CSR. The search returns rho distinct other points per row,
    so the graph has no self-loop and every degree is rho, and it is not
    checked again.
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
    """Symmetrize stored weights by elementwise max or mean, in W's form.

    A dense graph's adjacency (knn_graph's 0 and 1) is combined with its
    transpose; every entry is then 0, 1/2 or 1, and its row sums, exact in
    any order, are the degrees the CSR form would have, bitwise.
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
    """Kernel width: mean squared distance to the rho nearest neighbors.

    X is a feature matrix, or a graph from ``knn_graph(X, rho)``, whose search
    distances are used instead of a second search.
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
