"""Sparse neighborhood affinities and graph-Laplacian quantities.

The affinity graph connects each point to its rho nearest neighbors (squared
Euclidean distance, binary weights). Neighbor sets are exact under the
package's one centered kernel (``prototypes.CenteredFeatures``), which keeps
them exact far from the origin; ties are broken toward the lower point index
for cross-platform determinism. The search takes one of two paths, chosen on
the feature dimension d:

- d <= ``_TREE_MAX_DIM`` (10): a kd-tree (``scipy.spatial.cKDTree``, Friedman,
  Bentley & Finkel 1977) finds each point's rho + 1 nearest others. A row whose
  rho-th and (rho+1)-th lie within the kernel's rounding of each other is
  searched again by brute force; every other row's distances are recomputed
  by the kernel's expansion pair by pair, so they can differ from the brute
  path's GEMM values in the last bits (and sigma^2 with them). Memory is a few
  N x (rho + 2) arrays.
- wider features: exact brute force in row blocks of at most
  ``_CHUNK_BUDGET`` distances (8 MB), written in place into two buffers
  allocated once per search, so its memory is bounded by that budget whatever
  N is and no dense N x N matrix is ever materialized. Only a row whose rho-th
  and (rho+1)-th distances are equal takes the per-row tie pass.

The threshold is measured (N=10k, rho=5, one core of a 2-core VM): on
unclustered Gaussians the tree takes 0.74 / 1.11 / 1.00 s at d = 10 / 11 / 12,
against 1.11 / 1.06 / 0.91 s for brute force; on clustered blobs it takes about
0.2 s at those d, and at d=128 18.6 s against 2.5 s.

The graph keeps the distances of its search, so ``estimate_sigma2`` takes the
kernel width from it without a second search.
A graph built directly is checked in full; ``symmetrize`` and
``with_diag_shift`` derive valid graphs from a checked one and skip that
O(nnz) check. Every function here that takes a feature matrix also accepts a
``CenteredFeatures``, so a caller that already centered X does not do it again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import DataError, DegenerateDataError
from .prototypes import _centered

_CHUNK_BUDGET = 1_000_000  # distances per search block
_TREE_MAX_DIM = 10  # widest features searched by kd-tree; from d=11 brute force keeps up
# A tree row is searched again when its rho-th and (rho+1)-th squared distances
# differ by at most this times (|c_p|^2 + dist); the kernel's rounding is about
# (d + 3) eps times that, under 1e-14 for d <= 10.
_TREE_GAP_RTOL = 1e-12


@dataclass(frozen=True)
class SparseAffinity:
    """CSR affinity graph with per-point degrees and an optional diagonal shift.

    ``diag_shift`` is bookkeeping for the positive-semidefinite correction: it
    is never stored as edges, and is applied where the optimizer needs the
    shifted matrix. ``knn_sqdist`` holds the N x rho squared distances of the
    search that built the graph (``knn_graph``), or None.
    """

    matrix: sp.csr_matrix
    degrees: np.ndarray
    diag_shift: float = 0.0
    symmetric: bool = False
    knn_sqdist: np.ndarray | None = None

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise DataError(f"affinity matrix must be square, got {m.shape}")
        if self.diag_shift < 0:
            raise DataError("diag_shift must be >= 0")
        if m.nnz and (not np.all(np.isfinite(m.data)) or m.data.min() < 0):
            raise DataError("affinity weights must be finite and >= 0")
        if m.diagonal().any():
            raise DataError("affinity graph must not contain self-loops")
        rowsum = np.asarray(m.sum(axis=1)).ravel()
        if not np.allclose(self.degrees, rowsum, rtol=1e-12, atol=1e-12):
            raise DataError("degrees do not match affinity row sums")

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
    """rho-NN of every point of the CenteredFeatures P by blocked brute force."""
    n = P.X.shape[0]
    idx_out = np.empty((n, rho), dtype=np.int64)
    sqd_out = np.empty((n, rho), dtype=np.float64)
    _exact_rows(P, rho, np.arange(n), idx_out, sqd_out)
    return idx_out, sqd_out


def _tree_search(P, rho):
    """rho-NN of every point of the CenteredFeatures P by a kd-tree.

    The tree returns each point's rho + 2 nearest, itself among them unless
    more than rho + 1 points coincide with it; such a row drops its farthest
    instead, and its rho-th and (rho+1)-th are then both at distance 0. A row
    whose rho-th and (rho+1)-th other points lie within ``_TREE_GAP_RTOL`` of
    each other could order differently under the centered kernel and is
    searched again by ``_exact_rows``. For every other row the kernel's
    rounding cannot move a point across the cut, so the set is the kernel's;
    its distances are recomputed by ``CenteredFeatures.pair_sqdist``.
    """
    n = P.X.shape[0]
    dist, nbr = cKDTree(P.centered, leafsize=32).query(P.centered, k=rho + 2)
    own = nbr == np.arange(n)[:, None]
    own[~own.any(axis=1), -1] = True
    nbr = nbr[~own].reshape(n, rho + 1)  # at rho = n - 1 the last column is missing (index n)
    t = np.square(dist[~own].reshape(n, rho + 1))
    redo = t[:, rho] - t[:, rho - 1] <= _TREE_GAP_RTOL * (P.sq_norms + t[:, rho - 1])
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
    into two buffers allocated once. argpartition at rho puts each row's rho
    nearest first and its (rho+1)-th nearest next; only a row where the two
    are equally far has a tie at the cut and is resolved in full by
    (distance, index) order.
    """
    n = P.X.shape[0]
    chunk = max(1, min(ids.size, _CHUNK_BUDGET // n))
    buffers = np.empty((2, chunk, n))
    for start in range(0, ids.size, chunk):
        block = ids[start:start + chunk]
        rows = np.arange(block.size)
        contiguous = block[-1] - block[0] + 1 == block.size
        sel = slice(int(block[0]), int(block[-1]) + 1) if contiguous else block
        d = P.pairwise_rows(sel, out=buffers[:, :block.size])
        d[rows, block] = np.inf
        part = np.argpartition(d, rho, axis=1)[:, :rho + 1].copy()  # frees the N-wide block
        cand = part[:, :rho]
        cand_d = np.take_along_axis(d, cand, axis=1)
        cutoff = cand_d.max(axis=1)
        tied = d[rows, part[:, rho]] == cutoff
        order = np.lexsort((cand, cand_d), axis=1)
        idx_out[block] = np.take_along_axis(cand, order, axis=1)
        sqd_out[block] = np.take_along_axis(cand_d, order, axis=1)
        for r in np.flatnonzero(tied):
            full = np.flatnonzero(d[r] <= cutoff[r])
            keep = full[np.lexsort((full, d[r, full]))][:rho]
            idx_out[block[r]] = keep
            sqd_out[block[r]] = d[r, keep]


def knn_graph(X, rho: int) -> SparseAffinity:
    """Directed binary rho-NN graph: w(p,q) = 1 iff q is among p's rho nearest."""
    idx, sqd = _neighbor_search(X, rho)
    n = idx.shape[0]
    indptr = np.arange(0, n * rho + 1, rho, dtype=np.int64)
    data = np.ones(n * rho, dtype=np.float64)
    m = sp.csr_matrix((data, idx.ravel(), indptr), shape=(n, n))
    m.sort_indices()
    degrees = np.asarray(m.sum(axis=1)).ravel()
    return SparseAffinity(matrix=m, degrees=degrees, symmetric=False, knn_sqdist=sqd)


def symmetrize(W: SparseAffinity, mode: str = "max") -> SparseAffinity:
    """Symmetrize stored weights: elementwise max, mean, or leave untouched."""
    if mode == "none":
        return W
    if mode == "max":
        m = W.matrix.maximum(W.matrix.T)
    elif mode == "mean":
        m = (W.matrix + W.matrix.T) * 0.5
    else:
        raise DataError(f"unknown symmetrization mode: {mode!r}")
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
