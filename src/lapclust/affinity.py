"""Sparse neighborhood affinities and graph-Laplacian quantities.

The affinity graph connects each point to its rho nearest neighbors (squared
Euclidean distance, binary weights). Neighbor search is exact and chunked, so
no dense N x N matrix is ever materialized. Its distances come from the
package's one centered kernel (``prototypes.CenteredFeatures``), which keeps
neighbor sets exact far from the origin; ties are broken toward the lower
point index for cross-platform determinism. The graph keeps the distances, so
``estimate_sigma2`` takes the kernel width from it without a second search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import DataError, DegenerateDataError
from .prototypes import CenteredFeatures

_CHUNK_BUDGET = 16_000_000  # scratch floats per distance chunk


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
        return replace(self, diag_shift=float(delta))

    def dump(self, path) -> None:
        """Write stored edges as 'p q w' triplets (debug aid)."""
        coo = self.matrix.tocoo()
        with open(path, "w", encoding="utf-8") as fh:
            for p, q, w in zip(coo.row, coo.col, coo.data):
                fh.write(f"{int(p)} {int(q)} {float(w)!r}\n")


def _neighbor_search(X, rho):
    """Exact rho-NN per row. Returns (indices, sqdists), both (N, rho).

    Works in row chunks; candidate selection uses argpartition and ties at the
    cut boundary are resolved by (distance, index) order.
    """
    P = CenteredFeatures(X)
    n = P.X.shape[0]
    if not 1 <= rho < n:
        raise DataError(f"rho must satisfy 1 <= rho < n_points, got rho={rho}, n={n}")
    chunk = max(1, min(n, _CHUNK_BUDGET // n))
    idx_out = np.empty((n, rho), dtype=np.int64)
    sqd_out = np.empty((n, rho), dtype=np.float64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d = P.pairwise_rows(start, stop)
        d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        cand = np.argpartition(d, rho - 1, axis=1)[:, :rho]
        cand_d = np.take_along_axis(d, cand, axis=1)
        # boundary ties: rows where more than rho entries are <= cutoff
        cutoff = cand_d.max(axis=1)
        counts = (d <= cutoff[:, None]).sum(axis=1)
        order = np.lexsort((cand, cand_d), axis=1)
        idx_out[start:stop] = np.take_along_axis(cand, order, axis=1)
        sqd_out[start:stop] = np.take_along_axis(cand_d, order, axis=1)
        for r in np.nonzero(counts > rho)[0]:
            full = np.nonzero(d[r] <= cutoff[r])[0]
            keep = full[np.lexsort((full, d[r, full]))][:rho]
            idx_out[start + r] = keep
            sqd_out[start + r] = d[r, keep]
    return idx_out, sqd_out


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
        return replace(W)
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
    return replace(W, matrix=m, degrees=degrees, symmetric=True)


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
