"""Sparse affinity graphs: neighbor search, symmetrization, kernel width."""

import numpy as np
import pytest
import scipy.sparse as sp

from lapclust import estimate_sigma2, knn_graph, laplacian_quadratic, symmetrize
from lapclust.affinity import SparseAffinity
from lapclust.errors import DataError, DegenerateDataError


def brute_force_neighbors(X, rho):
    """All-pairs oracle: rho smallest squared distances, ties by lower index."""
    n = X.shape[0]
    out = np.empty((n, rho), dtype=np.int64)
    for p in range(n):
        d = np.einsum("ij,ij->i", X - X[p], X - X[p])
        order = sorted((dd, q) for q, dd in enumerate(d) if q != p)
        out[p] = [q for _, q in order[:rho]]
    return out


def test_knn_line_nearest():
    X = np.array([[0.0], [1.0], [10.0]])
    W = knn_graph(X, 1)
    dense = W.matrix.toarray()
    assert dense[0, 1] == 1 and dense[1, 0] == 1 and dense[2, 1] == 1
    assert W.matrix.nnz == 3


def test_knn_duplicate_tie_to_lower_index():
    X = np.array([[0.0], [0.0], [5.0]])
    W = knn_graph(X, 1).matrix.toarray()
    assert W[0, 1] == 1  # the duplicate, not the far point
    assert W[1, 0] == 1  # tie among equal distances resolves to index 0
    assert W[2, 0] == 1  # equidistant 0 and 1 -> lower index


def test_knn_matches_brute_force():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    W = knn_graph(X, 4)
    expected = brute_force_neighbors(X, 4)
    for p in range(20):
        got = np.sort(W.matrix.indices[W.matrix.indptr[p]:W.matrix.indptr[p + 1]])
        np.testing.assert_array_equal(got, np.sort(expected[p]))


def test_knn_exact_far_from_origin():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((300, 8)) + 1e7
    W = knn_graph(X, 5)
    expected = brute_force_neighbors(X, 5)
    for p in range(300):
        got = np.sort(W.matrix.indices[W.matrix.indptr[p]:W.matrix.indptr[p + 1]])
        np.testing.assert_array_equal(got, np.sort(expected[p]))


def test_knn_rho_out_of_range():
    with pytest.raises(DataError):
        knn_graph(np.zeros((3, 2)), 3)


def test_symmetrize_max_adds_reverse_edge():
    m = sp.csr_matrix(([1.0], ([0], [1])), shape=(2, 2))
    W = SparseAffinity(matrix=m, degrees=np.array([1.0, 0.0]))
    S = symmetrize(W, "max")
    dense = S.matrix.toarray()
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert S.symmetric


def test_symmetrize_max_idempotent():
    rng = np.random.default_rng(5)
    W = symmetrize(knn_graph(rng.standard_normal((15, 2)), 3), "max")
    W2 = symmetrize(W, "max")
    assert (W.matrix != W2.matrix).nnz == 0
    np.testing.assert_array_equal(W.degrees, W2.degrees)


def test_symmetrize_mean_matches_dense_oracle():
    rng = np.random.default_rng(6)
    W = knn_graph(rng.standard_normal((12, 2)), 3)
    dense = W.matrix.toarray()
    got = symmetrize(W, "mean").matrix.toarray()
    np.testing.assert_allclose(got, (dense + dense.T) / 2.0, atol=1e-15)


def test_symmetrize_none_keeps_weights():
    rng = np.random.default_rng(7)
    W = knn_graph(rng.standard_normal((10, 2)), 2)
    S = symmetrize(W, "none")
    assert (S.matrix != W.matrix).nnz == 0
    assert not S.symmetric


def test_sigma2_two_points():
    X = np.array([[0.0], [2.0]])
    assert estimate_sigma2(X, 1) == pytest.approx(4.0, abs=1e-15)


def test_sigma2_degenerate():
    with pytest.raises(DegenerateDataError):
        estimate_sigma2(np.ones((4, 2)), 2)
    # duplicates far from the origin: an uncentered expansion leaves ~1e-10 residues
    with pytest.raises(DegenerateDataError):
        estimate_sigma2(np.tile(np.random.default_rng(0).standard_normal(8) * 1e3, (20, 1)), 3)


def test_sigma2_matches_naive_loop():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((15, 2))
    rho = 3
    nbrs = brute_force_neighbors(X, rho)
    total = sum(
        float(np.sum((X[p] - X[q]) ** 2)) for p in range(15) for q in nbrs[p]
    )
    assert estimate_sigma2(X, rho) == pytest.approx(total / (15 * rho), rel=1e-12)


def test_sigma2_far_from_origin():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((60, 8)) + 1e8
    rho = 4
    nbrs = brute_force_neighbors(X, rho)
    total = sum(float(np.sum((X[p] - X[q]) ** 2)) for p in range(60) for q in nbrs[p])
    assert estimate_sigma2(X, rho) == pytest.approx(total / (60 * rho), rel=1e-9)


def test_sigma2_from_graph_is_bitwise_the_search_value():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((40, 3))
    W = knn_graph(X, 3)
    assert W.knn_sqdist.shape == (40, 3)
    expected = estimate_sigma2(X, 3)
    assert estimate_sigma2(W, 3) == expected
    for mode in ("max", "mean", "none"):
        shifted = symmetrize(W, mode).with_diag_shift(0.5)
        assert estimate_sigma2(shifted, 3) == expected


def test_sigma2_graph_without_matching_distances_rejected():
    m = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2))
    W = SparseAffinity(matrix=m, degrees=np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        estimate_sigma2(W, 1)
    X = np.random.default_rng(16).standard_normal((10, 2))
    with pytest.raises(DataError):
        estimate_sigma2(knn_graph(X, 3), 2)


def test_laplacian_constant_rows_zero():
    rng = np.random.default_rng(9)
    W = symmetrize(knn_graph(rng.standard_normal((10, 2)), 2), "max")
    S = np.tile([0.3, 0.7], (10, 1))
    assert laplacian_quadratic(W, S) == pytest.approx(0.0, abs=1e-12)


def test_laplacian_single_edge_hand_value():
    m = sp.csr_matrix(([1.0], ([0], [1])), shape=(2, 2))
    W = SparseAffinity(matrix=m, degrees=np.array([1.0, 0.0]))
    S = np.eye(2)
    # ||e1 - e2||^2 = 2 per stored direction; only one direction stored here
    assert laplacian_quadratic(W, S) == pytest.approx(2.0, abs=1e-12)


def test_laplacian_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n, k = int(rng.integers(8, 25)), int(rng.integers(2, 5))
        W = symmetrize(knn_graph(rng.standard_normal((n, 3)), 3), "max")
        g = rng.gamma(1.0, size=(n, k))
        S = g / g.sum(axis=1, keepdims=True)
        dense = W.matrix.toarray()
        expected = sum(
            dense[p, q] * float(np.sum((S[p] - S[q]) ** 2))
            for p in range(n) for q in range(n)
        )
        assert laplacian_quadratic(W, S) == pytest.approx(expected, rel=1e-10)


def test_binary_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, k = int(rng.integers(6, 30)), int(rng.integers(2, 5))
        W = symmetrize(knn_graph(rng.standard_normal((n, 2)), 3), "max")
        S = np.zeros((n, k))
        S[np.arange(n), rng.integers(k, size=n)] = 1.0
        lhs = laplacian_quadratic(W, S)
        cross = float(np.sum(S * (W.matrix @ S)))
        rhs = 2.0 * (float(W.degrees.sum()) - cross)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_storage_is_sparse():
    rng = np.random.default_rng(12)
    n, rho = 400, 5
    W = symmetrize(knn_graph(rng.standard_normal((n, 3)), rho), "max")
    assert W.matrix.nnz <= 2 * n * rho


def test_self_loops_rejected():
    m = sp.csr_matrix(([1.0], ([0], [0])), shape=(2, 2))
    with pytest.raises(DataError):
        SparseAffinity(matrix=m, degrees=np.array([1.0, 0.0]))


def test_dump_triplets(tmp_path):
    m = sp.csr_matrix(([1.0], ([0], [1])), shape=(2, 2))
    W = SparseAffinity(matrix=m, degrees=np.array([1.0, 0.0]))
    path = tmp_path / "g.txt"
    W.dump(path)
    assert path.read_text() == "0 1 1.0\n"
