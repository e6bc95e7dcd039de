"""Sparse affinity graphs: neighbor search, symmetrization, kernel width."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from lapclust import estimate_sigma2, knn_graph, laplacian_quadratic, symmetrize
from lapclust import affinity
from lapclust.affinity import SparseAffinity
from lapclust.errors import DataError, DegenerateDataError
from lapclust.prototypes import CenteredFeatures, _sqdist


def brute_force_neighbors(X, rho):
    """All-pairs oracle: rho smallest squared distances, ties by lower index."""
    n = X.shape[0]
    out = np.empty((n, rho), dtype=np.int64)
    for p in range(n):
        d = np.einsum("ij,ij->i", X - X[p], X - X[p])
        order = sorted((dd, q) for q, dd in enumerate(d) if q != p)
        out[p] = [q for _, q in order[:rho]]
    return out


SEARCH_PATHS = {"tree": affinity._tree_search, "brute": affinity._brute_search}


def path_searches(X, rho):
    """(path name, indices, squared distances) from each search path, called directly."""
    P = CenteredFeatures(X)
    return [(name, *search(P, rho)) for name, search in SEARCH_PATHS.items()]


def assert_paths_match(X, rho, expected):
    """knn_graph and both search paths give the oracle's neighbors, in
    (distance, index) order from the paths."""
    W = knn_graph(X, rho)
    for p in range(X.shape[0]):
        got = W.matrix.indices[W.matrix.indptr[p]:W.matrix.indptr[p + 1]]
        np.testing.assert_array_equal(got, np.sort(expected[p]))
    for name, idx, sqd in path_searches(X, rho):
        np.testing.assert_array_equal(idx, expected, err_msg=name)
        assert (np.diff(sqd, axis=1) >= 0).all(), name


def test_knn_line_nearest():
    X = np.array([[0.0], [1.0], [10.0]])
    W = knn_graph(X, 1)
    dense = W.matrix.toarray()
    assert dense[0, 1] == 1 and dense[1, 0] == 1 and dense[2, 1] == 1
    assert W.matrix.nnz == 3
    assert_paths_match(X, 1, [[1], [0], [1]])


def test_knn_duplicate_tie_to_lower_index():
    X = np.array([[0.0], [0.0], [5.0]])
    W = knn_graph(X, 1).matrix.toarray()
    assert W[0, 1] == 1  # the duplicate, not the far point
    assert W[1, 0] == 1  # tie among equal distances resolves to index 0
    assert W[2, 0] == 1  # equidistant 0 and 1 -> lower index
    assert_paths_match(X, 1, [[1], [0], [0]])


def test_knn_point_with_more_copies_than_the_tree_returns():
    # rho + 3 copies of the origin: the tree's rho + 2 nearest of a copy can
    # all be other copies, without the point itself
    rho = 3
    X = np.vstack([np.zeros((rho + 4, 2)), np.random.default_rng(20).standard_normal((6, 2)) + 3])
    own = cKDTree(X, leafsize=32).query(X, k=rho + 2)[1] == np.arange(len(X))[:, None]
    assert not own.any(axis=1).all()
    assert_paths_match(X, rho, brute_force_neighbors(X, rho))


@pytest.mark.parametrize("rho", [1, 2, 4, 8])
def test_knn_tree_keeps_the_kernels_sets_where_rounding_decides(rho):
    # two jittered integer grids at +-1e4: the jitter (1e-10) is below the
    # centered kernel's rounding (~1e-8 here), so the kernel's sets differ from
    # the exact oracle's, and the tree must send those rows to the kernel
    g = np.arange(-2.0, 3.0)
    grid = np.array([(x, y) for x in g for y in g])
    X = np.vstack([grid + 1e4, grid - 1e4])
    X += np.random.default_rng(22).standard_normal(X.shape) * 1e-10
    (_, tree_idx, _), (_, brute_idx, _) = path_searches(X, rho)
    assert (np.sort(brute_idx, axis=1) != np.sort(brute_force_neighbors(X, rho), axis=1)).any()
    np.testing.assert_array_equal(np.sort(tree_idx, axis=1), np.sort(brute_idx, axis=1))


def test_knn_matches_brute_force():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    assert_paths_match(X, 4, brute_force_neighbors(X, 4))


def test_knn_exact_far_from_origin():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((300, 8)) + 1e7
    assert_paths_match(X, 5, brute_force_neighbors(X, 5))


def integer_grid():
    """27 points of a 5x5 integer grid, (1, 0) and (-1, 0) doubled: mean 0, so
    the centered distances are exact integers and many rows tie at the cut."""
    g = np.arange(-2.0, 3.0)
    X = np.array([(x, y) for x in g for y in g] + [(1.0, 0.0), (-1.0, 0.0)])
    assert not X.mean(axis=0).any()
    return X


def brute_force_sqdist(X, nbrs):
    return np.array([[np.sum((X[p] - X[q]) ** 2) for q in row] for p, row in enumerate(nbrs)])


@pytest.mark.parametrize("rows_per_block", [1, 4, 10])
@pytest.mark.parametrize("rho", [3, 4, 26])
def test_knn_blocked_search_matches_one_block(monkeypatch, rows_per_block, rho):
    # the tree path sends the rows tied at the cut through the same blocks
    X = integer_grid()
    n = X.shape[0]
    one_block = path_searches(X, rho)
    monkeypatch.setattr(affinity, "_CHUNK_BUDGET", rows_per_block * n)  # 27 rows: ragged last block
    expected = brute_force_neighbors(X, rho)
    expected_sqd = brute_force_sqdist(X, expected)
    for (name, idx, sqd), (_, one_idx, one_sqd) in zip(path_searches(X, rho), one_block):
        np.testing.assert_array_equal(idx, expected, err_msg=name)
        np.testing.assert_array_equal(one_idx, expected, err_msg=name)
        assert sqd.tobytes() == one_sqd.tobytes(), name
        np.testing.assert_array_equal(sqd, expected_sqd, err_msg=name)
    assert knn_graph(X, rho).knn_sqdist.tobytes() == expected_sqd.tobytes()
    if rho < n - 1:  # the input has ties at the cut: rho-th and (rho+1)-th equally far
        wider = brute_force_sqdist(X, brute_force_neighbors(X, rho + 1))
        assert (wider[:, rho - 1] == wider[:, rho]).any()


def traced_peak(search, X, rho):
    """Peak traced bytes of centering X and searching it on one path."""
    search(CenteredFeatures(X[:50]), rho)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        search(CenteredFeatures(X), rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_knn_search_memory_is_bounded_by_its_block():
    # the brute path's scratch is two blocks of 1M distances and one index
    # block of the same size, 8 MB each; X and the N x rho outputs are small
    # beside them
    block_bytes = 8 * 1_000_000
    assert affinity._CHUNK_BUDGET * 8 <= block_bytes
    X = np.random.default_rng(17).standard_normal((4000, 8))
    assert traced_peak(affinity._brute_search, X, 5) < 4 * block_bytes


def test_knn_tree_search_memory_is_linear_in_n():
    # the tree path holds a few N x (rho + 2) arrays and N x d copies of X
    # (d <= 10 on this path); about 7.5 of those units are measured
    rho = 5
    for n in (4000, 16000):
        X = np.random.default_rng(17).standard_normal((n, 8))
        assert traced_peak(affinity._tree_search, X, rho) < 10 * n * (rho + 2) * 8


def test_knn_path_is_chosen_by_dimension(monkeypatch):
    taken = []

    def spy(name, search):
        def run(P, rho):
            taken.append((name, P.X.shape[1]))
            return search(P, rho)
        return run

    for name, search in SEARCH_PATHS.items():
        monkeypatch.setattr(affinity, f"_{name}_search", spy(name, search))
    rng = np.random.default_rng(21)
    d = affinity._TREE_MAX_DIM
    for dim in (1, d, d + 1, 128):
        knn_graph(rng.standard_normal((30, dim)), 3)
    assert taken == [("tree", 1), ("tree", d), ("brute", d + 1), ("brute", 128)]


def test_knn_paths_agree_on_the_scalability_stream():
    # the acceptance test's N=50k input (stream 1111, d=10, k=10) at N=10k
    rng = np.random.default_rng(1111)
    n, d, k, rho = 10_000, 10, 10, 5
    centers = rng.standard_normal((k, d)) * 4.0
    X = centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))
    (_, tree_idx, tree_sqd), (_, brute_idx, brute_sqd) = path_searches(X, rho)
    np.testing.assert_array_equal(tree_idx, brute_idx)
    np.testing.assert_allclose(tree_sqd, brute_sqd, rtol=1e-10)


def exact_rows_oracle(P, rho, ids):
    """The search's block body before half distances and the two-stage
    selection: clamped distances and one argpartition over every column."""
    n = P.X.shape[0]
    idx_out = np.empty((n, rho), dtype=np.int64)
    sqd_out = np.empty((n, rho), dtype=np.float64)
    chunk = max(1, min(ids.size, affinity._CHUNK_BUDGET // n))
    for start in range(0, ids.size, chunk):
        block = ids[start:start + chunk]
        rows = np.arange(block.size)
        contiguous = block[-1] - block[0] + 1 == block.size
        sel = slice(int(block[0]), int(block[-1]) + 1) if contiguous else block
        d = _sqdist(P.centered[sel], P.sq_norms[sel], P.centered, P.sq_norms)
        d[rows, block] = np.inf
        part = np.argpartition(d, rho, axis=1)[:, :rho + 1]
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
    return idx_out[ids], sqd_out[ids]


def group_minima(h):
    """Each strided group's minimum, the way the two-stage selection groups columns."""
    n = h.shape[1]
    ng = -(-n // affinity._GROUP_SIZE)
    return np.stack([h[:, j::ng].min(axis=1) for j in range(ng)], axis=1)


def two_stage_input(case):
    """(X, rho, ids) large enough for the two-stage selection."""
    rng = np.random.default_rng(23)
    if case in ("grid", "grid_ids"):
        # 33 x 33 integer grid with mean 0, so centered distances are exact
        # integers: rows tie at the cut and groups tie at their rho + 1-th minimum
        g = np.arange(-16.0, 17.0)
        X = np.array([(x, y) for x in g for y in g])
        ids = np.arange(len(X))
        if case == "grid_ids":
            ids = np.unique(np.r_[ids[::3], rng.choice(len(X), 100, replace=False)])
        return X, 4, ids
    if case == "copies":
        # 3 (rho + 1) copies of one point, at indices in different groups
        rho = 4
        X = rng.standard_normal((600, 3))
        X[np.arange(3 * (rho + 1)) * 41] = X[0]
        return X, rho, np.arange(len(X))
    if case == "near_copies":
        # 8 jittered copies of each of 61 points far from the origin: the
        # kernel's rounding leaves distinct negative values, all clamped to 0
        X = np.repeat(rng.standard_normal((61, 7)) * 1e3, 8, axis=0)
        X += rng.standard_normal(X.shape) * 1e-9
        return X, 4, np.arange(len(X))
    if case == "tail":
        X = rng.standard_normal((7 * affinity._GROUP_SIZE + 5, 5))
        return X, 5, np.arange(len(X))
    if case == "offset":
        X = rng.standard_normal((400, 6)) + 1e7
        return X, 5, np.arange(len(X))
    raise ValueError(case)


@pytest.mark.parametrize("rows_per_block", [7, 100])
@pytest.mark.parametrize("case", ["grid", "grid_ids", "copies", "near_copies", "tail", "offset"])
def test_two_stage_selection_matches_the_parent_block_body(monkeypatch, case, rows_per_block):
    X, rho, ids = two_stage_input(case)
    n = len(X)
    assert n >= (rho + 2) * affinity._GROUP_SIZE
    assert n % -(-n // affinity._GROUP_SIZE), "the last stride is a partial one"
    monkeypatch.setattr(affinity, "_CHUNK_BUDGET", rows_per_block * n)
    rows_tied_at_t = []
    nearest_columns = affinity._nearest_columns

    def spy(h, rho):
        mins = group_minima(h)
        t = np.sort(mins, axis=1)[:, rho]
        rows_tied_at_t.append(int(np.count_nonzero((mins <= t[:, None]).sum(axis=1) > rho + 1)))
        return nearest_columns(h, rho)

    monkeypatch.setattr(affinity, "_nearest_columns", spy)
    P = CenteredFeatures(X)
    idx = np.full((n, rho), -1, dtype=np.int64)
    sqd = np.full((n, rho), np.nan)
    affinity._exact_rows(P, rho, ids, idx, sqd)
    want_idx, want_sqd = exact_rows_oracle(P, rho, ids)
    np.testing.assert_array_equal(idx[ids], want_idx)
    assert sqd[ids].tobytes() == want_sqd.tobytes()
    assert len(rows_tied_at_t) == -(-ids.size // rows_per_block)  # every block took it
    if case == "near_copies":
        assert (want_sqd == 0).all(axis=1).any()
    if case in ("grid", "grid_ids", "copies"):
        # rows whose groups tie at t, where more than rho + 1 groups could hold
        # a nearest point
        assert sum(rows_tied_at_t) > 0


@pytest.mark.parametrize("group_size", [2, 3, 8])
def test_two_stage_selection_on_tie_heavy_random_inputs(monkeypatch, group_size):
    # small groups make rows whose group minima tie at t common; none of them
    # needs more than the tie pass at the cut
    monkeypatch.setattr(affinity, "_GROUP_SIZE", group_size)
    rows_tied_at_t = 0
    rng = np.random.default_rng(26 + group_size)
    for _ in range(25):
        rho = int(rng.integers(1, 8))
        n = int(rng.integers((rho + 2) * group_size, (rho + 2) * group_size + 200))
        d = int(rng.integers(1, 4))
        kind = rng.integers(3)
        if kind == 0:
            X = rng.integers(-2, 3, size=(n, d)).astype(float)
        elif kind == 1:
            X = rng.integers(0, 2, size=(n, d)) + 1e7
        else:
            X = rng.standard_normal((max(1, n // 10), d))[rng.integers(max(1, n // 10), size=n)]
        monkeypatch.setattr(affinity, "_CHUNK_BUDGET", int(rng.choice([7, 50, 1000])) * n)
        ids = np.arange(n) if rng.integers(2) else \
            np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        P = CenteredFeatures(X)
        idx = np.full((n, rho), -1, dtype=np.int64)
        sqd = np.full((n, rho), np.nan)
        affinity._exact_rows(P, rho, ids, idx, sqd)
        want_idx, want_sqd = exact_rows_oracle(P, rho, ids)
        np.testing.assert_array_equal(idx[ids], want_idx)
        assert sqd[ids].tobytes() == want_sqd.tobytes()
        h = P.half_sqdist_rows(ids, 0.5 * P.sq_norms, out=np.empty((2, ids.size, n)))
        h[np.arange(ids.size), ids] = np.inf
        mins = group_minima(h)
        t = np.sort(mins, axis=1)[:, rho]
        rows_tied_at_t += int(np.count_nonzero((mins <= t[:, None]).sum(axis=1) > rho + 1))
    assert rows_tied_at_t > 1000


def test_two_stage_selection_needs_more_groups_than_it_keeps(monkeypatch):
    calls = []
    nearest_columns = affinity._nearest_columns
    monkeypatch.setattr(affinity, "_nearest_columns",
                        lambda h, rho: (calls.append(h.shape), nearest_columns(h, rho))[1])
    rng = np.random.default_rng(24)
    rho = 3
    edge = (rho + 1) * affinity._GROUP_SIZE
    for n in (edge, edge + 1):
        X = rng.standard_normal((n, 12))
        idx, sqd = affinity._brute_search(CenteredFeatures(X), rho)
        np.testing.assert_array_equal(idx, brute_force_neighbors(X, rho))
    assert calls == [(edge + 1, edge + 1)]


def prefilter_input(case):
    """(X, rho) large enough for the single-precision prefilter."""
    if case == "cli_bench":
        # the CLI benchmark's input: stream 3333, N=10k, d=128, k=10 blobs
        rng = np.random.default_rng(3333)
        n, d, k = 10_000, 128, 10
        centers = rng.standard_normal((k, d)) * 0.5
        return centers[rng.integers(k, size=n)] + rng.standard_normal((n, d)), 5
    if case in ("duplicates", "near_duplicates"):
        # 100 distinct points, 80 copies each (N=8k, d=16): rows tie at the
        # cut. Jittered by 1e-3, the copies' distances (~3e-5) are far apart
        # for float64 but within float32's rounding bound (~2e-4) of each
        # other: float32 misorders them, and no such row can be certified.
        rng = np.random.default_rng(28)
        X = np.repeat(rng.standard_normal((100, 16)), 80, axis=0)
        if case == "near_duplicates":
            X += rng.standard_normal(X.shape) * 1e-3
        return X, 5
    raise ValueError(case)


def spy_exact_rows(monkeypatch):
    """The ids of every ``_exact_rows`` call made while the test runs."""
    calls = []
    exact_rows = affinity._exact_rows

    def spy(P, rho, ids, idx_out, sqd_out):
        calls.append(ids.copy())
        exact_rows(P, rho, ids, idx_out, sqd_out)

    monkeypatch.setattr(affinity, "_exact_rows", spy)
    return calls


def kernel_disagreement(P, sqd):
    """The bound ``_near_tie`` states on two computations of the kernel's distances."""
    return 6 * (P.X.shape[1] + 3) * np.finfo(np.float64).eps * (P.sq_norms[:, None] + sqd)


@pytest.mark.parametrize("scale", [1.0, 1e25, 1e-25])  # float32 overflows, underflows
@pytest.mark.parametrize("case", ["cli_bench", "duplicates", "near_duplicates"])
def test_prefiltered_search_matches_the_exact_rows(monkeypatch, case, scale):
    X, rho = prefilter_input(case)
    P = CenteredFeatures(X * scale)
    n = len(X)
    want_idx = np.empty((n, rho), dtype=np.int64)
    want_sqd = np.empty((n, rho))
    affinity._exact_rows(P, rho, np.arange(n), want_idx, want_sqd)
    calls = spy_exact_rows(monkeypatch)
    idx, sqd = affinity._brute_search(P, rho)
    (redone,) = calls
    np.testing.assert_array_equal(idx, want_idx)
    assert sqd[redone].tobytes() == want_sqd[redone].tobytes()
    assert (np.abs(sqd - want_sqd) <= kernel_disagreement(P, want_sqd)).all()
    if scale != 1.0:
        np.testing.assert_array_equal(redone, np.arange(n))
    elif case != "cli_bench":
        assert redone.size > 0.9 * n
    else:
        assert redone.size < 0.01 * n


def test_near_tie_at_high_dimension_is_redone(monkeypatch):
    # at d=5000 the kernel's rounding, relative to |c_p|^2 + dist, can exceed
    # 1e-12: point 0's rho-th and (rho+1)-th are 2e-8 apart at |c_0|^2 ~ 5000
    rng = np.random.default_rng(29)
    n, d, rho = 300, 5000, 5
    X = rng.standard_normal((n, d))
    near = np.r_[np.linspace(0.5, 0.9, rho - 1), 1.0, 1.0 + 2e-8]
    X[1:rho + 2] = X[0]
    X[np.arange(1, rho + 2), np.arange(rho + 1)] += np.sqrt(near)
    P = CenteredFeatures(X)
    t = P.pair_sqdist(np.arange(1, rho + 2)[None, :], slice(0, 1))[0]
    gap = (t[rho] - t[rho - 1]) / (P.sq_norms[0] + t[rho - 1])
    assert 1e-12 < gap < 8 * (d + 3) * np.finfo(np.float64).eps
    want_idx = np.empty((n, rho), dtype=np.int64)
    want_sqd = np.empty((n, rho))
    affinity._exact_rows(P, rho, np.arange(n), want_idx, want_sqd)
    calls = spy_exact_rows(monkeypatch)
    idx, sqd = affinity._brute_search(P, rho)
    assert len(calls) == 1 and 0 in calls[0]
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(idx[0], np.arange(1, rho + 1))
    assert sqd[calls[0]].tobytes() == want_sqd[calls[0]].tobytes()
    assert (np.abs(sqd - want_sqd) <= kernel_disagreement(P, want_sqd)).all()


@pytest.mark.parametrize("block", ["whole", "rows"])
def test_half_distance_block_doubles_to_the_kernels_unclamped_value(block):
    # near-duplicates far from the origin leave negative unclamped values
    rng = np.random.default_rng(25)
    X = np.repeat(rng.standard_normal((30, 7)) * 1e3, 4, axis=0)
    X += rng.standard_normal(X.shape) * 1e-9
    P = CenteredFeatures(X)
    n = len(X)
    sel = slice(0, n) if block == "whole" else slice(10, 50)  # SYRK, then GEMM
    A = P.centered[sel]
    g = A @ P.centered.T
    g *= 2.0
    unclamped = P.sq_norms[sel, None] + P.sq_norms[None, :]
    unclamped -= g
    assert (unclamped < 0).any()
    h = P.half_sqdist_rows(sel, 0.5 * P.sq_norms, out=np.empty((2, A.shape[0], n)))
    assert (2.0 * h).tobytes() == unclamped.tobytes()
    clamped = _sqdist(A, P.sq_norms[sel], P.centered, P.sq_norms)
    assert np.maximum(2.0 * h, 0.0).tobytes() == clamped.tobytes()


def test_import_leaves_scipy_spatial_unloaded():
    # the kd-tree's import is paid only by a search of narrow features
    code = ("import sys, lapclust.cli; "
            "assert 'scipy.spatial' not in sys.modules, 'imported at load'; "
            "from lapclust import knn_graph; import numpy as np; "
            "knn_graph(np.random.default_rng(0).standard_normal((40, 11)), 3); "
            "assert 'scipy.spatial' not in sys.modules, 'imported by the brute path'; "
            "knn_graph(np.random.default_rng(0).standard_normal((40, 10)), 3); "
            "assert 'scipy.spatial' in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(affinity.__file__)), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_derived_graphs_are_not_checked_again(monkeypatch):
    checks = []
    post_init = SparseAffinity.__post_init__
    monkeypatch.setattr(SparseAffinity, "__post_init__",
                        lambda self: (checks.append(self.n_points), post_init(self)))
    W = knn_graph(np.random.default_rng(18).standard_normal((30, 3)), 4)
    for mode in ("max", "mean"):
        shifted = symmetrize(W, mode).with_diag_shift(0.25)
        assert shifted.diag_shift == 0.25
        assert shifted.knn_sqdist is W.knn_sqdist
        np.testing.assert_array_equal(shifted.degrees,
                                      np.asarray(shifted.matrix.sum(axis=1)).ravel())
    assert checks == [30]
    with pytest.raises(DataError):
        W.with_diag_shift(-1.0)


def test_knn_rho_out_of_range():
    with pytest.raises(DataError):
        knn_graph(np.zeros((3, 2)), 3)


def test_symmetrize_max_adds_reverse_edge():
    m = sp.csr_matrix(([1.0], ([0], [1])), shape=(2, 2))
    W = SparseAffinity(matrix=m)
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


def test_symmetrize_rejects_none():
    # a directed graph serves only lambda = 0, where no edge is read
    W = knn_graph(np.random.default_rng(7).standard_normal((10, 2)), 2)
    with pytest.raises(DataError, match="unknown symmetrization mode: 'none'"):
        symmetrize(W, "none")


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
    for name, idx, sqd in path_searches(X, rho):
        np.testing.assert_array_equal(idx, nbrs, err_msg=name)
        assert sqd.mean() == pytest.approx(total / (15 * rho), rel=1e-12), name


def test_sigma2_far_from_origin():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((60, 8)) + 1e8
    rho = 4
    nbrs = brute_force_neighbors(X, rho)
    total = sum(float(np.sum((X[p] - X[q]) ** 2)) for p in range(60) for q in nbrs[p])
    assert estimate_sigma2(X, rho) == pytest.approx(total / (60 * rho), rel=1e-9)
    for name, idx, sqd in path_searches(X, rho):
        np.testing.assert_array_equal(idx, nbrs, err_msg=name)
        assert sqd.mean() == pytest.approx(total / (60 * rho), rel=1e-9), name


def test_sigma2_from_graph_is_bitwise_the_search_value():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((40, 3))
    W = knn_graph(X, 3)
    assert W.knn_sqdist.shape == (40, 3)
    expected = estimate_sigma2(X, 3)
    assert estimate_sigma2(W, 3) == expected
    for mode in ("max", "mean"):
        shifted = symmetrize(W, mode).with_diag_shift(0.5)
        assert estimate_sigma2(shifted, 3) == expected


def test_sigma2_graph_without_matching_distances_rejected():
    m = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2))
    W = SparseAffinity(matrix=m)
    with pytest.raises(DataError):
        estimate_sigma2(W, 1)
    X = np.random.default_rng(16).standard_normal((10, 2))
    with pytest.raises(DataError):
        estimate_sigma2(knn_graph(X, 3), 2)
    # only knn_graph attaches distances: a graph built directly, even from a
    # searched matrix, has none that estimate_sigma2 would trust unchecked
    G = knn_graph(X, 2)
    for W in (SparseAffinity(matrix=G.matrix),
              symmetrize(SparseAffinity(matrix=G.matrix), "max").with_diag_shift(0.5)):
        assert W.knn_sqdist is None
        with pytest.raises(DataError, match="graph carries no rho=2 neighbor distances"):
            estimate_sigma2(W, 2)


@pytest.mark.parametrize("name, value", [("degrees", np.full(10, 2.0)),
                                         ("knn_sqdist", np.full((3, 2), 7.0)),
                                         ("diag_shift", 0.5)])
def test_graph_is_built_from_its_matrix_alone(name, value):
    G = knn_graph(np.random.default_rng(17).standard_normal((10, 2)), 2)
    with pytest.raises(TypeError, match=name):
        SparseAffinity(matrix=G.matrix, **{name: value})
    W = SparseAffinity(matrix=G.matrix)
    # the degrees are the row sums, bitwise, on a graph built directly or searched
    rowsum = np.asarray(G.matrix.sum(axis=1)).ravel()
    assert W.degrees.tobytes() == G.degrees.tobytes() == rowsum.tobytes()
    assert (W.diag_shift, W.symmetric, W.knn_sqdist) == (0.0, False, None)


def test_laplacian_constant_rows_zero():
    rng = np.random.default_rng(9)
    W = symmetrize(knn_graph(rng.standard_normal((10, 2)), 2), "max")
    S = np.tile([0.3, 0.7], (10, 1))
    assert laplacian_quadratic(W, S) == pytest.approx(0.0, abs=1e-12)


def test_laplacian_single_edge_hand_value():
    m = sp.csr_matrix(([1.0], ([0], [1])), shape=(2, 2))
    W = SparseAffinity(matrix=m)
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
        SparseAffinity(matrix=m)
