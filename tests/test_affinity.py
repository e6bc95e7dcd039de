"""Sparse affinity graphs: neighbor search, symmetrization, kernel width."""

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.spatial
from scipy.spatial import cKDTree

from lapclust import estimate_sigma2, knn_graph, laplacian_quadratic, symmetrize
from lapclust import affinity
from lapclust.affinity import SparseAffinity
from lapclust.errors import DataError, DegenerateDataError
from lapclust.prototypes import CenteredFeatures, _half_sqdist, _sqdist


def brute_force_neighbors(X, rho):
    """All-pairs oracle: rho smallest squared distances, ties by lower index."""
    n = X.shape[0]
    out = np.empty((n, rho), dtype=np.int64)
    for p in range(n):
        d = np.einsum("ij,ij->i", X - X[p], X - X[p])
        order = sorted((dd, q) for q, dd in enumerate(d) if q != p)
        out[p] = [q for _, q in order[:rho]]
    return out


# the _TREE_MAX_DIM that sends a search of any d down each path
SEARCH_PATHS = {"tree": np.inf, "brute": 0}


def on_path(name):
    """A context in which ``_neighbor_search`` takes the path ``name`` whatever d is."""
    return mock.patch.object(affinity, "_TREE_MAX_DIM", SEARCH_PATHS[name])


def path_searches(X, rho):
    """(path name, indices, squared distances) from the search on each path."""
    P = CenteredFeatures(X)
    runs = []
    for name in SEARCH_PATHS:
        with on_path(name):
            runs.append((name, *affinity._neighbor_search(P, rho)))
    return runs


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
    tree = cKDTree(X, leafsize=affinity._TREE_LEAFSIZE, balanced_tree=affinity._TREE_BALANCED)
    own = tree.query(X, k=rho + 2)[1] == np.arange(len(X))[:, None]
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


def test_tree_hands_the_exact_pass_its_rows_in_increasing_order(monkeypatch):
    # shuffled copies: most rows tie at the cut, and the tree, working in its
    # leaf order, must return them increasing, as the exact pass reads a run
    # of consecutive rows as one slice
    rng = np.random.default_rng(27)
    X = rng.permutation(np.repeat(rng.standard_normal((40, 3)), 6, axis=0))
    P = CenteredFeatures(X)
    with on_path("brute"):
        want = affinity._neighbor_search(P, 3)
    calls = spy_exact_rows(monkeypatch)
    with on_path("tree"):
        got = affinity._neighbor_search(P, 3)
    (ids,) = calls
    assert ids.size > 100 and (np.diff(ids) > 0).all()
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


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


def traced_peak(path, X, rho):
    """Peak traced bytes of centering X and searching it on one path."""
    with on_path(path):
        affinity._neighbor_search(CenteredFeatures(X[:50]), rho)  # first-call allocations out
        tracemalloc.start()
        try:
            affinity._neighbor_search(CenteredFeatures(X), rho)
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
    assert traced_peak("brute", X, 5) < 4 * block_bytes


def test_knn_tree_search_memory_is_linear_in_n():
    # the tree path holds a few N x (rho + 2) arrays and N x d copies of X
    # (d <= 10 on this path); 6.45 and 6.22 of those units are measured at
    # N = 4000 and 16000, the search's two N x rho outputs included
    rho = 5
    for n in (4000, 16000):
        X = np.random.default_rng(17).standard_normal((n, 8))
        assert traced_peak("tree", X, rho) < 10 * n * (rho + 2) * 8


def test_knn_path_is_chosen_by_dimension(monkeypatch):
    # the tree up to _TREE_MAX_DIM columns; wider, the float32 prefilter when N
    # holds more than rho + 1 groups, else no candidate pass. Every search then
    # makes one exact pass, over every row when there was no candidate pass.
    taken = []

    def spy(name, search):
        def run(P, rho, *out):
            taken.append((name, P.X.shape))
            return search(P, rho, *out)
        return run

    for name in ("tree", "prefiltered"):
        monkeypatch.setattr(affinity, f"_{name}_rows", spy(name, getattr(affinity, f"_{name}_rows")))
    exact = spy_exact_rows(monkeypatch)
    rng = np.random.default_rng(21)
    d, rho = affinity._TREE_MAX_DIM, 3
    big = (rho + 1) * affinity._GROUP_SIZE + 1
    for dim in (1, d, d + 1, 128):
        for n in (30, big):
            knn_graph(rng.standard_normal((n, dim)), rho)
    assert taken == [("tree", (30, 1)), ("tree", (big, 1)), ("tree", (30, d)), ("tree", (big, d)),
                     ("prefiltered", (big, d + 1)), ("prefiltered", (big, 128))]
    assert len(exact) == 8
    assert exact[4].tolist() == exact[6].tolist() == list(range(30))


def test_knn_paths_agree_on_the_scalability_stream():
    # the acceptance test's N=50k input (stream 1111, d=10, k=10) at N=10k
    rng = np.random.default_rng(1111)
    n, d, k, rho = 10_000, 10, 10, 5
    centers = rng.standard_normal((k, d)) * 4.0
    X = centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))
    (_, tree_idx, tree_sqd), (_, brute_idx, brute_sqd) = path_searches(X, rho)
    np.testing.assert_array_equal(tree_idx, brute_idx)
    np.testing.assert_allclose(tree_sqd, brute_sqd, rtol=1e-10)


def test_tree_search_does_not_depend_on_its_worker_count(monkeypatch):
    # the scalability stream at N=10k, queried in leaf order on 1 and on 2 threads
    rng = np.random.default_rng(1111)
    n, d, k, rho = 10_000, 10, 10, 5
    centers = rng.standard_normal((k, d)) * 4.0
    X = centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))
    P = CenteredFeatures(X)
    seen = []

    class SpyTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            seen.append(kwargs["workers"])
            return super().query(x, k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", SpyTree)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(affinity, "_search_workers", lambda n: workers)
        runs.append(affinity._neighbor_search(P, rho))
    assert seen == [1, 2]
    (idx1, sqd1), (idx2, sqd2) = runs
    assert idx1.tobytes() == idx2.tobytes()
    assert sqd1.tobytes() == sqd2.tobytes()
    with on_path("brute"):
        np.testing.assert_array_equal(idx1, affinity._neighbor_search(P, rho)[0])


def test_tree_search_starts_no_thread_for_a_small_search():
    per = affinity._TREE_QUERIES_PER_WORKER
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert affinity._search_workers(1) == affinity._search_workers(2 * per - 1) == 1
    assert affinity._search_workers(2 * per) == min(cpus, 2)
    assert affinity._search_workers(1000 * per) == cpus


def exact_rows_oracle(P, rho, ids):
    """The search's block body before half distances and the grouped
    selection: clamped distances, one argpartition over every column, and a
    tie pass over every column within the cutoff."""
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
    P = CenteredFeatures(X)
    idx = np.full((n, rho), -1, dtype=np.int64)
    sqd = np.full((n, rho), np.nan)
    affinity._exact_rows(P, rho, ids, idx, sqd)
    want_idx, want_sqd = exact_rows_oracle(P, rho, ids)
    np.testing.assert_array_equal(idx[ids], want_idx)
    assert sqd[ids].tobytes() == want_sqd.tobytes()
    if case == "near_copies":
        assert (want_sqd == 0).all(axis=1).any()
    if case in ("grid", "grid_ids", "copies"):
        # rows whose groups tie at t, where more than rho + 1 groups could hold
        # a nearest point
        h = _half_sqdist(P.centered, ids, 0.5 * P.sq_norms, out=np.empty((2, ids.size, n)))
        h[np.arange(ids.size), ids] = np.inf
        mins = group_minima(h)
        t = np.sort(mins, axis=1)[:, rho]
        assert np.count_nonzero((mins <= t[:, None]).sum(axis=1) > rho + 1) > 0


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
        h = _half_sqdist(P.centered, ids, 0.5 * P.sq_norms, out=np.empty((2, ids.size, n)))
        h[np.arange(ids.size), ids] = np.inf
        mins = group_minima(h)
        t = np.sort(mins, axis=1)[:, rho]
        rows_tied_at_t += int(np.count_nonzero((mins <= t[:, None]).sum(axis=1) > rho + 1))
    assert rows_tied_at_t > 1000


@pytest.mark.parametrize("group_size", [2, 3, 8, 32])
def test_nearest_columns_are_the_k_plus_1_smallest(monkeypatch, group_size):
    # tie-heavy float32 blocks of small integers with one inf per row; N runs
    # from the edge ng = k + 1, where every group is searched, to a few more
    # groups than the k + 1 searched, with and without a partial last stride
    monkeypatch.setattr(affinity, "_GROUP_SIZE", group_size)
    rng = np.random.default_rng(41 + group_size)
    edges = partial_strides = 0
    for _ in range(200):
        k = int(rng.integers(1, 8))
        if rng.integers(2):
            n = int(rng.integers(k * group_size + 1, (k + 1) * group_size + 1))
        else:
            n = int(rng.integers((k + 1) * group_size + 1, (k + 4) * group_size + 40))
        ng = -(-n // group_size)
        edges += ng == k + 1
        partial_strides += n % ng != 0
        b = int(rng.integers(1, 20))
        h = rng.integers(0, 6, size=(b, n)).astype(np.float32)
        h[np.arange(b), rng.integers(n, size=b)] = np.inf
        cols = affinity._nearest_columns(h, k)
        assert cols.shape == (b, k + 1)
        assert (np.diff(np.sort(cols, axis=1), axis=1) > 0).all()
        vals = np.take_along_axis(h, cols, axis=1)
        smallest = np.sort(h, axis=1)[:, :k + 1]
        np.testing.assert_array_equal(np.sort(vals, axis=1), smallest)
        np.testing.assert_array_equal(vals[:, k], smallest[:, k])
    assert edges > 50 and partial_strides > 50


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
        idx, sqd = affinity._neighbor_search(X, rho)
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

    def spy(P, rho, ids, idx_out, sqd_out, gram=None):
        calls.append(ids.copy())
        exact_rows(P, rho, ids, idx_out, sqd_out, gram)

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
    idx, sqd = affinity._neighbor_search(P, rho)
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
    idx, sqd = affinity._neighbor_search(P, rho)
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
    h = _half_sqdist(P.centered, sel, 0.5 * P.sq_norms, out=np.empty((2, A.shape[0], n)))
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
    # only a caller's matrix is checked: knn_graph, symmetrize and
    # with_diag_shift build valid graphs, dense (30 points) or CSR (130)
    checks = []
    init = SparseAffinity.__init__

    def counting(self, matrix):
        checks.append(matrix.shape[0])
        init(self, matrix)

    monkeypatch.setattr(SparseAffinity, "__init__", counting)
    for n in (30, 130):
        W = knn_graph(np.random.default_rng(18).standard_normal((n, 3)), 4)
        assert (W.dense is not None) == (n <= affinity._DENSE_MAX_N)
        for mode in ("max", "mean"):
            shifted = symmetrize(W, mode).with_diag_shift(0.25)
            assert shifted.diag_shift == 0.25 and shifted.symmetric
            assert shifted.knn_sqdist is W.knn_sqdist
            assert (shifted.dense is not None) == (W.dense is not None)
            np.testing.assert_array_equal(shifted.degrees,
                                          np.asarray(shifted.matrix.sum(axis=1)).ravel())
        with pytest.raises(DataError):
            W.with_diag_shift(-1.0)
    assert checks == []
    SparseAffinity(matrix=W.matrix)
    assert checks == [130]


@pytest.mark.parametrize("delta, match", [
    (np.nan, r"^diag_shift must be finite and >= 0$"),
    (np.inf, r"^diag_shift must be finite and >= 0$"),
    ("0.5", r"^diag_shift '0.5' is not a real number$"),
    (None, r"^diag_shift None is not a real number$"),
])
def test_diag_shift_must_be_a_finite_real_number(delta, match):
    # a NaN or infinite shift was kept, and solve then blamed the features' scale
    W = knn_graph(np.random.default_rng(19).standard_normal((20, 3)), 3)
    with pytest.raises(DataError, match=match):
        W.with_diag_shift(delta)


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


def both_forms(W):
    """A small knn_graph's dense graph, and its matrix as a CSR graph."""
    assert W.dense is not None
    return W, SparseAffinity(matrix=W.matrix)


def test_symmetrize_max_idempotent():
    rng = np.random.default_rng(5)
    for G in both_forms(knn_graph(rng.standard_normal((15, 2)), 3)):
        W = symmetrize(G, "max")
        W2 = symmetrize(W, "max")
        assert (W.dense is None) == (W2.dense is None) == (G.dense is None)
        assert (W.matrix != W2.matrix).nnz == 0
        np.testing.assert_array_equal(W.degrees, W2.degrees)


def test_symmetrize_mean_matches_dense_oracle():
    rng = np.random.default_rng(6)
    for W in both_forms(knn_graph(rng.standard_normal((12, 2)), 3)):
        dense = W.matrix.toarray()
        S = symmetrize(W, "mean")
        got = S.matrix.toarray()
        np.testing.assert_allclose(got, (dense + dense.T) / 2.0, atol=1e-15)
        np.testing.assert_array_equal(S.degrees, got.sum(axis=1))


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
        G = knn_graph(rng.standard_normal((n, 3)), 3)
        g = rng.gamma(1.0, size=(n, k))
        S = g / g.sum(axis=1, keepdims=True)
        for W in both_forms(G):
            W = symmetrize(W, "max")
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


@pytest.mark.parametrize("matrix, match", [
    (sp.csr_matrix((2, 3)), r"^affinity matrix must be square, got \(2, 3\)$"),
    (sp.csr_matrix(([-1.0], ([0], [1])), shape=(2, 2)), r"^affinity weights must be finite"),
    (sp.csr_matrix(([np.inf], ([0], [1])), shape=(2, 2)), r"^affinity weights must be finite"),
    (sp.csr_matrix(([np.nan], ([0], [1])), shape=(2, 2)), r"^affinity weights must be finite"),
])
def test_graph_matrix_rejected(matrix, match):
    with pytest.raises(DataError, match=match):
        SparseAffinity(matrix=matrix)


def test_laplacian_rejects_rows_of_another_count():
    W = knn_graph(np.random.default_rng(13).standard_normal((6, 2)), 2)
    with pytest.raises(DataError, match=r"^assignment rows \(5\) != graph points \(6\)$"):
        laplacian_quadratic(W, np.full((5, 2), 0.5))


def test_self_loops_rejected():
    m = sp.csr_matrix(([1.0], ([0], [0])), shape=(2, 2))
    with pytest.raises(DataError):
        SparseAffinity(matrix=m)


# Run in a fresh process whose BLAS uses the thread count of its environment:
# every K from 1 to N on dense graphs of N points, directed and symmetrized by
# max and mean, rho 1 and 3; prints the cases where the votes are not the CSR
# product bitwise.
_DENSE_VOTES_SCRIPT = """
import sys
import numpy as np
from lapclust import knn_graph, symmetrize
from lapclust.optimizer import neighbor_votes
n = int(sys.argv[1])
rng = np.random.default_rng(n)
bad = []
for rho in (1, 3):
    D = knn_graph(rng.standard_normal((n, 12)), rho)
    for mode in ("directed", "max", "mean"):
        W = D if mode == "directed" else symmetrize(D, mode)
        assert W.dense is not None and W.symmetric == (W is not D)
        for k in range(1, n + 1):
            z = 10.0 * rng.standard_normal((n, k))
            rows = np.exp(z - z.max(axis=1, keepdims=True))
            rows /= rows.sum(axis=1, keepdims=True)
            rows[rng.integers(n, size=n // 10)] = np.eye(k)[rng.integers(k, size=n // 10)]
            if neighbor_votes(W, rows).tobytes() != (W.matrix @ rows).tobytes():
                bad.append((mode, rho, k))
print(bad)
"""


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [80, affinity._DENSE_MAX_N])
def test_dense_votes_are_the_csr_product(threads, n):
    # the BLAS product adds each row's terms in column order only while it
    # multiplies with its unblocked kernel; an episode has fewer classes than
    # points and k-means++ seeds at most N, so every K a graph of N points
    # can be solved with is checked
    src_dir = os.path.dirname(os.path.dirname(affinity.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _DENSE_VOTES_SCRIPT, str(n)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("mode", affinity.SYM_MODES)
def test_dense_graph_is_the_symmetrized_search(mode):
    # the reference symmetrizes the same edges as a CSR graph built directly
    X = np.random.default_rng(23).standard_normal((affinity._DENSE_MAX_N, 16))
    D = knn_graph(X, 3)
    want = symmetrize(SparseAffinity(matrix=D.matrix), mode)
    assert want.dense is None
    W = symmetrize(D, mode)
    assert W.dense is not None and W._matrix is None  # no CSR until one is read
    assert W.symmetric and W.diag_shift == 0.0 and W.n_points == X.shape[0]
    assert W.degrees.tobytes() == want.degrees.tobytes()
    assert W.knn_sqdist.tobytes() == affinity._neighbor_search(X, 3)[1].tobytes()
    assert W.dense.tobytes() == want.matrix.toarray().tobytes()
    for part in ("data", "indices", "indptr"):
        assert getattr(W.matrix, part).tobytes() == getattr(want.matrix, part).tobytes(), part
    # symmetrize and with_diag_shift keep the dense form
    again = symmetrize(W, mode)
    assert again.dense.tobytes() == W.dense.tobytes()
    assert again.degrees.tobytes() == W.degrees.tobytes()
    assert W.with_diag_shift(0.5).dense is W.dense
    # a larger one is the CSR graph
    X = np.random.default_rng(24).standard_normal((affinity._DENSE_MAX_N + 1, 16))
    W = symmetrize(knn_graph(X, 3), mode)
    assert W.dense is None
    want = symmetrize(SparseAffinity(matrix=knn_graph(X, 3).matrix), mode)
    assert (W.matrix != want.matrix).nnz == 0


def duplicate_heavy(n, dim, rho, seed):
    """n points in dim columns: 3 (rho + 2) copies of one point, rho + 2
    copies of each of two others, and distinct points nearby."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((3, dim))
    X = np.vstack([np.repeat(base[:1], 3 * (rho + 2), axis=0),
                   np.repeat(base[1:], rho + 2, axis=0)])
    X = np.vstack([X, base[rng.integers(3, size=n - len(X))]
                   + 0.1 * rng.standard_normal((n - len(X), dim))])
    return X[rng.permutation(n)]


@pytest.mark.parametrize("dim", [2, 12])  # kd-tree, brute force
@pytest.mark.parametrize("n", [60, 150])  # dense, CSR (with the float32 prefilter at d = 12)
def test_knn_graph_has_no_self_loops_and_degree_rho(n, dim):
    # knn_graph does not check its own graph, so the search must give each row
    # rho distinct other points, also where more than rho + 1 points coincide
    rho = 3
    W = knn_graph(duplicate_heavy(n, dim, rho, seed=n + dim), rho)
    assert (W.dense is not None) == (n <= affinity._DENSE_MAX_N)
    m = W.matrix
    assert not m.diagonal().any()
    np.testing.assert_array_equal(np.diff(m.indptr), rho)
    np.testing.assert_array_equal(m.data, 1.0)
    assert W.degrees.tobytes() == np.full(n, float(rho)).tobytes()
    assert SparseAffinity(matrix=m).degrees.tobytes() == W.degrees.tobytes()
    if W.dense is not None:
        assert not W.dense.diagonal().any()
        assert W.dense.tobytes() == m.toarray().tobytes()
