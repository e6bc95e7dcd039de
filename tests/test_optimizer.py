"""Bound optimizer: inner updates, objectives, bound properties, full solves."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from lapclust import (
    ModeSolverConfig,
    PreprocessConfig,
    Prototypes,
    SoftAssignment,
    SolveReport,
    SolverConfig,
    auxiliary_value,
    discrete_objective,
    estimate_sigma2,
    generate_synthetic_episode,
    kmeans_pp_seeds,
    knn_graph,
    neighbor_votes,
    relaxed_objective,
    s_block,
    s_inner_update,
    save_features,
    solve,
    symmetrize,
    update_means,
    update_modes,
)
from lapclust import fewshot, optimizer, prototypes
from lapclust.cli import main
from lapclust.affinity import SparseAffinity, laplacian_quadratic
from lapclust.errors import DataError
from lapclust.prototypes import prototype_scores


def empty_graph(n):
    return SparseAffinity(matrix=sp.csr_matrix((n, n)))


def psd_shifted(W):
    """Diagonal shift from a dense eigen-oracle so W + delta*I is psd."""
    lam_min = float(np.linalg.eigvalsh(W.matrix.toarray()).min())
    return W.with_diag_shift(abs(lam_min) + 1e-6)


def random_simplex(rng, n, k):
    g = rng.gamma(1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def test_neighbor_votes_no_edges():
    S = np.array([[0.5, 0.5], [1.0, 0.0]])
    np.testing.assert_array_equal(neighbor_votes(empty_graph(2), S), np.zeros((2, 2)))


def test_neighbor_votes_single_edge_swaps_rows():
    m = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2))
    W = SparseAffinity(matrix=m)
    S = np.array([[0.9, 0.1], [0.2, 0.8]])
    b = neighbor_votes(W, S)
    np.testing.assert_allclose(b[0], S[1])
    np.testing.assert_allclose(b[1], S[0])


def test_neighbor_votes_matches_dense_oracle_with_shift():
    rng = np.random.default_rng(0)
    n, k = 15, 3
    W = symmetrize(knn_graph(rng.standard_normal((n, 2)), 3), "max").with_diag_shift(0.7)
    S = random_simplex(rng, n, k)
    dense = W.matrix.toarray() + 0.7 * np.eye(n)
    np.testing.assert_allclose(neighbor_votes(W, S), dense @ S, atol=1e-10)


def test_inner_update_uniform():
    np.testing.assert_allclose(s_inner_update(np.zeros(3)), np.full(3, 1 / 3))


def test_inner_update_hand_softmax():
    got = s_inner_update(np.array([np.log(3.0), 0.0]))
    np.testing.assert_allclose(got, [0.75, 0.25], rtol=1e-12)


def test_inner_update_minimizes_per_point_objective_on_grid():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    lam = float(rng.uniform(0.1, 2.0))
    star = s_inner_update(a, b, lam)

    def objective(s):
        nz = s > 0
        return float(np.sum(s[nz] * np.log(s[nz])) - s @ (a + lam * b))

    f_star = objective(star)
    steps = 140  # ~1e4 grid points on the 3-simplex
    best = np.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            s = np.array([i, j, steps - i - j]) / steps
            best = min(best, objective(s))
    assert f_star <= best + 1e-12


def test_inner_update_overflow_safe():
    got = s_inner_update(np.array([1e4, 0.0]))
    assert np.isfinite(got).all() and got.sum() == pytest.approx(1.0)


def row_major_softmax(z):
    """The row-major softmax, computed in place along the K axis: the reference layout."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_pair(k, n, seed=0):
    """(row-major reference, ``_softmax_in_place``) on the same random n x k scores."""
    z = np.random.default_rng(seed).standard_normal((n, k)) * 5.0
    return row_major_softmax(z.copy()), optimizer._softmax_in_place(z)


@pytest.mark.parametrize("n", [95, 10_000])
@pytest.mark.parametrize("k", [1, 2, 5, 7, 8, 10, 16, 17, 24, 25, 64])
def test_softmax_is_bitwise_the_row_major_one(k, n):
    # K <= 24 runs cluster-major, adding each row's terms in the row-major
    # order (in sequence below 8, else pairwise); wider K runs row-major
    ref, got = softmax_pair(k, n)
    assert ref.tobytes() == got.tobytes()
    np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [5, 10, 64])
def test_softmax_keeps_minus_infinity_entries_at_exact_zero(k):
    # the redo sweep's log of a zero anchor entry
    z = np.random.default_rng(1).standard_normal((50, k))
    z[::3, ::2] = -np.inf
    got = optimizer._softmax_in_place(z.copy())
    assert (got[np.isneginf(z)] == 0.0).all()
    assert (got[np.isfinite(z)] > 0.0).all()
    assert got.tobytes() == row_major_softmax(z.copy()).tobytes()


def test_softmax_of_one_row_is_row_major():
    z = np.random.default_rng(2).standard_normal(10) * 5.0
    assert optimizer._softmax_in_place(z.copy()).tobytes() == row_major_softmax(z.copy()).tobytes()


def test_s_block_lambda_zero_single_iteration():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((8, 2))
    M = Prototypes(values=X[:2], rule="means")
    S = SoftAssignment.unclamped(random_simplex(rng, 8, 2))
    cfg = SolverConfig(lam=0.0, rule="means")
    S2, iters, warns = s_block(empty_graph(8), X, M, S, cfg)
    assert iters == 1 and not warns
    np.testing.assert_allclose(S2.rows, s_inner_update(prototype_scores(X, M)))


def test_s_block_all_clamped_untouched():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    M = Prototypes(values=X, rule="means")
    rows = np.eye(2)
    S = SoftAssignment(rows=rows, clamp_class=np.array([0, 1]))
    cfg = SolverConfig(lam=0.5, rule="means")
    W = symmetrize(knn_graph(X, 1), "max")
    S2, iters, _ = s_block(W, X, M, S, cfg)
    assert iters == 0
    assert S2.rows is rows or np.array_equal(S2.rows, rows)


def test_s_block_chain_graph_fixed_point():
    rng = np.random.default_rng(3)
    n, k = 6, 2
    X = rng.standard_normal((n, 1))
    rows_i = list(range(n - 1)) + list(range(1, n))
    cols_i = list(range(1, n)) + list(range(n - 1))
    m = sp.csr_matrix((np.ones(2 * (n - 1)), (rows_i, cols_i)), shape=(n, n))
    W = SparseAffinity(matrix=m)
    M = Prototypes(values=X[:k], rule="means")
    cfg = SolverConfig(lam=0.5, rule="means", inner_tol=1e-10, inner_max=500)
    S0 = SoftAssignment.unclamped(np.full((n, k), 0.5))
    S, iters, _ = s_block(W, X, M, S0, cfg)
    assert iters < cfg.inner_max
    a = prototype_scores(X, M)
    b = neighbor_votes(W, S.rows)
    np.testing.assert_allclose(S.rows, s_inner_update(a, b, cfg.lam), atol=1e-6)


def test_s_block_preserves_simplex_and_clamps():
    rng = np.random.default_rng(4)
    n, k = 12, 3
    X = rng.standard_normal((n, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    rows = random_simplex(rng, n, k)
    rows[0] = [1.0, 0.0, 0.0]
    S = SoftAssignment(rows=rows, clamp_class=np.array([0] + [-1] * (n - 1)))
    cfg = SolverConfig(lam=1.0, rule="means")
    S2, _, _ = s_block(W, X, M=Prototypes(values=X[:k], rule="means"), S=S, cfg=cfg)
    np.testing.assert_allclose(S2.rows.sum(axis=1), 1.0, atol=1e-9)
    assert (S2.rows >= 0).all()
    np.testing.assert_array_equal(S2.rows[0], [1.0, 0.0, 0.0])


def s_block_oracle(W, a, rows, free, cfg):
    """The sweep as first written, with boolean gathers and fresh arrays every
    sweep, and certified against the dense matrix: a sweep whose change q has
    q'(W + shift)q < 0 beyond rounding is redone with the KL term."""
    if not free.any():
        return rows, 0, 0
    a_free = a[free]
    if cfg.lam == 0.0:
        new = rows.copy()
        new[free] = s_inner_update(a_free)
        return new, 1, 0
    dense = W.matrix.toarray() + W.diag_shift * np.eye(W.n_points)
    c = cfg.lam * max(0.0, dense.sum(axis=1).max() - 2 * W.diag_shift)
    redone = 0
    for iters in range(1, cfg.inner_max + 1):
        b = neighbor_votes(W, rows)
        new = rows.copy()
        new[free] = s_inner_update(a_free, b[free], cfg.lam)
        q = new - rows
        delta = np.abs(q).max()
        if np.sum(q * (dense @ q)) < -1e-12 * delta * dense.sum() and c > 0.0:
            anchor = rows[free]
            log_anchor = np.full_like(anchor, -np.inf)
            np.log(anchor, out=log_anchor, where=anchor > 0.0)
            new[free] = s_inner_update((c * log_anchor + a_free + cfg.lam * b[free]) / (1.0 + c))
            delta = np.abs(new - rows).max()
            redone += 1
        rows = new
        if delta < cfg.inner_tol:
            break
    return rows, iters, redone


def clamped_layout(rng, n, k, layout):
    """A SoftAssignment whose clamped rows are none, a prefix (an episode's
    supports) or scattered."""
    rows = random_simplex(rng, n, k)
    idx = {"all_free": [], "free_suffix": list(range(5)),
           "scattered": [0, 7, 8, 23, n - 1]}[layout]
    clamp_class = np.full(n, -1)
    clamp_class[idx] = np.arange(len(idx)) % k
    rows[idx] = np.eye(k)[clamp_class[idx]]
    return SoftAssignment(rows=rows, clamp_class=clamp_class)


SWEEP_CASES = {  # solver settings and the graph's diagonal shift
    "lam1": (dict(lam=1.0), 0.0),
    "lam0": (dict(lam=0.0), 0.0),
    "inner_cap": (dict(lam=2.0, inner_tol=1e-300, inner_max=3), 0.0),
    "diag_shift": (dict(lam=1.0), 0.5),
    "redo": (dict(lam=6.0, inner_max=30), 0.0),  # some sweeps fail the certificate
}


@pytest.mark.parametrize("layout, selector", [("all_free", slice), ("free_suffix", slice),
                                              ("scattered", np.ndarray)])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_s_block_bitwise_equals_oracle(layout, selector, case):
    rng = np.random.default_rng(31)
    n, k = 40, 4
    X = rng.standard_normal((n, 3)) + rng.integers(3, size=(n, 1)) * 3.0
    settings, shift = SWEEP_CASES[case]
    W = symmetrize(knn_graph(X, 4), "max").with_diag_shift(shift)
    cfg = SolverConfig(rule="means", **settings)
    S = clamped_layout(rng, n, k, layout)
    M = Prototypes(values=X[[0, 10, 20, 30]], rule="means")
    assert isinstance(optimizer._selector(~S.clamped), selector)

    want, want_iters, want_redone = s_block_oracle(W, prototype_scores(X, M), S.rows,
                                                   ~S.clamped, cfg)
    got, iters, redone = s_block(W, X, M, S, cfg)
    assert got.rows.tobytes() == want.tobytes()
    assert (iters, redone) == (want_iters, want_redone)
    if case == "inner_cap":
        assert iters == 3
    # the redo case redoes sweeps through both kinds of selector
    assert (redone > 0) == (case == "redo" and layout != "free_suffix")


@pytest.mark.parametrize("layout", ["all_free", "scattered"])
def test_a_redone_sweep_makes_one_votes_product(layout, monkeypatch):
    # the first rows' votes, one product per sweep, and one per redone sweep:
    # the anchor's votes are the ones its sweep started from
    rng = np.random.default_rng(31)
    n, k = 40, 4
    X = rng.standard_normal((n, 3)) + rng.integers(3, size=(n, 1)) * 3.0
    settings, _ = SWEEP_CASES["redo"]
    W = symmetrize(knn_graph(X, 4), "max")
    S = clamped_layout(rng, n, k, layout)
    M = Prototypes(values=X[[0, 10, 20, 30]], rule="means")
    calls = []
    votes = optimizer.neighbor_votes
    monkeypatch.setattr(optimizer, "neighbor_votes", lambda *args: calls.append(1) or votes(*args))
    _, iters, redone = s_block(W, X, M, S, SolverConfig(rule="means", **settings))
    assert redone > 0
    assert len(calls) == 1 + iters + redone


@pytest.mark.parametrize("layout", ["all_free", "free_suffix", "scattered"])
def test_s_block_and_solve_leave_their_inputs_unchanged(layout):
    rng = np.random.default_rng(32)
    n, k = 30, 3
    X = rng.standard_normal((n, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M = Prototypes(values=X[:k], rule="means")
    S0 = clamped_layout(rng, n, k, layout)
    before = S0.rows.copy()
    cfg = SolverConfig(lam=1.0, rule="means")
    S1, _, _ = s_block(W, X, M, S0, cfg)
    setup = optimizer._block_setup(W, ~S0.clamped, cfg)
    rows = optimizer._s_block(W, prototype_scores(X, M), S0.rows, setup, cfg)[0]
    assert S0.rows.tobytes() == before.tobytes()
    assert S1.rows is not S0.rows and rows is not S0.rows
    X_before, M_before = X.copy(), M.values.copy()
    clamp_before = S0.clamp_class.copy()
    _, M2, _ = solve(X, W, M, cfg, clamp_class=S0.clamp_class)
    assert S0.clamp_class.tobytes() == clamp_before.tobytes()
    assert X.tobytes() == X_before.tobytes() and M.values.tobytes() == M_before.tobytes()
    assert M2.values is not M.values


def test_relaxed_equals_discrete_at_vertices_lambda_zero():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 2))
    M = Prototypes(values=X[:2], rule="means")
    S = SoftAssignment.from_hard(rng.integers(2, size=9), 2)
    cfg = SolverConfig(lam=0.0, rule="means")
    W = empty_graph(9)
    assert relaxed_objective(X, W, S, M, cfg) == pytest.approx(
        discrete_objective(X, W, S.rows, M, cfg), rel=1e-12)


def test_relaxed_binary_pairwise_is_quarter_quadratic():
    # At one-hot S the bound-consistent pairwise term equals (lambda/4) of the
    # full Laplacian quadratic; the prototype and entropy parts match E exactly.
    rng = np.random.default_rng(6)
    n = 10
    X = rng.standard_normal((n, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M = Prototypes(values=X[:2], rule="means")
    S = SoftAssignment.from_hard(rng.integers(2, size=n), 2)
    lam = 0.8
    cfg = SolverConfig(lam=lam, rule="means")
    cfg0 = SolverConfig(lam=0.0, rule="means")
    f = relaxed_objective(X, W, S, M, cfg0)
    got = relaxed_objective(X, W, S, M, cfg)
    assert got == pytest.approx(f + 0.25 * lam * laplacian_quadratic(W, S.rows), rel=1e-10)


def test_relaxed_uniform_entropy_is_lower_bound_value():
    n, k = 7, 4
    X = np.zeros((n, 2))
    M = Prototypes(values=np.zeros((k, 2)), rule="means")
    S = SoftAssignment.unclamped(np.full((n, k), 1.0 / k))
    cfg = SolverConfig(lam=0.0, rule="means")
    # prototype term is 0 (all points at all prototypes), so R = -N log K
    assert relaxed_objective(X, empty_graph(n), S, M, cfg) == pytest.approx(-n * np.log(k))


def test_relaxed_matches_naive_evaluation():
    rng = np.random.default_rng(7)
    n, k = 11, 3
    X = rng.standard_normal((n, 2))
    W = symmetrize(knn_graph(X, 3), "max").with_diag_shift(0.4)
    M = Prototypes(values=rng.standard_normal((k, 2)), rule="means")
    S = random_simplex(rng, n, k)
    lam = 1.3
    cfg = SolverConfig(lam=lam, rule="means")
    dense = W.matrix.toarray() + 0.4 * np.eye(n)
    f = sum(S[p, c] * np.sum((X[p] - M.values[c]) ** 2) for p in range(n) for c in range(k))
    degrees = dense.sum(axis=1)
    cross = sum(dense[p, q] * float(S[p] @ S[q]) for p in range(n) for q in range(n))
    pairwise = 0.5 * lam * (degrees.sum() - cross)
    ent = float(np.sum(S * np.log(S)))
    assert relaxed_objective(X, W, S, M, cfg) == pytest.approx(f + pairwise + ent, rel=1e-10)


@pytest.mark.parametrize("shape", [(10000, 10), (95, 5), (3000, 128)])
@pytest.mark.parametrize("zeros", [False, True])
def test_entropy_is_bitwise_the_masked_sum(shape, zeros):
    rows = random_simplex(np.random.default_rng(4), *shape)
    if zeros:
        rows[::7, 1:] = 0.0
        rows[::7, 0] = 1.0
    assert rows.all() != zeros
    masked = rows[rows > 0]
    assert optimizer._entropy(rows) == float(np.sum(masked * np.log(masked)))


def test_discrete_kmeans_sse():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 2))
    labels = rng.integers(2, size=10)
    M = Prototypes(values=rng.standard_normal((2, 2)), rule="means")
    S = SoftAssignment.from_hard(labels, 2)
    cfg = SolverConfig(lam=0.0, rule="means")
    sse = sum(float(np.sum((X[p] - M.values[labels[p]]) ** 2)) for p in range(10))
    assert discrete_objective(X, empty_graph(10), S.rows, M, cfg) == pytest.approx(sse, rel=1e-12)


def test_discrete_zero_at_prototypes():
    X = np.array([[0.0, 0.0], [3.0, 3.0]])
    M = Prototypes(values=X, rule="means")
    S = SoftAssignment.from_hard([0, 1], 2)
    cfg = SolverConfig(lam=1.0, rule="means")
    assert discrete_objective(X, empty_graph(2), S.rows, M, cfg) == 0.0


@pytest.mark.parametrize("labels", [[0, -1, 2], [0, 3, 2], [0, 1.9, 2]])
def test_from_hard_rejects_labels_outside_the_classes(labels):
    with pytest.raises(DataError, match="label"):
        SoftAssignment.from_hard(labels, 3)


def test_discrete_rejects_soft_rows():
    cfg = SolverConfig(lam=0.0, rule="means")
    M = Prototypes(values=np.zeros((2, 1)), rule="means")
    with pytest.raises(DataError):
        discrete_objective(np.zeros((2, 1)), empty_graph(2), np.full((2, 2), 0.5), M, cfg)


def test_auxiliary_tight_at_anchor():
    rng = np.random.default_rng(9)
    n, k = 14, 3
    X = rng.standard_normal((n, 2))
    W = psd_shifted(symmetrize(knn_graph(X, 3), "max"))
    M = Prototypes(values=X[:k], rule="means")
    cfg = SolverConfig(lam=1.5, rule="means")
    S = random_simplex(rng, n, k)
    assert auxiliary_value(X, W, S, S, M, cfg) == pytest.approx(
        relaxed_objective(X, W, S, M, cfg), abs=1e-9)


def test_auxiliary_equals_relaxed_at_lambda_zero():
    rng = np.random.default_rng(10)
    n, k = 8, 2
    X = rng.standard_normal((n, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M = Prototypes(values=X[:k], rule="means")
    cfg = SolverConfig(lam=0.0, rule="means")
    S = random_simplex(rng, n, k)
    anchor = random_simplex(rng, n, k)
    assert auxiliary_value(X, W, S, anchor, M, cfg) == pytest.approx(
        relaxed_objective(X, W, S, M, cfg), rel=1e-12)


def test_auxiliary_upper_bounds_relaxed_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, k = int(rng.integers(8, 25)), int(rng.integers(2, 5))
        X = rng.standard_normal((n, 2))
        W = psd_shifted(symmetrize(knn_graph(X, 3), "max"))
        M = Prototypes(values=X[:k], rule="means")
        cfg = SolverConfig(lam=float(rng.uniform(0.1, 3.0)), rule="means")
        for _ in range(5):
            S = random_simplex(rng, n, k)
            anchor = random_simplex(rng, n, k)
            gap = auxiliary_value(X, W, S, anchor, M, cfg) - relaxed_objective(X, W, S, M, cfg)
            assert gap >= -1e-9


def test_bound_sandwich_along_inner_iterates():
    # R(S^{n+1}) <= A(S^{n+1}; anchor S^n) <= A(S^n; anchor S^n) = R(S^n)
    rng = np.random.default_rng(12)
    n, k = 16, 3
    X = rng.standard_normal((n, 2)) * 2.0
    W = psd_shifted(symmetrize(knn_graph(X, 3), "max"))
    sigma2 = estimate_sigma2(X, 3)
    for rule in ("means", "modes"):
        cfg = SolverConfig(lam=1.0, rule=rule, sigma2=(sigma2 if rule == "modes" else None))
        M = Prototypes(values=X[rng.choice(n, k, replace=False)], rule=rule)
        a = prototype_scores(X, M, cfg.sigma2)
        S = random_simplex(rng, n, k)
        for _ in range(10):
            b = neighbor_votes(W, S)
            S_new = s_inner_update(a, b, cfg.lam)
            a_old = auxiliary_value(X, W, S, S, M, cfg)
            a_new = auxiliary_value(X, W, S_new, S, M, cfg)
            r_old = relaxed_objective(X, W, S, M, cfg)
            r_new = relaxed_objective(X, W, S_new, M, cfg)
            tol = 1e-9 * (1.0 + abs(r_old))
            assert r_new <= a_new + tol
            assert a_new <= a_old + tol
            assert abs(a_old - r_old) <= tol
            S = S_new


def test_cheap_certificate_equals_the_bound_gap_oracle():
    # (lambda/2) q'(b(next) - b(this)) over the free rows is A(next; this) - R(next)
    rng = np.random.default_rng(33)
    for shift in (0.0, 0.8):
        for _ in range(8):
            n, k = int(rng.integers(25, 40)), int(rng.integers(2, 5))
            X = rng.standard_normal((n, 2))
            W = symmetrize(knn_graph(X, 3), "max").with_diag_shift(shift)
            M = Prototypes(values=X[:k], rule="means")
            cfg = SolverConfig(lam=float(rng.uniform(0.5, 8.0)), rule="means")
            S = clamped_layout(rng, n, k, "scattered")
            free = ~S.clamped
            a = prototype_scores(X, M)
            b_this = neighbor_votes(W, S.rows)
            new = S.rows.copy()
            new[free] = s_inner_update(a[free], b_this[free], cfg.lam)
            b_next = neighbor_votes(W, new)
            q = (new - S.rows)[free]
            cheap = 0.5 * cfg.lam * float(np.sum(q * (b_next - b_this)[free]))
            aux = auxiliary_value(X, W, new, S.rows, M, cfg)
            rel = relaxed_objective(X, W, new, M, cfg)
            assert cheap == pytest.approx(aux - rel, rel=1e-9, abs=1e-9 * (abs(aux) + abs(rel)))


def raising_case():
    """A small graph, lambda = 16 and no shift: the plain sweep from the solve's
    first rows raises R (found by a seeded search)."""
    rng = np.random.default_rng(26)
    X = rng.standard_normal((10, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    return X, W, Prototypes(values=X[:3], rule="means"), SolverConfig(lam=16.0, rule="means")


def test_plain_sweep_can_raise_r_and_the_certified_solve_descends():
    X, W, M0, cfg = raising_case()
    a = prototype_scores(X, M0)
    rows0 = s_inner_update(a)
    rows1 = s_inner_update(a, neighbor_votes(W, rows0), cfg.lam)
    assert relaxed_objective(X, W, rows1, M0, cfg) > relaxed_objective(X, W, rows0, M0, cfg) + 1.0
    assert W.diag_shift == 0.0

    _, _, report = solve(X, W, M0, cfg)
    trace = np.array(report.relaxed_trace)
    assert np.all(np.diff(trace) <= 1e-9 * (1.0 + np.abs(trace[:-1])))
    # the loop warns of nothing; the rounding to hard labels empties cluster 0
    assert report.warnings == ["hard re-fit: cluster 0: zero mass, previous mean kept"]
    assert report.redone_sweeps > 0


def test_redo_sweep_keeps_zero_anchor_entries_at_zero():
    X, W, M, cfg = raising_case()
    a = prototype_scores(X, M)
    rows = s_inner_update(a)
    rows[::2, 0] = 0.0  # exact zeros, as from an underflowed exp
    rows /= rows.sum(axis=1, keepdims=True)
    S0 = SoftAssignment.unclamped(rows)
    plain = s_inner_update(a, neighbor_votes(W, rows), cfg.lam)
    assert (plain[::2, 0] > 0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S1, iters, redone = s_block(W, X, M, S0, replace(cfg, inner_max=1))
    assert (iters, redone) == (1, 1)
    assert (S1.rows[::2, 0] == 0.0).all() and (S1.rows[1::2, 0] > 0.0).all()
    assert relaxed_objective(X, W, S1, M, cfg) <= relaxed_objective(X, W, S0, M, cfg)


def test_solve_rejects_a_nonsymmetric_graph_with_positive_lambda():
    X = np.random.default_rng(34).standard_normal((12, 2))
    M0 = Prototypes(values=X[:2], rule="means")
    directed = knn_graph(X, 3)
    assert not directed.symmetric
    with pytest.raises(DataError, match="needs a symmetric affinity graph"):
        solve(X, directed, M0, SolverConfig(lam=0.5, rule="means"))
    # only symmetrize marks a graph symmetric; a caller cannot set the flag and
    # skip the check, which a directed graph built directly fails too
    with pytest.raises(TypeError, match="symmetric"):
        SparseAffinity(matrix=directed.matrix, symmetric=True)
    rebuilt = SparseAffinity(matrix=directed.matrix)
    with pytest.raises(DataError, match="needs a symmetric affinity graph"):
        solve(X, rebuilt, M0, SolverConfig(lam=0.5, rule="means"))
    # a graph built symmetric directly passes the structural check
    sym = symmetrize(directed, "max")
    unflagged = SparseAffinity(matrix=sym.matrix)
    for W, lam in ((directed, 0.0), (empty_graph(12), 0.5), (unflagged, 0.5), (sym, 0.5)):
        solve(X, W, M0, SolverConfig(lam=lam, rule="means"))


def test_solve_k1_gives_centroid():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 3))
    M0 = Prototypes(values=np.zeros((1, 3)), rule="means")
    cfg = SolverConfig(lam=0.0, rule="means")
    S, M, _ = solve(X, empty_graph(10), M0, cfg)
    np.testing.assert_allclose(S.rows, 1.0)
    np.testing.assert_allclose(M.values[0], X.mean(axis=0), rtol=1e-12)


def test_solve_two_blobs_exact_labels():
    rng = np.random.default_rng(14)
    a = rng.normal([0, 0], 0.1, size=(20, 2))
    b = rng.normal([10, 0], 0.1, size=(20, 2))
    X = np.vstack([a, b])
    M0 = Prototypes(values=np.array([[0.5, 0.0], [9.5, 0.0]]), rule="means")
    cfg = SolverConfig(lam=0.0, rule="means")
    S, _, report = solve(X, empty_graph(40), M0, cfg)
    labels = S.hard_labels()
    assert (labels[:20] == labels[0]).all() and (labels[20:] == labels[20]).all()
    assert labels[0] != labels[20]
    trace = np.array(report.relaxed_trace)
    assert np.all(np.diff(trace) <= 1e-9 * (1.0 + np.abs(trace[:-1])))


def test_solve_monotone_and_lower_bound_both_rules():
    rng = np.random.default_rng(15)
    for rule in ("means", "modes"):
        for lam in (0.0, 0.5, 1.0, 3.0):
            n, k = 25, 3
            X = rng.standard_normal((n, 2)) * 2.0
            W = psd_shifted(symmetrize(knn_graph(X, 3), "max"))
            sigma2 = estimate_sigma2(X, 3) if rule == "modes" else None
            cfg = SolverConfig(lam=lam, rule=rule, sigma2=sigma2)
            M0 = Prototypes(values=X[rng.choice(n, k, replace=False)], rule=rule)
            _, _, report = solve(X, W, M0, cfg)
            trace = np.array(report.relaxed_trace)
            assert np.all(np.diff(trace) <= 1e-9 * (1.0 + np.abs(trace[:-1])))
            bound = -n * np.log(k) - (n if rule == "modes" else 0.0)
            assert trace.min() >= bound - 1e-9
            assert not any("increased" in w for w in report.warnings)


def test_solve_lambda_zero_means_is_nearest_prototype():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((30, 2))
    M0 = Prototypes(values=X[:3], rule="means")
    cfg = SolverConfig(lam=0.0, rule="means")
    S, M, _ = solve(X, empty_graph(30), M0, cfg)
    d = np.einsum("nkd,nkd->nk", X[:, None] - M.values[None], X[:, None] - M.values[None])
    np.testing.assert_array_equal(S.hard_labels(), np.argmin(d, axis=1))


def test_solve_clamps_held_exactly():
    rng = np.random.default_rng(17)
    n, k = 20, 2
    X = rng.standard_normal((n, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M0 = Prototypes(values=X[:k], rule="means")
    cfg = SolverConfig(lam=0.7, rule="means")
    clamp_class = np.full(n, -1)
    clamp_class[[0, 5]] = [1, 0]
    S, _, _ = solve(X, W, M0, cfg, clamp_class=clamp_class)
    assert S.clamp_class.tolist() == clamp_class.tolist()
    np.testing.assert_array_equal(S.rows[0], [0.0, 1.0])
    np.testing.assert_array_equal(S.rows[5], [1.0, 0.0])
    np.testing.assert_allclose(S.rows.sum(axis=1), 1.0, atol=1e-9)


def test_solve_clamp_class_holds_one_class_per_point():
    # one entry per point: a point can no longer be clamped to two classes
    X = np.random.default_rng(21).standard_normal((6, 2))
    M0, cfg = Prototypes(values=X[:2], rule="means"), SolverConfig(rule="means")
    clamp_class = [-1, 1, -1, -1, -1, -1]
    S, _, _ = solve(X, empty_graph(6), M0, cfg, clamp_class=clamp_class)
    assert S.clamp_class.tolist() == clamp_class
    np.testing.assert_array_equal(S.rows[1], [0.0, 1.0])
    with pytest.raises(TypeError, match="clamps"):
        solve(X, empty_graph(6), M0, cfg, clamps=[(1, 1)])
    assert not hasattr(optimizer, "make_clamps")


@pytest.fixture
def blocks(monkeypatch):
    """One entry per assignment block run while the test runs."""
    calls = []
    block = optimizer._s_block

    def counting(*args, **kwargs):
        calls.append(1)
        return block(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_s_block", counting)
    return calls


@pytest.mark.parametrize("clamp_class, match", [
    ([-1, 1, 0], r"^clamp_class must have shape \(6,\), got \(3,\)$"),
    ([[-1, 1, 0, -1, -1, -1]], r"^clamp_class must have shape \(6,\), got \(1, 6\)$"),
    ([-1, 2, -1, -1, -1, -1], r"^clamp class 2 outside \[0, 2\)$"),
    ([-1, -1, -1, -1, -1, 7], r"^clamp class 7 outside \[0, 2\)$"),
    ([-1, -2, -1, -1, -1, -1], r"^clamp class -2 outside \[0, 2\)$"),
    ([0.9, -1, -1, -1, -1, -1], r"^clamp_class must hold integers, got dtype float64$"),
])
def test_solve_rejects_bad_clamp_class_before_any_sweep(blocks, clamp_class, match):
    X = np.random.default_rng(21).standard_normal((6, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    with pytest.raises(DataError, match=match):
        solve(X, W, Prototypes(values=X[:2], rule="means"), SolverConfig(lam=1.0),
              clamp_class=clamp_class)
    assert blocks == []


@pytest.mark.parametrize("proto_rule, cfg", [
    ("means", SolverConfig(lam=1.0, rule="modes", sigma2=1.0)),
    ("modes", SolverConfig(lam=1.0, rule="means")),
])
def test_rule_mismatch_rejected_before_any_sweep(blocks, proto_rule, cfg):
    # the prototypes carry the rule; a solver of the other rule must not ignore it
    X = np.random.default_rng(22).standard_normal((6, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M = Prototypes(values=X[:2], rule=proto_rule)
    S = SoftAssignment.unclamped(np.full((6, 2), 0.5))
    match = f"^prototypes of rule '{proto_rule}' under a solver of rule '{cfg.rule}'$"
    with pytest.raises(DataError, match=match):
        solve(X, W, M, cfg)
    with pytest.raises(DataError, match=match):
        s_block(W, X, M, S, cfg)
    assert blocks == []
    hard = SoftAssignment.from_hard([0, 1, 0, 1, 0, 1], 2)
    for objective in (lambda: relaxed_objective(X, W, S, M, cfg),
                      lambda: discrete_objective(X, W, hard, M, cfg),
                      lambda: auxiliary_value(X, W, S, S, M, cfg)):
        with pytest.raises(DataError, match=match):
            objective()


def test_solver_config_rejects_sigma2_under_means():
    # only the modes rule reads sigma2; under means it would change nothing
    with pytest.raises(DataError, match="sigma2 is read only by the modes rule"):
        SolverConfig(rule="means", sigma2=1.0)
    assert SolverConfig(rule="modes", sigma2=1.0).sigma2 == 1.0


def test_solve_report_iteration_counts_are_derived(blocks):
    for name in ("outer_iters", "inner_iters_total"):
        with pytest.raises(TypeError, match=name):
            SolveReport(**{name: 1})
    assert (SolveReport().outer_iters, SolveReport().inner_iters_total) == (0, 0)
    X = np.random.default_rng(23).standard_normal((30, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    _, _, report = solve(X, W, Prototypes(values=X[:3], rule="means"),
                         SolverConfig(lam=1.0, inner_max=3))
    assert report.outer_iters == len(blocks) == len(report.relaxed_trace) - 1 > 1
    assert report.inner_iters_per_outer[0] == 0
    assert report.inner_iters_total == sum(report.inner_iters_per_outer) > report.outer_iters


def test_solve_deterministic_reruns():
    rng_x = np.random.default_rng(18)
    X = rng_x.standard_normal((25, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M0 = Prototypes(values=X[:3], rule="means")
    cfg = SolverConfig(lam=1.0, rule="means")
    S1, M1, r1 = solve(X, W, M0, cfg)
    S2, M2, r2 = solve(X, W, M0, cfg)
    assert S1.rows.tobytes() == S2.rows.tobytes()
    assert M1.values.tobytes() == M2.values.tobytes()
    assert r1.relaxed_trace == r2.relaxed_trace


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["lam", "inner_tol", "outer_tol"])
def test_solver_config_rejects_non_finite_values(name, value):
    # a NaN tolerance would never be met, and a NaN lambda fails only deep in the solve
    with pytest.raises(DataError, match="must be finite"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("rows, match", [
    (np.full(3, 1 / 3), r"^assignment matrix must be 2-D, got \(3,\)$"),
    ([[1.5, -0.5]], r"^assignment entries must be finite and >= 0$"),
    ([[np.nan, 1.0]], r"^assignment entries must be finite and >= 0$"),
])
def test_soft_assignment_rejects_rows_off_the_simplex(rows, match):
    with pytest.raises(DataError, match=match):
        SoftAssignment(rows=rows, clamp_class=np.full(np.shape(rows)[0], -1))


@pytest.mark.parametrize("kwargs, match", [
    (dict(rule="median"), r"^unknown rule: 'median'$"),
    (dict(rule="modes", sigma2=0.0), r"^sigma2 must be finite and > 0 when given$"),
    (dict(rule="modes", sigma2=-1.0), r"^sigma2 must be finite and > 0 when given$"),
    (dict(inner_max=0), r"^iteration caps must be >= 1$"),
    (dict(outer_max=0), r"^iteration caps must be >= 1$"),
    (dict(lam=None), r"^lambda None is not a real number$"),
    (dict(lam="1"), r"^lambda '1' is not a real number$"),
    (dict(lam=10**400), r"^lambda must be finite and >= 0, got 1000"),
    (dict(inner_tol="x"), r"^inner_tol 'x' is not a real number$"),
    (dict(outer_tol=None), r"^outer_tol None is not a real number$"),
    (dict(lam=1.0, rule="modes", sigma2="2"), r"^sigma2 '2' is not a real number$"),
])
def test_solver_config_rejects_values_outside_its_range(kwargs, match):
    with pytest.raises(DataError, match=match):
        SolverConfig(**kwargs)


def test_solve_rejects_a_graph_of_another_size(blocks):
    X = np.random.default_rng(24).standard_normal((6, 2))
    W = symmetrize(knn_graph(X[:5], 3), "max")
    with pytest.raises(DataError, match=r"^graph has 5 points, features have 6$"):
        solve(X, W, Prototypes(values=X[:2], rule="means"), SolverConfig(lam=1.0))
    assert blocks == []


def test_soft_assignment_validation():
    with pytest.raises(DataError):
        SoftAssignment.unclamped(np.array([[0.6, 0.6]]))
    with pytest.raises(DataError):
        SoftAssignment(rows=np.array([[0.5, 0.5]]), clamp_class=np.array([0]))
    eye = np.eye(2)[[0, 1, 0]]
    with pytest.raises(DataError, match=r"^clamp class 2 outside \[0, 2\)$"):
        SoftAssignment(rows=eye, clamp_class=np.array([-1, 2, 1]))
    with pytest.raises(DataError, match=r"^clamped row 1 is not the one-hot of class 0$"):
        SoftAssignment(rows=eye, clamp_class=np.array([-1, 0, -1]))
    # -1 marks a free row; no other negative value is a class
    with pytest.raises(DataError, match=r"^clamp class -2 outside \[0, 2\)$"):
        SoftAssignment(rows=eye, clamp_class=np.array([-1, -2, 0]))
    S = SoftAssignment(rows=eye, clamp_class=np.array([-1, 1, 0]))
    assert S.clamped.tolist() == [False, True, True]
    with pytest.raises(TypeError, match="clamped"):
        SoftAssignment(rows=eye, clamped=np.array([False, True, True]),
                       clamp_class=np.array([-1, 1, 0]))


def kmeans_pp_oracle(X, k, rng):
    """Direct-difference k-means++: the distance loop the shared kernel replaced."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    sqd = np.einsum("ij,ij->i", X - centers[0], X - centers[0])
    for j in range(1, k):
        total = sqd.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=sqd / total))
        centers[j] = X[idx]
        np.minimum(sqd, np.einsum("ij,ij->i", X - centers[j], X - centers[j]), out=sqd)
    return centers


def test_kmeans_pp_seeds_match_direct_difference_oracle():
    X = np.random.default_rng(20).standard_normal((200, 5))
    for offset in (0.0, 1e6):
        for seed in range(5):
            got = kmeans_pp_seeds(X + offset, 8, np.random.default_rng(seed))
            want = kmeans_pp_oracle(X + offset, 8, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


def test_kmeans_pp_seeds_of_identical_points_draw_uniformly():
    # every distance is 0, so each further seed is drawn uniformly, not by weight
    X = np.full((7, 3), 2.5)
    seeds = kmeans_pp_seeds(X, 4, np.random.default_rng(25))
    assert seeds.tobytes() == kmeans_pp_oracle(X, 4, np.random.default_rng(25)).tobytes()
    assert seeds.tobytes() == np.full((4, 3), 2.5).tobytes()


def test_kmeans_pp_seeds_basic():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((12, 2))
    seeds = kmeans_pp_seeds(X, 4, np.random.default_rng(0))
    again = kmeans_pp_seeds(X, 4, np.random.default_rng(0))
    assert seeds.tobytes() == again.tobytes()
    for row in seeds:
        assert any(np.array_equal(row, x) for x in X)
    with pytest.raises(DataError):
        kmeans_pp_seeds(X, 13, rng)


@pytest.fixture
def mean_shifts(monkeypatch):
    """(max_iters, u_traces, capped) of every mean-shift run by ``solve``, in order;
    u_traces[k] lists cluster k's kernel mass at each step it made."""
    calls = []
    real = optimizer._mean_shift

    def recording(P, rows, cfg, M_init, kernel=None):
        history = []
        out = real(P, rows, cfg, M_init, kernel, history)
        assert out[2] == len(history)
        u_traces = [[] for _ in range(M_init.k)]
        for active, masses in history:
            for k, u in zip(active, masses):
                u_traces[k].append(u)
        calls.append((cfg.max_iters, [np.array(u) for u in u_traces], out[4]))
        return out

    monkeypatch.setattr(optimizer, "_mean_shift", recording)
    return calls


def capped_modes_inputs(case):
    """(X, W, M0, cfg, clamp_class) of a modes solve whose blocks spend their budget."""
    if case == "episode_d640":
        X, task, _ = generate_synthetic_episode(5, 5, 15, 640, 6.0, seed=3)
        pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
        (P, W, M0, clamp_class), cfg = fewshot._prepare_episode(
            task, X, pre, SolverConfig(lam=1.0, rule="modes"), 3, "max")
        return P, W, M0, cfg, clamp_class
    rng = np.random.default_rng(31)
    centers = rng.standard_normal((4, 2)) * 4.0
    X = np.vstack([c + rng.standard_normal((40, 2)) for c in centers])
    W = symmetrize(knn_graph(X, 5), "max")
    cfg = SolverConfig(lam=1.0, rule="modes", sigma2=estimate_sigma2(W, 5))
    M0 = Prototypes(values=kmeans_pp_seeds(X, 4, np.random.default_rng(1)), rule="modes")
    return X, W, M0, cfg, None


@pytest.mark.parametrize("case", ["episode_d640", "blobs"])
def test_capped_mode_blocks_keep_descent(mean_shifts, case):
    # a mean-shift step never lowers a block's kernel mass, so R cannot rise
    # however few steps a prototype block makes
    X, W, M0, cfg, clamp_class = capped_modes_inputs(case)
    _, _, report = solve(X, W, M0, cfg, clamp_class=clamp_class)
    loop = mean_shifts[:-1]  # the last one is the hard re-fit
    assert len(loop) == report.outer_iters
    assert {steps for steps, _, _ in loop} == {optimizer._MODE_STEPS}
    assert report.mode_cap_hits == sum(int(capped.sum()) for _, _, capped in loop) > 0
    for _, u_traces, _ in loop:
        for u in u_traces:
            assert np.all(np.diff(u) >= 0.0)
    trace = np.array(report.relaxed_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert not any("mode solver" in w for w in report.warnings)


@pytest.mark.parametrize("case", ["episode_d640", "blobs"])
def test_modes_solve_computes_each_kernel_matrix_once(monkeypatch, case):
    # one distance product for the first scores, then one per mean-shift step,
    # in the loop and in the hard re-fit, which starts from the loop's last
    # scores; the d=640 episode computes its distances from its Gram matrix
    X, W, M0, cfg, clamp_class = capped_modes_inputs(case)
    sqdists, steps = [], []
    mean_shift = optimizer._mean_shift

    def counting(sqdist):
        def counting_sqdist(self, V):
            sqdists.append((type(self), V.shape))
            return sqdist(self, V)
        return counting_sqdist

    def counting_mean_shift(P, rows, cfg, M_init, kernel=None):
        out = mean_shift(P, rows, cfg, M_init, kernel)
        steps.append(out[2])
        return out

    for points in (prototypes.CenteredFeatures, prototypes.GramPoints):
        monkeypatch.setattr(points, "sqdist", counting(points.sqdist))
    monkeypatch.setattr(optimizer, "_mean_shift", counting_mean_shift)
    _, _, report = solve(X, W, M0, cfg, clamp_class=clamp_class)
    assert len(steps) == report.outer_iters + 1  # the loop's blocks, then the re-fit
    assert steps[-1] > optimizer._MODE_STEPS
    assert len(sqdists) == 1 + sum(steps)
    points = prototypes.GramPoints if case == "episode_d640" else prototypes.CenteredFeatures
    assert {kind for kind, _ in sqdists} == {points}
    assert np.isfinite(report.discrete_objective)


@pytest.mark.parametrize("case", ["episode_d640", "blobs"])
def test_modes_objective_is_at_the_uncapped_refit(mean_shifts, case):
    X, W, M0, cfg, clamp_class = capped_modes_inputs(case)
    S, M, report = solve(X, W, M0, cfg, clamp_class=clamp_class)
    hard = SoftAssignment.from_hard(S.hard_labels(), S.k)
    M_hard, u_traces, _ = update_modes(X, hard, ModeSolverConfig(sigma2=cfg.sigma2), M)
    assert report.discrete_objective == discrete_objective(X, W, hard, M_hard, cfg)
    # the re-fit is the default uncapped run, which steps past the loop's budget
    assert mean_shifts[-1][0] == ModeSolverConfig(sigma2=cfg.sigma2).max_iters
    assert max(len(u) for u in u_traces) > optimizer._MODE_STEPS
    M_capped, _, _ = update_modes(
        X, hard, ModeSolverConfig(sigma2=cfg.sigma2, max_iters=optimizer._MODE_STEPS), M)
    assert report.discrete_objective != discrete_objective(X, W, hard, M_capped, cfg)


def test_solve_reports_why_the_outer_loop_stopped():
    X = np.random.default_rng(33).standard_normal((40, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    M0 = Prototypes(values=X[:3], rule="means")
    _, _, report = solve(X, W, M0, SolverConfig(lam=1.0, rule="means"))
    assert report.stop_reason == "tolerance" and 1 < report.outer_iters < 100
    assert not any("outer_max" in w for w in report.warnings)
    _, _, capped = solve(X, W, M0, SolverConfig(lam=1.0, rule="means", outer_max=1))
    assert capped.stop_reason == "outer_max" and capped.outer_iters == 1
    assert capped.warnings == ["outer loop hit outer_max=1"]
    assert optimizer.SolveReport().stop_reason is None


def test_solve_stops_on_a_non_finite_objective(monkeypatch):
    # the loop's prototypes go unchecked; a NaN that reached them anyway shows
    # in R, which stops the loop instead of running it to outer_max
    X = np.random.default_rng(34).standard_normal((30, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    real = optimizer._update_prototypes

    def nan_scores(P, rows, M, mode_cfg, a):
        M_new, a_new, warnings, caps = real(P, rows, M, mode_cfg, a)
        return M_new, np.full_like(a_new, np.nan), warnings, caps

    monkeypatch.setattr(optimizer, "_update_prototypes", nan_scores)
    with pytest.raises(DataError, match="^relaxed objective is nan at outer iteration 1$"):
        solve(X, W, Prototypes(values=X[:3], rule="means"), SolverConfig(lam=1.0))


def _shape_case(case):
    """A call that passes S, M or b of a shape that does not fit the points."""
    rng = np.random.default_rng(35)
    X = rng.standard_normal((40, 4))
    W = symmetrize(knn_graph(X, 3), "max")
    M = Prototypes(values=X[:2], rule="means")
    cfg = SolverConfig(lam=0.0)
    one_row = np.full((1, 2), 0.5)
    three_wide = random_simplex(rng, 40, 3)
    if case == "relaxed_one_row":
        return lambda: relaxed_objective(X, W, one_row, M, cfg)
    if case == "discrete_one_row":
        return lambda: discrete_objective(X, W, np.eye(2)[:1], M, cfg)
    if case == "auxiliary_one_row":
        return lambda: auxiliary_value(X, W, one_row, one_row, M, cfg)
    if case == "relaxed_other_k":
        return lambda: relaxed_objective(X, W, three_wide, M, SolverConfig(lam=1.0))
    if case == "discrete_other_k":
        return lambda: discrete_objective(X, W, np.eye(3)[rng.integers(3, size=40)], M, cfg)
    if case == "auxiliary_other_anchor":
        return lambda: auxiliary_value(X, W, random_simplex(rng, 40, 2), three_wide, M,
                                       SolverConfig(lam=1.0))
    if case == "s_block_ten_rows":
        X60 = rng.standard_normal((60, 4))
        S = SoftAssignment.unclamped(random_simplex(rng, 10, 2))
        return lambda: s_block(empty_graph(60), X60, Prototypes(values=X60[:2], rule="means"),
                               S, cfg)
    if case == "scores_one_wide":
        return lambda: prototype_scores(X, Prototypes(values=X[:2, :1], rule="means"))
    if case == "scores_gram_feature_wide":
        P = prototypes.GramPoints(prototypes.CenteredFeatures(X))
        return lambda: prototype_scores(P, Prototypes(values=np.eye(4)[:2], rule="means"))
    if case == "solve_one_wide":
        return lambda: solve(X, W, Prototypes(values=X[:2, :1], rule="means"), cfg)
    if case == "update_modes_one_wide":
        return lambda: update_modes(X, random_simplex(rng, 40, 2), ModeSolverConfig(sigma2=1.0),
                                    Prototypes(values=X[:2, :1], rule="modes"))
    if case in ("means_prev_one_wide", "means_prev_other_k"):
        S = np.eye(2)[np.zeros(40, dtype=int)]  # cluster 1 is empty and keeps prev's row
        prev = X[:2, :1] if case == "means_prev_one_wide" else X[:1]
        return lambda: update_means(X, S, Prototypes(values=prev, rule="means"))
    if case == "inner_update_one_row_votes":
        return lambda: s_inner_update(rng.standard_normal((40, 2)), one_row, 1.0)
    if case == "votes_other_rows":
        return lambda: neighbor_votes(W, random_simplex(rng, 39, 2))
    raise ValueError(case)


@pytest.mark.parametrize("case, message", [
    ("relaxed_one_row", "assignment rows (1) != points (40)"),
    ("discrete_one_row", "assignment rows (1) != points (40)"),
    ("auxiliary_one_row", "assignment rows (1) != points (40)"),
    ("relaxed_other_k", "assignment columns (3) != prototypes (2)"),
    ("discrete_other_k", "assignment columns (3) != prototypes (2)"),
    ("auxiliary_other_anchor", "assignment columns (3) != prototypes (2)"),
    ("s_block_ten_rows", "assignment rows (10) != points (60)"),
    ("scores_one_wide", "prototype width (1) != point width (4)"),
    ("scores_gram_feature_wide", "prototype width (4) != point width (40)"),
    ("solve_one_wide", "prototype width (1) != point width (4)"),
    ("update_modes_one_wide", "prototype width (1) != point width (4)"),
    ("means_prev_one_wide", "prototype width (1) != point width (4)"),
    ("means_prev_other_k", "assignment columns (2) != prototypes (1)"),
    ("inner_update_one_row_votes", "votes of shape (1, 2) for scores of shape (40, 2)"),
    ("votes_other_rows", "assignment rows (39) != graph points (40)"),
])
def test_shapes_that_tie_s_m_and_x_together_are_checked(case, message):
    # S has one row per point and M.k columns, M is as wide as the points (d,
    # or N on GramPoints), and b has a's shape; a single row would broadcast
    call = _shape_case(case)
    with pytest.raises(DataError) as exc:
        call()
    assert str(exc.value) == message


def test_objective_increase_is_warned_and_the_loop_goes_on(monkeypatch, tmp_path):
    # no valid input makes R rise, so the rise is injected: the second
    # prototype block of a solve returns lowered scores, which raise R by 5
    # per point
    X = np.random.default_rng(36).standard_normal((40, 2))
    W = symmetrize(knn_graph(X, 3), "max")
    real = optimizer._update_prototypes
    blocks = []

    def lowered(P, rows, M, mode_cfg, a):
        M_new, a_new, warnings, caps = real(P, rows, M, mode_cfg, a)
        blocks.append(M_new)
        return M_new, a_new - 5.0 * (len(blocks) == 2), warnings, caps

    monkeypatch.setattr(optimizer, "_update_prototypes", lowered)
    _, _, report = solve(X, W, Prototypes(values=X[:3], rule="means"), SolverConfig(lam=1.0))
    r1, r2 = report.relaxed_trace[1:3]
    assert r2 > r1
    assert f"relaxed objective increased at outer iteration 2 ({r1:.12g} -> {r2:.12g})" \
        in report.warnings
    assert report.outer_iters > 2

    fpath = tmp_path / "f.csv"
    save_features(X, fpath)
    blocks.clear()
    argv = ["cluster", "--features", str(fpath), "--k", "3", "--algo", "slk-means",
            "--lambda", "1.0", "--strict", "--out-dir", str(tmp_path / "s")]
    assert main(argv) == 3
    warned = json.loads((tmp_path / "s" / "report.json").read_text())["warnings"]
    assert any(w.startswith("relaxed objective increased at outer iteration 2 (") for w in warned)


@pytest.mark.parametrize("d", [3, 20])
def test_features_whose_distances_overflow_float64_are_rejected(d):
    # a squared distance is at most 4 max |c_p|^2, which overflows at scale
    # 1e154 and is about 3.7e307 at 1e153, d = 3
    X = np.random.default_rng(37).standard_normal((40, d))
    W = symmetrize(knn_graph(X, 5), "max")
    calls = {
        "knn_graph": lambda Y: knn_graph(Y, 5),
        "kmeans_pp_seeds": lambda Y: kmeans_pp_seeds(Y, 3, np.random.default_rng(0)),
        "solve": lambda Y: solve(Y, W, Prototypes(values=Y[:3], rule="means"),
                                 SolverConfig(lam=1.0)),
    }
    for name, call in calls.items():
        with pytest.raises(DataError, match="^features too large: their squared distances "
                                            "overflow float64$"):
            call(X * 1e154)
    if d == 3:
        big = {name: call(X * 1e153) for name, call in calls.items()}
        np.testing.assert_array_equal(big["knn_graph"].dense, knn_graph(X, 5).dense)
        assert np.isfinite(big["knn_graph"].knn_sqdist).all()
        assert np.isfinite(big["kmeans_pp_seeds"]).all()
        assert np.isfinite(big["solve"][2].discrete_objective)


@pytest.mark.parametrize("d", [3, 20])
def test_sums_of_distances_that_overflow_give_finite_sigma2_and_seeds(d, tmp_path):
    # at scale 1e153 every squared distance is finite, but their sum over the
    # rho-NN pairs (and at d = 20 over the points) overflows; scaling by a power
    # of two scales every squared distance exactly, so the scaled-down run is
    # the reference: sigma2 scales by 2^1000, and the seeds are the same rows
    X = np.random.default_rng(0).standard_normal((40, d)) * 1e153
    small = X * 2.0 ** -500
    want = estimate_sigma2(small, 5) * 2.0 ** 1000
    for source in (X, knn_graph(X, 5)):
        assert estimate_sigma2(source, 5) == pytest.approx(want, rel=1e-12)
    seeds = kmeans_pp_seeds(X, 3, np.random.default_rng(1))
    np.testing.assert_array_equal(seeds, kmeans_pp_seeds(small, 3, np.random.default_rng(1))
                                  * 2.0 ** 500)
    fpath = tmp_path / "f.csv"
    save_features(X, fpath)
    out = tmp_path / "s"
    assert main(["cluster", "--features", str(fpath), "--k", "3", "--algo", "slk-ms",
                 "--rho", "5", "--out-dir", str(out)]) == 0
    assert np.isfinite(json.loads((out / "report.json").read_text())["objective"])


@pytest.mark.parametrize("lam, means_algo, modes_algo", [(0.0, "kmeans", "kmodes"),
                                                         (1.0, "slk-means", "slk-ms")])
def test_an_overflowing_means_objective_is_a_data_error_before_the_first_sweep(
        tmp_path, capsys, monkeypatch, lam, means_algo, modes_algo):
    # at scale 1e153 and d = 20 every squared distance is finite, but R's sum of
    # them over the points is not; the solve says so before its first sweep,
    # with no RuntimeWarning (pytest makes one an error). Kernel scores are at
    # most 1, so the modes rule on the same points still runs
    X = np.random.default_rng(0).standard_normal((40, 20)) * 1e153
    W = symmetrize(knn_graph(X, 3), "max")
    M0 = Prototypes(values=kmeans_pp_seeds(X, 3, np.random.default_rng(0)), rule="means")
    sweeps = []
    with monkeypatch.context() as m:
        m.setattr(optimizer, "_s_block", lambda *args: sweeps.append(args))
        with pytest.raises(DataError, match="^relaxed objective overflows to inf at the "
                                            "initial point: "):
            solve(X, W, M0, SolverConfig(lam=lam))
    assert sweeps == []
    fpath = tmp_path / "f.csv"
    save_features(X, fpath)
    argv = ["cluster", "--features", str(fpath), "--k", "3", "--out-dir"]
    assert main(argv + [str(tmp_path / "means"), "--algo", means_algo]) == 2
    assert "data error: relaxed objective overflows to inf" in capsys.readouterr().err
    out = tmp_path / "modes"
    assert main(argv + [str(out), "--algo", modes_algo]) == 0
    assert np.isfinite(json.loads((out / "report.json").read_text())["objective"])
