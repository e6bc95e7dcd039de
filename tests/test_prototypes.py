"""Prototype updates: weighted means, mean-shift mode seeking, score matrices."""

import numpy as np
import pytest

from lapclust import (
    ModeSolverConfig,
    Prototypes,
    meanshift_step,
    prototype_scores,
    update_means,
    update_modes,
)
from lapclust.errors import DataError, EmptyClusterError
from lapclust.optimizer import s_inner_update
from lapclust.prototypes import rbf_weights


def test_means_hard_assignment():
    X = np.array([[0.0], [2.0]])
    S = np.eye(2)
    M, empty = update_means(X, S)
    np.testing.assert_allclose(M.values, [[0.0], [2.0]])
    assert not empty.any()


def test_means_uniform_weights_give_global_mean():
    X = np.array([[0.0], [2.0]])
    S = np.full((2, 2), 0.5)
    M, _ = update_means(X, S)
    np.testing.assert_allclose(M.values, [[1.0], [1.0]])


def test_means_matches_naive_loop():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 3))
    g = rng.gamma(1.0, size=(12, 4))
    S = g / g.sum(axis=1, keepdims=True)
    M, _ = update_means(X, S)
    for k in range(4):
        num = sum(S[p, k] * X[p] for p in range(12))
        np.testing.assert_allclose(M.values[k], num / S[:, k].sum(), rtol=1e-12)


def test_means_empty_cluster_raises_without_prev():
    X = np.array([[0.0], [1.0]])
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(EmptyClusterError):
        update_means(X, S)


def test_means_empty_cluster_keeps_prev():
    X = np.array([[0.0], [1.0]])
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    prev = Prototypes(values=np.array([[9.0], [7.0]]), rule="means")
    M, empty = update_means(X, S, prev=prev)
    assert empty[1] and not empty[0]
    assert M.values[1, 0] == 7.0
    assert M.values[0, 0] == pytest.approx(0.5)


def test_means_is_local_minimum_under_nudges():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 2))
    g = rng.gamma(1.0, size=(10, 3))
    S = g / g.sum(axis=1, keepdims=True)
    M, _ = update_means(X, S)

    def objective(values):
        d = X[:, None, :] - values[None, :, :]
        return float(np.sum(S * np.einsum("nkd,nkd->nk", d, d)))

    base = objective(M.values)
    eps = 1e-4
    for k in range(3):
        for j in range(2):
            for sign in (+1, -1):
                nudged = M.values.copy()
                nudged[k, j] += sign * eps
                assert objective(nudged) >= base - 1e-12


def test_meanshift_single_point():
    X = np.array([[3.0, -1.0]])
    got = meanshift_step(X, [1.0], np.array([100.0, 100.0]), sigma2=1.0)
    np.testing.assert_allclose(got, X[0])


def test_meanshift_symmetric_fixed_point():
    X = np.array([[-1.0], [1.0]])
    got = meanshift_step(X, [1.0, 1.0], np.array([0.0]), sigma2=1.0)
    assert got[0] == pytest.approx(0.0, abs=1e-15)


def test_meanshift_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((8, 1))
    s = rng.uniform(0.1, 1.0, size=8)
    m = np.array([0.3])
    sigma2 = 1.5
    w = s * np.exp(-((X[:, 0] - m[0]) ** 2) / (2 * sigma2))
    expected = float(w @ X[:, 0]) / w.sum()
    assert meanshift_step(X, s, m, sigma2)[0] == pytest.approx(expected, rel=1e-12)


def test_meanshift_stays_in_convex_hull():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = rng.standard_normal((9, 2))
        s = rng.uniform(0.0, 1.0, size=9)
        s[0] = 1.0  # keep total mass positive
        m = rng.standard_normal(2) * 3
        got = meanshift_step(X, s, m, sigma2=2.0)
        assert np.all(got >= X.min(axis=0) - 1e-12)
        assert np.all(got <= X.max(axis=0) + 1e-12)


def test_modes_single_point_converges_in_one_step():
    X = np.array([[4.0]])
    cfg = ModeSolverConfig(sigma2=1.0)
    M0 = Prototypes(values=np.array([[0.0]]), rule="modes")
    M, traces, warns = update_modes(X, np.array([[1.0]]), cfg, M0)
    assert not warns
    assert M.values[0, 0] == pytest.approx(4.0)
    assert len(traces[0]) <= 2


def test_modes_midpoint_already_fixed():
    X = np.array([[-1.0], [1.0]])
    cfg = ModeSolverConfig(sigma2=1.0)
    M0 = Prototypes(values=np.array([[0.0]]), rule="modes")
    M, traces, warns = update_modes(X, np.ones((2, 1)), cfg, M0)
    assert not warns
    assert M.values[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(traces[0], traces[0][0])


def test_modes_grid_search_kde_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 1))
    s = rng.uniform(0.3, 1.0, size=5)
    sigma2 = 2.0
    cfg = ModeSolverConfig(sigma2=sigma2, tol=1e-8, max_iters=200)
    m0 = ((s @ X) / s.sum()).reshape(1, 1)
    M, _, warns = update_modes(X, s[:, None], cfg, Prototypes(values=m0, rule="modes"))
    assert not warns
    grid = np.arange(X.min() - 1.0, X.max() + 1.0, 1e-4)
    q = (s[:, None] * np.exp(-((X - grid[None, :]) ** 2) / (2 * sigma2))).sum(axis=0)
    assert abs(M.values[0, 0] - grid[np.argmax(q)]) < 1e-3


def test_modes_u_trace_strictly_increasing():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        X = rng.standard_normal((n, 2))
        s = rng.uniform(0.1, 1.0, size=n)
        cfg = ModeSolverConfig(sigma2=1.5)
        m0 = rng.standard_normal((1, 2))
        _, traces, _ = update_modes(X, s[:, None], cfg, Prototypes(values=m0, rule="modes"))
        u = traces[0]
        assert np.all(np.diff(u) > -1e-12)
        assert u.max() <= s.sum() + 1e-12


def test_modes_residual_at_convergence():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2))
    s = rng.uniform(0.2, 1.0, size=10)
    cfg = ModeSolverConfig(sigma2=2.0, tol=1e-8, max_iters=300)
    m0 = X.mean(axis=0, keepdims=True)
    M, _, warns = update_modes(X, s[:, None], cfg, Prototypes(values=m0, rule="modes"))
    assert not warns
    m = M.values[0]
    residual = np.linalg.norm(m - meanshift_step(X, s, m, cfg.sigma2))
    assert residual <= cfg.tol * (1.0 + np.linalg.norm(m))


def modes_oracle(X, S, cfg, M_init):
    """Reference mean-shift: one cluster at a time, direct differences x_p - m."""
    modes = np.array(M_init.values, copy=True)
    u_traces, warnings = [], []
    for k in range(modes.shape[0]):
        s_col = S[:, k]
        m = modes[k]
        trace = []
        if s_col.sum() <= 0.0:
            warnings.append(f"cluster {k}: zero assignment mass, mode kept")
            u_traces.append(np.array(trace))
            continue
        converged = False
        for _ in range(cfg.max_iters):
            sqd = np.sum((X - m) ** 2, axis=1)
            w = s_col * np.exp(np.maximum(-sqd / (2.0 * cfg.sigma2), -700.0))
            total = w.sum()
            trace.append(total)
            new = (w @ X) / total
            step = np.linalg.norm(new - m)
            m = new
            if step < cfg.tol:
                converged = True
                break
        if not converged:
            warnings.append(f"cluster {k}: mode solver hit max_iters={cfg.max_iters}")
        modes[k] = m
        u_traces.append(np.array(trace))
    return modes, u_traces, warnings


def test_modes_match_per_cluster_oracle():
    rng = np.random.default_rng(8)
    centers = np.array([[5.0, 5.0], [9.0, 5.0], [5.0, 9.0], [9.0, 9.0]])
    X = np.vstack([c + 0.05 * rng.standard_normal((6, 2)) for c in centers]
                  + [5.0 + 4.0 * rng.uniform(size=(6, 2))])
    S = np.zeros((X.shape[0], 5))
    # 0: a single point, 3: a tight blob, 4: a weighted blob, which converge;
    # 1: every point from a far start, hits max_iters; 2: zero mass
    S[12, 0] = 1.0
    S[:, 1] = 1.0
    S[0:6, 3] = 1.0
    S[6:12, 4] = rng.uniform(0.5, 1.0, 6)
    M0 = Prototypes(values=np.array([[1.0, 1.0], [20.0, -10.0], [0.0, 0.0], [5.3, 4.8],
                                     [8.5, 5.5]]), rule="modes")
    cfg = ModeSolverConfig(sigma2=0.5, tol=1e-4, max_iters=3)
    M, traces, warns = update_modes(X, S, cfg, M0)
    modes, ref_traces, ref_warns = modes_oracle(X, S, cfg, M0)
    assert warns == ref_warns
    assert warns == ["cluster 1: mode solver hit max_iters=3",
                     "cluster 2: zero assignment mass, mode kept"]
    np.testing.assert_allclose(M.values, modes, rtol=1e-12, atol=0.0)
    assert M.values[2].tolist() == [0.0, 0.0]
    assert [len(t) for t in traces] == [len(t) for t in ref_traces] == [2, 3, 0, 3, 3]
    for got, ref in zip(traces, ref_traces):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_modes_zero_mass_cluster_flagged():
    X = np.array([[0.0], [1.0]])
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    cfg = ModeSolverConfig(sigma2=1.0)
    M0 = Prototypes(values=np.array([[0.0], [5.0]]), rule="modes")
    M, _, warns = update_modes(X, S, cfg, M0)
    assert any("zero assignment mass" in w for w in warns)
    assert M.values[1, 0] == 5.0


def test_scores_at_prototype_means():
    M = Prototypes(values=np.array([[1.0, 2.0], [5.0, 5.0]]), rule="means")
    a = prototype_scores(np.array([[1.0, 2.0]]), M)
    assert a[0, 0] == 0.0
    assert a[0, 0] == a[0].max()


def test_scores_at_prototype_modes():
    M = Prototypes(values=np.array([[1.0, 2.0], [5.0, 5.0]]), rule="modes")
    a = prototype_scores(np.array([[1.0, 2.0]]), M, sigma2=1.0)
    assert a[0, 0] == pytest.approx(1.0)
    assert a[0, 0] == a[0].max()


def test_scores_precise_far_from_origin():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((200, 8)) + 1e6
    M = Prototypes(values=rng.standard_normal((5, 8)) + 1e6, rule="means")
    diff = X[:, None, :] - M.values[None, :, :]
    direct = np.einsum("nkd,nkd->nk", diff, diff)
    a = prototype_scores(X, M)
    np.testing.assert_allclose(-a, direct, rtol=1e-9, atol=0.0)
    np.testing.assert_array_equal(np.argmax(a, axis=1), np.argmin(direct, axis=1))


def test_scores_modes_requires_sigma2():
    M = Prototypes(values=np.zeros((2, 2)), rule="modes")
    with pytest.raises(DataError):
        prototype_scores(np.ones((3, 2)), M)


def test_softmax_argmax_matches_nearest_prototype():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 3))
    M = Prototypes(values=rng.standard_normal((4, 3)), rule="means")
    S = s_inner_update(prototype_scores(X, M))
    d = np.einsum("nkd,nkd->nk", X[:, None] - M.values[None], X[:, None] - M.values[None])
    np.testing.assert_array_equal(np.argmax(S, axis=1), np.argmin(d, axis=1))


def test_rbf_exponent_clamped():
    w = rbf_weights(np.array([[1e6]]), np.array([0.0]), sigma2=1.0)
    assert w[0] > 0.0
