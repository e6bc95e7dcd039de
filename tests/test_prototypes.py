"""Prototype updates: weighted means, mean-shift mode seeking, score matrices."""

import os
import subprocess
import sys

import numpy as np
import pytest

import lapclust
from lapclust import (
    ModeSolverConfig,
    estimate_sigma2,
    kmeans_pp_seeds,
    knn_graph,
    Prototypes,
    meanshift_step,
    prototype_scores,
    update_means,
    update_modes,
)
from lapclust.errors import DataError, EmptyClusterError
from lapclust.optimizer import s_inner_update
from lapclust.prototypes import CenteredFeatures, GramPoints


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


@pytest.mark.parametrize("points", ["features", "gram"])
def test_updates_reject_an_assignment_with_another_row_count(points):
    # 300 rows for 256 points: the blocked sums read only the first 256 rows,
    # while the mass counts all 300. One row for 40 points would broadcast.
    rng = np.random.default_rng(61)
    X = rng.standard_normal((256, 3))
    P = X if points == "features" else GramPoints(CenteredFeatures(X))
    S = rng.dirichlet(np.ones(2), size=300)
    with pytest.raises(DataError, match=r"^assignment rows \(300\) != points \(256\)$"):
        update_means(P, S)
    X = rng.standard_normal((40, 3))
    P = X if points == "features" else GramPoints(CenteredFeatures(X))
    M = Prototypes(values=X[:2] if points == "features" else np.eye(40)[:2], rule="modes")
    with pytest.raises(DataError, match=r"^assignment rows \(1\) != points \(40\)$"):
        update_modes(P, np.full((1, 2), 0.5), ModeSolverConfig(sigma2=1.0), M)


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


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_mode_solver_config_rejects_non_finite_tol(tol):
    # no step is below a NaN tolerance, so every cluster would run to max_iters;
    # every step is below an infinite one, so each would stop after one step
    with pytest.raises(DataError, match="tol must be finite"):
        ModeSolverConfig(sigma2=1.0, tol=tol)


@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
def test_mode_solver_config_rejects_a_bad_kernel_width(sigma2):
    with pytest.raises(DataError, match=r"^sigma2 must be finite and > 0$"):
        ModeSolverConfig(sigma2=sigma2)


@pytest.mark.parametrize("values, rule, match", [
    (np.ones(3), "means", r"^prototype matrix must be 2-D with k >= 1, got \(3,\)$"),
    (np.ones((0, 3)), "means", r"^prototype matrix must be 2-D with k >= 1, got \(0, 3\)$"),
    ([[0.0, np.nan]], "modes", r"^prototypes must be finite$"),
    (np.ones((2, 3)), "median", r"^unknown prototype rule: 'median'$"),
])
def test_prototypes_reject_bad_values(values, rule, match):
    with pytest.raises(DataError, match=match):
        Prototypes(values=values, rule=rule)


def test_meanshift_step_without_mass_raises():
    X = np.array([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(EmptyClusterError):
        meanshift_step(X, [0.0, 0.0], np.zeros(2), sigma2=1.0)


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


def test_scores_follow_the_prototypes_rule():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    values = np.array([[0.0, 0.0], [0.0, 4.0]])
    sqd = np.array([[0.0, 16.0], [25.0, 9.0]])
    np.testing.assert_array_equal(prototype_scores(X, Prototypes(values, "means")), -sqd)
    np.testing.assert_allclose(prototype_scores(X, Prototypes(values, "modes"), 2.0),
                               np.exp(-sqd / 4.0), rtol=1e-15)
    with pytest.raises(TypeError, match="rule"):
        prototype_scores(X, Prototypes(values, "means"), rule="modes")


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
    M = Prototypes(values=[[0.0]], rule="modes")
    w = prototype_scores(np.array([[1e6]]), M, 1.0)
    assert w[0, 0] > 0.0


def test_centered_features_accepted_in_place_of_x():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((30, 4)) + 1e3
    P = CenteredFeatures(X)
    S = rng.dirichlet(np.ones(3), size=30)
    M_x, empty_x = update_means(X, S)
    M_p, empty_p = update_means(P, S)
    np.testing.assert_array_equal(M_x.values, M_p.values)
    np.testing.assert_array_equal(empty_x, empty_p)
    G_x, G_p = knn_graph(X, 3), knn_graph(P, 3)
    assert (G_x.matrix != G_p.matrix).nnz == 0
    np.testing.assert_array_equal(G_x.knn_sqdist, G_p.knn_sqdist)
    assert estimate_sigma2(X, 3) == estimate_sigma2(P, 3)
    np.testing.assert_array_equal(kmeans_pp_seeds(X, 3, np.random.default_rng(5)),
                                  kmeans_pp_seeds(P, 3, np.random.default_rng(5)))


def gram_case(n=60, d=96, k=4, seed=41):
    """(X, its CenteredFeatures, its GramPoints, k coefficient rows summing to
    1, n x k soft rows), with X off the origin so the centering matters."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k, d))[rng.integers(k, size=n)] + rng.standard_normal((n, d)) + 5.0
    P = CenteredFeatures(X)
    alpha = rng.dirichlet(np.ones(n), size=k)
    return X, P, GramPoints(P), alpha, rng.dirichlet(np.ones(k), size=n)


def test_gram_points_operations_match_the_features():
    # a coefficient row alpha stands for the feature-space point alpha X
    X, P, G, alpha, rows = gram_case()
    assert G.n_points == P.n_points == X.shape[0]
    np.testing.assert_allclose(G.sqdist(alpha), P.sqdist(alpha @ X), rtol=1e-12)
    mass = rows.sum(axis=0)[:, None]
    np.testing.assert_allclose((G.weighted_sums(rows) / mass) @ X, P.weighted_sums(rows) / mass,
                               rtol=1e-12)
    beta = np.roll(alpha, 1, axis=0)
    np.testing.assert_allclose(G.step_lengths(alpha - beta), P.step_lengths((alpha - beta) @ X),
                               rtol=1e-12)
    assert G.step_lengths(alpha - alpha).tolist() == [0.0] * alpha.shape[0]


def test_gram_points_updates_are_the_feature_updates():
    # update_means, update_modes and the scores take either point set; on
    # GramPoints their prototypes are coefficient rows over the points
    X, P, G, alpha, rows = gram_case()
    M_g, empty_g = update_means(G, rows)
    M_p, empty_p = update_means(P, rows)
    assert M_g.values.shape == (4, X.shape[0]) and not empty_g.any() and not empty_p.any()
    np.testing.assert_allclose(M_g.values @ X, M_p.values, rtol=1e-12)
    cfg = ModeSolverConfig(sigma2=float(X.shape[1]), max_iters=5)
    modes_g, u_g, _ = update_modes(G, rows, cfg, Prototypes(alpha, "modes"))
    modes_p, u_p, _ = update_modes(P, rows, cfg, Prototypes(alpha @ X, "modes"))
    np.testing.assert_allclose(modes_g.values @ X, modes_p.values, rtol=1e-12)
    for trace_g, trace_p in zip(u_g, u_p):
        np.testing.assert_allclose(trace_g, trace_p, rtol=1e-12)
    np.testing.assert_allclose(prototype_scores(G, modes_g, cfg.sigma2),
                               prototype_scores(P, modes_p, cfg.sigma2), rtol=1e-12)


# Run in a fresh process whose BLAS uses the thread count of its environment:
# update_means and three mean-shift steps on random soft rows, printing a
# SHA-256 of each output's bytes.
_SUMS_SCRIPT = """
import hashlib, sys
import numpy as np
from lapclust.prototypes import (CenteredFeatures, ModeSolverConfig, Prototypes,
                                 _mean_shift, update_means)
n, d, k = map(int, sys.argv[1:])
rng = np.random.default_rng(n + d + k)
X = rng.standard_normal((k, d))[rng.integers(k, size=n)] + rng.standard_normal((n, d))
g = rng.gamma(1.0, size=(n, k))
rows = g / g.sum(axis=1, keepdims=True)
means = update_means(X, rows)[0].values
cfg = ModeSolverConfig(sigma2=float(d), max_iters=3)
modes = _mean_shift(CenteredFeatures(X), rows, cfg, Prototypes(means, "modes"))[0].values
print(hashlib.sha256(means.tobytes()).hexdigest(), hashlib.sha256(modes.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("n,d,k", [(2000, 64, 8), (10_000, 128, 10)])
def test_prototype_sums_are_thread_count_deterministic(n, d, k):
    # one GEMM over all rows sums them differently under 1 and 2 BLAS threads
    # at these shapes; the fixed row blocks of _weighted_sums must not
    src_dir = os.path.dirname(os.path.dirname(lapclust.__file__))
    digests = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _SUMS_SCRIPT, str(n), str(d), str(k)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]
