"""Few-shot episodes: preprocessing, clamped inference, synthetic generator."""

from dataclasses import replace

import numpy as np
import pytest

from lapclust import (
    PreprocessConfig,
    SolverConfig,
    TaskSpec,
    bias_correct,
    cl2_normalize,
    fewshot_accuracy,
    generate_synthetic_episode,
    init_prototypes,
    run_episode,
    tune_lambda,
)
from lapclust.errors import ConfigError, DataError, NonFiniteValueError, ZeroVectorError


def test_cl2_unit_direction():
    base = np.array([2.0, -1.0, 0.5])
    X = np.vstack([base + [1.0, 0.0, 0.0]])
    got = cl2_normalize(X, base)
    np.testing.assert_allclose(got, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_cl2_rows_unit_norm():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 4))
    got = cl2_normalize(X, rng.standard_normal(4))
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-12)


def test_cl2_matches_naive_loop():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 4))
    mean = rng.standard_normal(4)
    got = cl2_normalize(X, mean)
    for p in range(10):
        c = X[p] - mean
        np.testing.assert_allclose(got[p], c / np.linalg.norm(c), rtol=1e-12)


def test_cl2_zero_vector_rejected():
    X = np.array([[1.0, 1.0], [3.0, 4.0]])
    with pytest.raises(ZeroVectorError) as exc:
        cl2_normalize(X, np.array([1.0, 1.0]))
    assert exc.value.row == 0


def test_bias_noop_when_means_equal():
    task = TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=(2, 3))
    X = np.array([[1.0], [3.0], [1.0], [3.0]])  # both means = 2
    np.testing.assert_array_equal(bias_correct(task, X), X)


def test_bias_single_pair_moves_query_to_support():
    task = TaskSpec(k_way=1, support=((0, 0),), queries=(1,))
    X = np.array([[0.0, 0.0], [5.0, -2.0]])
    got = bias_correct(task, X)
    np.testing.assert_allclose(got[1], [0.0, 0.0])
    np.testing.assert_array_equal(got[0], X[0])


def test_bias_aligns_means_and_is_idempotent():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 3))
    task = TaskSpec(k_way=2, support=((0, 0), (1, 1), (2, 0)), queries=tuple(range(3, 12)))
    once = bias_correct(task, X)
    queries = list(task.queries)
    support = list(task.support_indices)
    np.testing.assert_allclose(once[queries].mean(axis=0), once[support].mean(axis=0),
                               atol=1e-12)
    np.testing.assert_allclose(bias_correct(task, once), once, atol=1e-12)


def test_init_prototypes_one_shot_exact():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 4))
    task = TaskSpec(k_way=2, support=((3, 0), (1, 1)), queries=(0, 2))
    M = init_prototypes(task, X)
    np.testing.assert_array_equal(M.values[0], X[3])
    np.testing.assert_array_equal(M.values[1], X[1])


def test_init_prototypes_identical_supports():
    v = np.array([1.0, 2.0])
    X = np.vstack([v] * 5 + [[0.0, 0.0]])
    task = TaskSpec(k_way=1, support=tuple((i, 0) for i in range(5)), queries=(5,))
    M = init_prototypes(task, X)
    np.testing.assert_allclose(M.values[0], v, rtol=1e-15)


def test_init_prototypes_multi_shot_mean():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((12, 3))
    support = tuple((i, i % 2) for i in range(10))
    task = TaskSpec(k_way=2, support=support, queries=(10, 11))
    M = init_prototypes(task, X)
    for k in range(2):
        idx = [p for p, c in support if c == k]
        np.testing.assert_allclose(M.values[k], X[idx].mean(axis=0), rtol=1e-12)


def test_run_episode_zero_queries():
    X = np.array([[0.0], [1.0]])
    task = TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=())
    result = run_episode(task, X, PreprocessConfig(), SolverConfig(lam=0.0, rule="means"))
    assert result.query_labels.size == 0
    assert result.accuracy is None


def test_run_episode_queries_at_supports():
    X = np.array([[0.0, 0.0], [8.0, 8.0], [0.0, 0.0], [8.0, 8.0]])
    task = TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=(2, 3))
    result = run_episode(task, X, PreprocessConfig(), SolverConfig(lam=0.0, rule="means"),
                         rho=1, truth=[0, 1])
    assert result.accuracy == 1.0
    np.testing.assert_array_equal(result.query_labels, [0, 1])


def test_run_episode_deterministic():
    X, task, truth = generate_synthetic_episode(3, 2, 5, 6, 5.0, seed=9)
    cfg = SolverConfig(lam=0.5, rule="means")
    r1 = run_episode(task, X, PreprocessConfig(apply_bias=True), cfg, truth=truth)
    r2 = run_episode(task, X, PreprocessConfig(apply_bias=True), cfg, truth=truth)
    assert r1.query_labels.tobytes() == r2.query_labels.tobytes()
    assert r1.solve_report.relaxed_trace == r2.solve_report.relaxed_trace


def test_run_episode_modes_autoestimates_sigma2():
    X, task, truth = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=10)
    result = run_episode(task, X, PreprocessConfig(), SolverConfig(lam=0.3, rule="modes"),
                         truth=truth)
    assert result.accuracy is not None and result.accuracy > 0.5


def test_generator_seed_determinism():
    X1, t1, y1 = generate_synthetic_episode(4, 2, 6, 8, 5.0, seed=42)
    X2, t2, y2 = generate_synthetic_episode(4, 2, 6, 8, 5.0, seed=42)
    assert X1.tobytes() == X2.tobytes()
    assert t1 == t2
    np.testing.assert_array_equal(y1, y2)


def test_generator_zero_separation_is_chance_level():
    accs = []
    cfg = SolverConfig(lam=0.0, rule="means")
    for seed in range(30):
        X, task, truth = generate_synthetic_episode(5, 1, 10, 8, 0.0, seed=seed)
        accs.append(run_episode(task, X, PreprocessConfig(), cfg, truth=truth).accuracy)
    assert 0.1 < float(np.mean(accs)) < 0.33  # ~1/k_way


def test_generator_extreme_separation_perfect():
    cfg = SolverConfig(lam=0.0, rule="means")
    for seed in range(5):
        X, task, truth = generate_synthetic_episode(4, 1, 8, 6, 50.0, seed=seed)
        assert run_episode(task, X, PreprocessConfig(), cfg, truth=truth).accuracy == 1.0


def test_generator_rejects_bad_counts():
    with pytest.raises(DataError):
        generate_synthetic_episode(0, 1, 1, 2, 1.0, seed=0)
    with pytest.raises(DataError):
        generate_synthetic_episode(2, 1, 1, 2, -1.0, seed=0)


def test_tune_lambda_single_candidate():
    X, task, truth = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=0)
    cfg = SolverConfig(lam=0.5, rule="means")
    assert tune_lambda([0.7], [(X, task, truth)], cfg) == 0.7


def test_tune_lambda_rejects_degenerate_candidate():
    episodes = [generate_synthetic_episode(4, 1, 8, 6, 6.0, seed=s) for s in range(5)]
    cfg = SolverConfig(lam=0.5, rule="means")
    # an absurdly large weight collapses queries onto one label; 0 stays sane
    assert tune_lambda([0.0, 1e4], episodes, cfg) == 0.0


def test_support_rows_stay_clamped_through_episode():
    X, task, truth = generate_synthetic_episode(3, 2, 5, 6, 4.0, seed=11)
    cfg = SolverConfig(lam=1.0, rule="means")
    result = run_episode(task, X, PreprocessConfig(), cfg, truth=truth)
    # query labels are within range and supports anchored each class
    assert set(result.query_labels) <= {0, 1, 2}


def test_modes_episode_searches_once(neighbor_searches):
    X, task, truth = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=0)
    cfg = SolverConfig(lam=1.0, rule="modes")
    result = run_episode(task, X, PreprocessConfig(), cfg, rho=3, truth=truth)
    assert result.accuracy is not None
    assert neighbor_searches == [3]


@pytest.mark.parametrize("rule", ["means", "modes"])
def test_episode_centers_features_once(centered_builds, rule):
    X, task, truth = generate_synthetic_episode(3, 2, 5, 6, 6.0, seed=0)
    run_episode(task, X, PreprocessConfig(), SolverConfig(lam=1.0, rule=rule), truth=truth)
    assert centered_builds == [(21, 6)]


def tune_lambda_oracle(candidates, episodes, cfg, pre):
    """The per-candidate loop: every episode is run from scratch for every lambda."""
    best_lam, best_acc = None, -1.0
    for lam in sorted(candidates):
        accs = [run_episode(task, X, pre, replace(cfg, lam=lam), truth=truth).accuracy
                for X, task, truth in episodes]
        mean, _ = fewshot_accuracy(accs)
        if mean > best_acc:
            best_lam, best_acc = lam, mean
    return best_lam


# separation 3.0 has one best candidate; at 2.0 all six tie; at 1.5 the means
# of 0.0 and 2.0 differ only in their last bit, so the sums must keep their order
@pytest.mark.parametrize("separation, expected", [(3.0, 0.5), (2.0, 0.0), (1.5, 2.0)])
def test_tune_lambda_prepares_each_episode_once(neighbor_searches, separation, expected):
    episodes = [generate_synthetic_episode(4, 1, 6, 8, separation, seed=s) for s in range(3)]
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    cfg = SolverConfig(lam=1.0, rule="modes")
    grid = [8.0, 0.5, 0.0, 2.0, 0.1, 1.0]
    assert tune_lambda(grid, episodes, cfg, pre) == expected
    assert neighbor_searches == [3, 3, 3]
    assert tune_lambda_oracle(grid, episodes, cfg, pre) == expected


def embedded_episode(n_rows=2000, seed=0):
    """A 3-way 2-shot episode scattered over the rows of a larger feature matrix.

    Returns (big matrix, task on its rows, truth, compact matrix, compact task).
    """
    X, task, truth = generate_synthetic_episode(3, 2, 5, 6, 6.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    big = rng.standard_normal((n_rows, X.shape[1]))
    rows = rng.choice(n_rows, size=X.shape[0], replace=False)
    big[rows] = X
    big_task = TaskSpec(k_way=task.k_way,
                        support=tuple((int(rows[p]), c) for p, c in task.support),
                        queries=tuple(int(rows[q]) for q in task.queries))
    return big, big_task, truth, X, task


@pytest.mark.parametrize("rule", ["means", "modes"])
def test_episode_validates_its_rows_once(feature_validations, rule):
    big, task, truth, _, _ = embedded_episode()
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    run_episode(task, big, pre, SolverConfig(lam=1.0, rule=rule), truth=truth)
    assert feature_validations == [(21, 6)]


def test_tune_lambda_validates_each_episode_once(feature_validations):
    episodes = [embedded_episode(200, seed=s)[:3] for s in range(3)]
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    tune_lambda([0.0, 0.5, 1.0], episodes, SolverConfig(lam=1.0, rule="modes"), pre)
    assert feature_validations == [(21, 6)] * 3


def test_episode_ignores_nan_outside_its_rows():
    big, task, truth, X, small_task = embedded_episode()
    used = set(task.support_indices) | set(task.queries)
    unused = next(r for r in range(big.shape[0]) if r not in used)
    big[unused, 3] = np.nan
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    cfg = SolverConfig(lam=1.0, rule="modes")
    got = run_episode(task, big, pre, cfg, truth=truth)
    want = run_episode(small_task, X, pre, cfg, truth=truth)
    np.testing.assert_array_equal(got.query_labels, want.query_labels)
    assert got.accuracy == want.accuracy


@pytest.mark.parametrize("which", ["support", "query"])
def test_episode_nan_names_its_row_in_the_full_matrix(which):
    big, task, truth, _, _ = embedded_episode()
    row = task.support_indices[1] if which == "support" else task.queries[4]
    big[row, 2] = np.inf
    with pytest.raises(NonFiniteValueError) as exc:
        run_episode(task, big, PreprocessConfig(), SolverConfig(lam=1.0), truth=truth)
    assert (exc.value.row, exc.value.col) == (row, 2)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_sym_none_is_rejected(lam):
    X, task, truth = generate_synthetic_episode(3, 2, 4, dim=4, separation=5.0, seed=9)
    pre = PreprocessConfig()
    cfg = SolverConfig(lam=lam, rule="means")
    with pytest.raises(DataError, match="unknown symmetrization mode: 'none'"):
        run_episode(task, X, pre, cfg, sym="none", truth=truth)
    with pytest.raises(DataError, match="unknown symmetrization mode: 'none'"):
        tune_lambda([lam], [(X, task, truth)], cfg, pre, sym="none")


@pytest.mark.parametrize("kwargs, match", [
    (dict(sym="bogus"), "unknown symmetrization mode: 'bogus'"),
    (dict(rho=99, sym="bogus"), "unknown symmetrization mode: 'bogus'"),
    (dict(rho=0), "rho must be >= 1, got 0"),
])
def test_query_less_task_checks_sym_and_rho(kwargs, match):
    # such a task builds no graph, but its arguments are checked as any task's
    X = np.array([[0.0], [1.0]])
    task = TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=())
    cfg = SolverConfig(lam=1.0)
    with pytest.raises(DataError, match=match):
        run_episode(task, X, PreprocessConfig(), cfg, **kwargs)
    with pytest.raises(DataError, match=match):
        tune_lambda([0.0, 1.0], [(X, task, [])], cfg, **kwargs)
    # only a search bounds rho above, and a task without queries has none
    assert run_episode(task, X, PreprocessConfig(), cfg, rho=99).query_labels.size == 0


def test_base_mean_without_cl2_is_a_config_error():
    # only the CL2 step reads the base mean; without it the mean would be ignored
    for apply_bias in (False, True):
        with pytest.raises(ConfigError, match="set apply_cl2"):
            PreprocessConfig(base_mean=np.zeros(4), apply_bias=apply_bias)
    X, task, truth = generate_synthetic_episode(3, 2, 4, dim=4, separation=5.0, seed=9)
    pre = PreprocessConfig(base_mean=np.full(4, 0.5), apply_cl2=True)
    assert run_episode(task, X, pre, SolverConfig(lam=1.0), truth=truth).accuracy is not None
