"""Few-shot episodes: preprocessing, clamped inference, synthetic generator."""

from dataclasses import replace

import numpy as np
import pytest

from lapclust import (
    PreprocessConfig,
    SolverConfig,
    SparseAffinity,
    TaskSpec,
    bias_correct,
    cl2_normalize,
    fewshot_accuracy,
    generate_synthetic_episode,
    init_prototypes,
    knn_graph,
    run_episode,
    solve,
    symmetrize,
    tune_lambda,
)
from lapclust import affinity, fewshot, optimizer, prototypes
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


def test_public_preprocessing_leaves_its_argument_unchanged():
    X, task, _ = generate_synthetic_episode(3, 2, 4, 5, 3.0, seed=6)
    before = X.copy()
    cl2_normalize(X, X.mean(axis=0))
    bias_correct(task, X)
    assert X.tobytes() == before.tobytes()


@pytest.mark.parametrize("base_mean", [None, "given"])
def test_episode_features_are_the_public_preprocessing(base_mean):
    # the episode preprocesses its own copy in place: the same values, bitwise,
    # as cl2_normalize then bias_correct on the episode's rows
    big, task, _, _, compact_task = embedded_episode(n_rows=300, seed=2)
    mean = None if base_mean is None else np.random.default_rng(3).standard_normal(6)
    pre = PreprocessConfig(base_mean=mean, apply_cl2=True, apply_bias=True)
    before = big.copy()
    (P, _, _, _), _ = fewshot._prepare_episode(task, big, pre, SolverConfig(), 3, "max")
    assert big.tobytes() == before.tobytes()
    rows = big[[*task.support_indices, *task.queries]]
    want = bias_correct(compact_task, cl2_normalize(rows, rows.mean(axis=0) if mean is None
                                                     else mean))
    assert P.X.tobytes() == want.tobytes()


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


def test_init_prototypes_are_the_per_class_means_bitwise():
    # the means update of the supports' one-hot rows adds each class's rows in
    # support order, as np.mean does, while a class has at most
    # prototypes._SUM_BLOCK of them; far from the origin too
    rng = np.random.default_rng(26)
    for _ in range(40):
        k, shots, dim = int(rng.integers(2, 11)), int(rng.integers(1, 21)), int(rng.integers(3, 700))
        n_s = k * shots
        X = rng.standard_normal((n_s + 5, dim)) + rng.choice([0.0, 1e3]) * rng.standard_normal(dim)
        classes = rng.permutation(np.repeat(np.arange(k), shots))
        order = rng.permutation(n_s + 5)
        task = TaskSpec(k_way=k, support=tuple(zip(order[:n_s].tolist(), classes.tolist())),
                        queries=tuple(order[n_s:].tolist()))
        rows = X[order[:n_s]]
        want = np.stack([rows[classes == c].mean(axis=0) for c in range(k)])
        assert init_prototypes(task, X).values.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("missing", ["truth", "queries"])
def test_tune_lambda_rejects_episode_without_accuracy(neighbor_searches, missing):
    # one such episode would turn every candidate's mean accuracy into NaN
    good = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=0)
    X, task, truth = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=1)
    if missing == "truth":
        bad = (X, task, None)
    else:
        bad = (X, TaskSpec(k_way=3, support=task.support, queries=()), [])
    with pytest.raises(DataError, match="^validation episode 1 has no accuracy"):
        tune_lambda([0.0, 1.0], [good, bad], SolverConfig(lam=1.0))
    assert neighbor_searches == []


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


def _small_episode():
    return generate_synthetic_episode(3, 1, 4, dim=4, separation=5.0, seed=9)


@pytest.mark.parametrize("call, match", [
    (lambda X, task, truth: cl2_normalize(X, np.zeros(5)),
     r"^base mean has shape \(5,\), expected \(4,\)$"),
    (lambda X, task, truth: run_episode(
        task, X, PreprocessConfig(base_mean=np.zeros(3), apply_cl2=True), SolverConfig()),
     r"^base mean has shape \(3,\), expected \(4,\)$"),
    (lambda X, task, truth: run_episode(task, X[:, 0], PreprocessConfig(), SolverConfig()),
     r"^feature matrix must be 2-D and non-empty, got shape \(15,\)$"),
    (lambda X, task, truth: tune_lambda([], [(X, task, truth)], SolverConfig()),
     r"^need at least one candidate and one episode$"),
    (lambda X, task, truth: tune_lambda([0.5], [], SolverConfig()),
     r"^need at least one candidate and one episode$"),
])
def test_episode_inputs_of_the_wrong_shape_rejected(call, match):
    with pytest.raises(DataError, match=match):
        call(*_small_episode())


def test_base_mean_without_cl2_is_a_config_error():
    # only the CL2 step reads the base mean; without it the mean would be ignored
    for apply_bias in (False, True):
        with pytest.raises(ConfigError, match="set apply_cl2"):
            PreprocessConfig(base_mean=np.zeros(4), apply_bias=apply_bias)
    X, task, truth = generate_synthetic_episode(3, 2, 4, dim=4, separation=5.0, seed=9)
    pre = PreprocessConfig(base_mean=np.full(4, 0.5), apply_cl2=True)
    assert run_episode(task, X, pre, SolverConfig(lam=1.0), truth=truth).accuracy is not None


@pytest.fixture
def graph_calls(monkeypatch):
    """The rho of every graph an episode builds while the test runs."""
    calls = []
    real = fewshot.knn_graph

    def counting(X, rho):
        calls.append(rho)
        return real(X, rho)

    monkeypatch.setattr(fewshot, "knn_graph", counting)
    return calls


def test_truth_length_is_checked_before_any_search(graph_calls):
    X, task, truth = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=0)
    cfg = SolverConfig(lam=1.0)
    with pytest.raises(DataError, match="^truth length does not match query count$"):
        run_episode(task, X, PreprocessConfig(), cfg, truth=truth[:-1])
    assert graph_calls == []
    good = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=1)
    with pytest.raises(DataError, match="^truth length does not match query count$"):
        tune_lambda([0.0, 0.5, 1.0], [good, (X, task, truth[:-1])], cfg)
    assert graph_calls == []
    run_episode(task, X, PreprocessConfig(), cfg, rho=3, truth=truth)
    assert graph_calls == [3]  # the spy sees an episode's one graph


@pytest.mark.parametrize("rule", ["means", "modes"])
def test_episode_skips_the_hard_refit(monkeypatch, rule):
    X, task, truth = generate_synthetic_episode(3, 2, 5, 6, 6.0, seed=4)
    pre = PreprocessConfig(apply_bias=True)
    cfg = SolverConfig(lam=1.0, rule=rule)
    refits = []
    real = optimizer._refit_hard
    monkeypatch.setattr(optimizer, "_refit_hard",
                        lambda *args: refits.append(None) or real(*args))
    result = run_episode(task, X, pre, cfg, truth=truth)
    assert np.isnan(result.solve_report.discrete_objective) and refits == []
    (P, W, M0, clamp_class), cfg = fewshot._prepare_episode(task, X, pre, cfg, 3, "max")
    S, _, report = solve(P, W, M0, cfg, clamp_class=clamp_class)
    assert np.isfinite(report.discrete_objective) and len(refits) == 1
    # the loop is the same: only E and the rounding it needs are left out
    assert report.relaxed_trace == result.solve_report.relaxed_trace
    np.testing.assert_array_equal(S.hard_labels()[~S.clamped], result.query_labels)


def test_modes_episode_computes_each_kernel_matrix_once(monkeypatch):
    # one distance GEMM for the first scores, then one per mean-shift step: the
    # kernel at a step's new modes is the next step's weights and, after a
    # block's last step, the scores the next assignment block starts from
    X, task, truth = generate_synthetic_episode(5, 5, 15, 64, 6.0, seed=8)
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    sqdists, steps, blocks, modes = [], [], [], []
    sqdist, mean_shift, s_block = (prototypes.CenteredFeatures.sqdist, optimizer._mean_shift,
                                   optimizer._s_block)

    def counting_sqdist(self, V):
        sqdists.append(V.shape)
        return sqdist(self, V)

    def recording_mean_shift(P, rows, cfg, M_init, kernel=None):
        out = mean_shift(P, rows, cfg, M_init, kernel)
        steps.append(out[2])
        modes.append((P, out[0]))
        return out

    def recording_s_block(W, a, rows, setup, cfg, b=None):
        blocks.append((a, cfg.sigma2))
        return s_block(W, a, rows, setup, cfg, b)

    monkeypatch.setattr(prototypes.CenteredFeatures, "sqdist", counting_sqdist)
    monkeypatch.setattr(optimizer, "_mean_shift", recording_mean_shift)
    monkeypatch.setattr(optimizer, "_s_block", recording_s_block)
    result = run_episode(task, X, pre, SolverConfig(lam=1.0, rule="modes"), truth=truth)
    monkeypatch.undo()

    outer = result.solve_report.outer_iters
    assert len(steps) == len(blocks) == outer > 1
    assert len(sqdists) == 1 + sum(steps) <= 1 + optimizer._MODE_STEPS * outer
    assert all(shape == (5, 64) for shape in sqdists)  # every kernel is full-width
    (P0, _, M0, _), cfg = fewshot._prepare_episode(
        task, X, pre, SolverConfig(lam=1.0, rule="modes"), 3, "max")
    assert blocks[0][0].tobytes() == prototypes.prototype_scores(P0, M0, cfg.sigma2).tobytes()
    # block i + 1 starts from the kernel that mean-shift i carried out, which
    # is the scores of its modes, bitwise
    for (a, sigma2), (P, M) in zip(blocks[1:], modes):
        assert a.tobytes() == prototypes.prototype_scores(P, M, sigma2).tobytes()


def test_episodes_build_no_task_spec(monkeypatch):
    # a task is read once, into arrays; neither entry point builds another
    episodes = [generate_synthetic_episode(3, shots, 4, 6, 5.0, seed=shots) for shots in (1, 2)]
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    cfg = SolverConfig(lam=1.0, rule="modes")
    built = []
    real = TaskSpec.__post_init__
    monkeypatch.setattr(TaskSpec, "__post_init__", lambda self: built.append(self) or real(self))
    for X, task, truth in episodes:
        run_episode(task, X, pre, cfg, truth=truth)
    tune_lambda([0.0, 0.5, 1.0], episodes, cfg, pre)
    assert built == []
    TaskSpec(k_way=1, support=((0, 0),), queries=())
    assert len(built) == 1  # the count sees a construction


@pytest.mark.parametrize("rule", ["means", "modes"])
def test_episode_prototypes_and_clamps_are_the_compact_tasks(rule):
    # supports out of class order and scattered over X; the compact task lists
    # the episode's rows as they are laid out, supports first
    X = np.random.default_rng(7).standard_normal((20, 16))
    task = TaskSpec(k_way=3, support=((9, 1), (2, 0), (15, 0), (13, 1), (0, 0), (5, 2), (17, 0),
                                      (7, 2), (11, 0), (19, 2)),
                    queries=(1, 3, 4, 6, 8, 10, 12, 14, 16, 18))
    compact = TaskSpec(k_way=3, support=tuple((i, c) for i, (_, c) in enumerate(task.support)),
                       queries=tuple(range(10, 20)))
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    (P, _, M0, clamp_class), _ = fewshot._prepare_episode(
        task, X, pre, SolverConfig(lam=1.0, rule=rule), 3, "max")
    want = init_prototypes(compact, P.X, rule)
    assert M0.rule == rule and M0.values.tobytes() == want.values.tobytes()
    assert clamp_class.dtype == np.int64
    assert clamp_class.tolist() == [c for _, c in compact.support] + [-1] * len(compact.queries)


@pytest.mark.parametrize("which, row", [("support", 17), ("query", 21)])
def test_episode_zero_norm_row_is_named_at_its_row_in_x(which, row):
    # CL2 centered on one of the episode's own rows leaves it at norm 0; the
    # error names that row of X, not its place in the episode
    X = np.random.default_rng(11).standard_normal((30, 4))
    task = TaskSpec(k_way=2, support=((17, 0), (3, 1)), queries=(5, 9, 21))
    pre = PreprocessConfig(base_mean=X[row], apply_cl2=True)
    with pytest.raises(ZeroVectorError, match=f"row {row} has zero norm") as exc:
        run_episode(task, X, pre, SolverConfig(lam=1.0))
    assert exc.value.row == row


def prepared(n_shot, dim, seed, rule, lam=1.0, n_query=15, sym="max"):
    """A 5-way synthetic episode prepared with CL2 and bias correction:
    (X, task, truth, (P, W, M0, clamp_class), cfg)."""
    X, task, truth = generate_synthetic_episode(5, n_shot, n_query, dim, 6.0, seed=seed)
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    episode, cfg = fewshot._prepare_episode(task, X, pre, SolverConfig(lam=lam, rule=rule),
                                            3, sym)
    return X, task, truth, episode, cfg


def compact_task(n_shot, n_query=15):
    """The task of a prepared 5-way episode over its own rows, supports first."""
    n_s = 5 * n_shot
    return TaskSpec(k_way=5, support=tuple((i, i // n_shot) for i in range(n_s)),
                    queries=tuple(range(n_s, n_s + 5 * n_query)))


@pytest.mark.parametrize("n_shot, dim, points", [
    (1, 64, prototypes.CenteredFeatures),  # N = 80 > d
    (1, 80, prototypes.GramPoints),  # N = d
    (5, 99, prototypes.CenteredFeatures),  # N = 100 > d
    (5, 640, prototypes.GramPoints),
])
def test_episode_takes_the_gram_path_when_it_has_no_more_points_than_columns(
        n_shot, dim, points):
    _, _, _, (P, _, M0, _), _ = prepared(n_shot, dim, 2, "modes")
    assert type(P) is points
    n = 5 * (n_shot + 15)
    if points is prototypes.GramPoints:
        assert P.gram.shape == (n, n) and M0.values.shape == (5, n)
        # M0 is the class means of the supports: 1/n_k on each class-k support
        np.testing.assert_allclose(M0.values @ P.features.X,
                                   init_prototypes(compact_task(n_shot), P.features.X).values,
                                   rtol=0, atol=1e-15)  # the rows are unit vectors
    else:
        assert not hasattr(P, "gram") and M0.values.shape == (5, dim)


@pytest.mark.parametrize("n_shot", [1, 5])
def test_gram_episode_starts_from_one_over_n_k_in_c_order(n_shot):
    # the means of the one-hot support rows on G are 1/n_k on each class-k
    # support; C order keeps the first product G M0^t on the BLAS kernel the
    # episode's traces were measured with
    _, _, _, (P, _, M0, clamp_class), _ = prepared(n_shot, 640, 3, "means")
    assert isinstance(P, prototypes.GramPoints)
    counts = np.bincount(clamp_class[clamp_class >= 0])
    want = (clamp_class == np.arange(5)[:, None]) / counts[:, None]
    assert M0.values.flags.c_contiguous and M0.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_shot, dim, n_query", [
    (1, 12, 15),  # N = 80 > d
    (5, 99, 15),  # N = 100 > d
    (5, 99, 16),  # N = 105 > d
])
def test_episode_graph_is_dense_by_its_size_alone(n_shot, dim, n_query):
    # off the Gram path too, an episode of at most affinity._DENSE_MAX_N
    # points gets the dense adjacency, and a larger one the CSR graph; both
    # are the search's edges symmetrized as a CSR graph, bitwise
    _, _, _, (P, W, _, _), _ = prepared(n_shot, dim, 8, "means", n_query=n_query, sym="mean")
    assert (W.dense is not None) == (P.n_points <= affinity._DENSE_MAX_N)
    search = knn_graph(getattr(P, "features", P), 3)
    want = symmetrize(SparseAffinity(matrix=search.matrix), "mean")
    for part in ("data", "indices", "indptr"):
        assert getattr(W.matrix, part).tobytes() == getattr(want.matrix, part).tobytes()
    assert W.degrees.tobytes() == want.degrees.tobytes()
    assert W.knn_sqdist.tobytes() == search.knn_sqdist.tobytes()


@pytest.mark.parametrize("n_shot, n_query", [(1, 15), (5, 15), (5, 55)])
def test_gram_episode_graph_is_the_feature_search(n_shot, n_query):
    # the search reads its exact half distances from G, bitwise the product it
    # would make from the features; up to affinity._DENSE_MAX_N points the
    # graph is built dense from its indices, with the CSR graph's edges,
    # weights and degrees
    for sym in ("max", "mean"):
        _, _, _, (P, W, _, _), _ = prepared(n_shot, 640, 5, "modes", n_query=n_query, sym=sym)
        assert isinstance(P, prototypes.GramPoints)
        assert (W.dense is not None) == (P.n_points <= affinity._DENSE_MAX_N)
        search = knn_graph(P.features, 3)
        want = symmetrize(SparseAffinity(matrix=search.matrix), sym)
        for part in ("data", "indices", "indptr"):
            assert getattr(W.matrix, part).tobytes() == getattr(want.matrix, part).tobytes()
        assert W.degrees.tobytes() == want.degrees.tobytes()
        assert W.knn_sqdist.tobytes() == search.knn_sqdist.tobytes()
        assert W.symmetric and W.diag_shift == 0.0


@pytest.mark.parametrize("blocks", [1, 3])
def test_gram_search_reads_g_only_for_a_pass_over_every_point(monkeypatch, blocks):
    # G's rows can differ in the last bits from a product of fewer rows, so a
    # search pass in smaller blocks makes the features' products; every
    # distance is kept (rho = N - 1), so any such difference would show
    _, _, _, (P, _, _, _), _ = prepared(5, 640, 5, "modes")
    n = P.n_points
    monkeypatch.setattr(affinity, "_CHUNK_BUDGET", -(-n // blocks) * n)
    want = knn_graph(P.features, n - 1)
    got = knn_graph(P, n - 1)
    assert (got.matrix != want.matrix).nnz == 0
    assert got.knn_sqdist.tobytes() == want.knn_sqdist.tobytes()


@pytest.mark.parametrize("n_shot", [1, 5])
@pytest.mark.parametrize("dim", [128, 640])
@pytest.mark.parametrize("rule", ["means", "modes"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_gram_episode_labels_are_the_feature_paths(n_shot, dim, rule, lam):
    # the same solve on the episode's features, with feature-space prototypes,
    # through the public solve
    X, task, truth, (P, W, _, clamp_class), cfg = prepared(n_shot, dim, dim + n_shot, rule, lam)
    assert isinstance(P, prototypes.GramPoints)
    result = run_episode(task, X, PreprocessConfig(apply_cl2=True, apply_bias=True),
                         SolverConfig(lam=lam, rule=rule), rho=3, truth=truth)
    features = P.features
    S, M, report = solve(features, W, init_prototypes(compact_task(n_shot), features.X, rule),
                         cfg, clamp_class=clamp_class)
    np.testing.assert_array_equal(result.query_labels, S.hard_labels()[~S.clamped])
    got = result.solve_report
    assert got.inner_iters_per_outer == report.inner_iters_per_outer
    assert (got.redone_sweeps, got.mode_cap_hits) == (report.redone_sweeps, report.mode_cap_hits)
    np.testing.assert_allclose(got.relaxed_trace, report.relaxed_trace, rtol=1e-12)
    assert M.values.shape == (5, dim)  # a feature-space caller gets feature-space prototypes


def reference_loop(P, W, M0, cfg, clamp_class):
    """The solve loop block by block through the public updates, on the CSR
    graph: each block makes its own setup and votes, and every prototype is
    checked. Returns (relaxed trace, sweeps per block, redone sweeps, inner
    cap hits, mode cap hits)."""
    assert W.diag_shift == 0.0
    W = SparseAffinity(matrix=W.matrix)
    free = clamp_class < 0
    degrees = W.matrix.toarray().sum(axis=1)  # exact: 0, 1/2 and 1 weights
    rows = optimizer.s_inner_update(prototypes.prototype_scores(P, M0, cfg.sigma2))
    rows[~free] = np.eye(M0.k)[clamp_class[~free]]
    M = M0
    trace = [optimizer.relaxed_objective(P, W, rows, M, cfg)]
    sweeps, redone, inner_caps, mode_caps = [], 0, 0, 0
    for _ in range(cfg.outer_max):
        a = prototypes.prototype_scores(P, M, cfg.sigma2)
        setup = optimizer._BlockSetup(sel=slice(int(np.argmax(free)), len(free)),
                                      degree_total=float(degrees.sum()),
                                      redo_c=cfg.lam * float(degrees.max()))
        rows, _, iters, n_redone, delta = optimizer._s_block(W, a, rows, setup, cfg)
        sweeps.append(iters)
        redone += n_redone
        inner_caps += int(iters == cfg.inner_max and delta >= cfg.inner_tol)
        if cfg.rule == "modes":
            mode_cfg = prototypes.ModeSolverConfig(sigma2=cfg.sigma2,
                                                   max_iters=optimizer._MODE_STEPS)
            M, _, warnings = prototypes.update_modes(P, rows, mode_cfg, M)
            mode_caps += sum("hit max_iters" in w for w in warnings)
        else:
            M, _ = prototypes.update_means(P, rows, prev=M)
        trace.append(optimizer.relaxed_objective(P, W, rows, M, cfg))
        if abs(trace[-1] - trace[-2]) <= cfg.outer_tol * (1.0 + abs(trace[-2])):
            break
    return trace, sweeps, redone, inner_caps, mode_caps


@pytest.mark.parametrize("n_shot", [1, 5])
@pytest.mark.parametrize("lam", [0.1, 1.0])
@pytest.mark.parametrize("rule", ["modes", "means"])
def test_episode_loop_is_the_block_by_block_reference(n_shot, lam, rule):
    # run_episode computes the loop's invariants once, takes its votes from the
    # dense graph and checks no prototype it makes; none of that moves a bit.
    # At lambda 1, seeds 110 and 128 (1-shot) and 125 (5-shot) redo sweeps
    seeds = (110, 125, 128, 142) if rule == "modes" else (110, 125)
    redone_total = 0
    for seed in seeds:
        X, task, truth, episode, cfg = prepared(n_shot, 640, seed, rule, lam)
        P, W, M0, clamp_class = episode
        assert isinstance(P, prototypes.GramPoints) and W.dense is not None
        result = run_episode(task, X, PreprocessConfig(apply_cl2=True, apply_bias=True),
                             SolverConfig(lam=lam, rule=rule), rho=3, truth=truth)
        got = result.solve_report
        trace, sweeps, redone, inner_caps, mode_caps = reference_loop(P, W, M0, cfg, clamp_class)
        assert got.relaxed_trace == trace
        assert got.inner_iters_per_outer == [0, *sweeps]
        assert (got.redone_sweeps, got.inner_cap_hits, got.mode_cap_hits) == (
            redone, inner_caps, mode_caps)
        assert got.stop_reason == "tolerance"
        redone_total += redone
    assert redone_total > 0 or lam != 1.0


@pytest.mark.parametrize("truth", [np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
                                   [0, 1, 2, 0, 1, 2, 0, 1, 2.9]])
def test_non_integer_truth_is_rejected(truth):
    # a cast to int64 would truncate 2.9 to class 2 and score it as right
    X, task, _ = generate_synthetic_episode(3, 1, 3, 6, 6.0, seed=0)
    with pytest.raises(DataError, match="^truth must hold integers, got dtype float64$"):
        run_episode(task, X, PreprocessConfig(), SolverConfig(lam=1.0), truth=truth)
    with pytest.raises(DataError, match="^truth must hold integers, got dtype float64$"):
        tune_lambda([0.5], [(X, task, truth)], SolverConfig(lam=1.0))
    good = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.uint8)
    assert run_episode(task, X, PreprocessConfig(), SolverConfig(lam=1.0),
                       truth=good).accuracy is not None
