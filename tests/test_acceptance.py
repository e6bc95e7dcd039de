"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is checked against an independent oracle (dense eigen/linear
algebra, exhaustive enumeration, grid search, or direct recomputation), with
explicit runtime budgets where the criterion states one.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import lapclust
from lapclust import (
    PreprocessConfig,
    Prototypes,
    SolverConfig,
    auxiliary_value,
    accuracy_hungarian,
    contingency_table,
    discrete_objective,
    estimate_sigma2,
    generate_synthetic_episode,
    kmeans_pp_seeds,
    knn_graph,
    laplacian_quadratic,
    nmi,
    relaxed_objective,
    run_episode,
    save_features,
    save_labels,
    save_task,
    solve,
    symmetrize,
    tune_lambda,
)
from lapclust.io import TaskSpec
from lapclust.optimizer import SoftAssignment
from lapclust.prototypes import ModeSolverConfig, meanshift_step, update_means, update_modes


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def psd_shifted(W):
    """Diagonal shift delta = |lambda_min| + 1e-6 from a dense eigen-oracle."""
    lam_min = float(np.linalg.eigvalsh(W.matrix.toarray()).min())
    return W.with_diag_shift(abs(lam_min) + 1e-6)


def random_simplex(rng, n, k):
    g = rng.gamma(1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def random_instance(rng, n_max=50, k_max=5):
    n = int(rng.integers(10, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    X = rng.standard_normal((n, 2)) * 2.0
    W = psd_shifted(symmetrize(knn_graph(X, 3), "max"))
    return n, k, X, W


def test_criterion_1_bound_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap, worst_anchor = np.inf, 0.0
    for i in range(100):
        n, k, X, W = random_instance(rng)
        rule = "means" if i % 2 == 0 else "modes"
        sigma2 = estimate_sigma2(X, 3) if rule == "modes" else None
        cfg = SolverConfig(lam=float(rng.uniform(0.1, 3.0)), rule=rule, sigma2=sigma2)
        M = Prototypes(values=X[rng.choice(n, k, replace=False)], rule=rule)
        for _ in range(50):
            S = random_simplex(rng, n, k)
            anchor = random_simplex(rng, n, k)
            gap = (auxiliary_value(X, W, S, anchor, M, cfg)
                   - relaxed_objective(X, W, S, M, cfg))
            worst_gap = min(worst_gap, gap)
            tight = abs(auxiliary_value(X, W, anchor, anchor, M, cfg)
                        - relaxed_objective(X, W, anchor, M, cfg))
            worst_anchor = max(worst_anchor, tight)
    elapsed = time.perf_counter() - start
    ok = worst_gap >= -1e-9 and worst_anchor <= 1e-9 and elapsed < 30.0
    report(1, ok, f"bound: worst A-R gap {worst_gap:.2e} (>= -1e-9), "
                  f"worst anchor mismatch {worst_anchor:.2e} (<= 1e-9), {elapsed:.1f}s < 30s")


def test_criterion_2_monotone_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    lams = [0.0, 0.5, 1.0, 3.0]
    violations = 0
    worst_step = -np.inf
    for i in range(50):
        n, k, X, W = random_instance(rng, n_max=40, k_max=4)
        rule = "means" if i % 2 == 0 else "modes"
        sigma2 = estimate_sigma2(X, 3) if rule == "modes" else None
        cfg = SolverConfig(lam=lams[i % 4], rule=rule, sigma2=sigma2)
        M0 = Prototypes(values=X[rng.choice(n, k, replace=False)], rule=rule)
        _, _, rep = solve(X, W, M0, cfg)
        trace = np.array(rep.relaxed_trace)
        steps = np.diff(trace) - 1e-9 * (1.0 + np.abs(trace[:-1]))
        worst_step = max(worst_step, steps.max() if steps.size else -np.inf)
        bound = -n * np.log(k) - (n if rule == "modes" else 0.0)
        if (steps > 0).any() or trace.min() < bound - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report(2, ok, f"monotone descent: {violations}/50 violating solves, "
                  f"worst step excess {worst_step:.2e}, {elapsed:.1f}s < 60s")


def enumerate_global_min(X, W, cfg):
    n = X.shape[0]
    best = np.inf
    for bits in range(2 ** n):
        labels = np.array([(bits >> p) & 1 for p in range(n)], dtype=np.int64)
        if labels.min() == labels.max():
            continue  # empty cluster: equivalent to K=1, never below the 2-cluster optimum here
        S = SoftAssignment.from_hard(labels, 2)
        M, _ = update_means(X, S.rows)
        best = min(best, discrete_objective(X, W, S.rows, M, cfg))
    return best


def test_criterion_3_optimality_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    global_ok = 0
    median_ok = 0
    for _ in range(25):
        n, k = 8, 2
        X = rng.standard_normal((n, 2)) * 2.0
        W = psd_shifted(symmetrize(knn_graph(X, 3), "max"))
        cfg = SolverConfig(lam=0.5, rule="means")
        M0 = Prototypes(values=kmeans_pp_seeds(X, k, rng), rule="means")
        _, _, rep = solve(X, W, M0, cfg)
        e_slk = rep.discrete_objective
        e_global = enumerate_global_min(X, W, cfg)
        if e_global <= e_slk + 1e-9:
            global_ok += 1
        randoms = []
        while len(randoms) < 1000:
            labels = rng.integers(2, size=n)
            if labels.min() == labels.max():
                continue
            S = SoftAssignment.from_hard(labels, 2)
            M, _ = update_means(X, S.rows)
            randoms.append(discrete_objective(X, W, S.rows, M, cfg))
        if e_slk <= float(np.median(randoms)):
            median_ok += 1
    elapsed = time.perf_counter() - start
    ok = global_ok == 25 and median_ok >= 24 and elapsed < 60.0
    report(3, ok, f"optimality sandwich: global-min <= E_SLK on {global_ok}/25, "
                  f"E_SLK <= random median on {median_ok}/25 (>= 24), {elapsed:.1f}s < 60s")


def test_criterion_4_degenerate_kmeans_equivalence():
    rng = np.random.default_rng(404)
    agree = 0
    for _ in range(50):
        n, k, X, W = random_instance(rng, n_max=40)
        cfg = SolverConfig(lam=0.0, rule="means")
        M0 = Prototypes(values=X[rng.choice(n, k, replace=False)], rule="means")
        S, M, _ = solve(X, W, M0, cfg)
        d = np.einsum("nkd,nkd->nk", X[:, None] - M.values[None], X[:, None] - M.values[None])
        if np.array_equal(S.hard_labels(), np.argmin(d, axis=1)):
            agree += 1
    ok = agree == 50
    report(4, ok, f"lambda=0 means: nearest-prototype agreement on {agree}/50 instances")


def test_criterion_5_meanshift_convergence():
    rng = np.random.default_rng(12345)
    converged, mono_fail, grid_fail = 0, 0, 0
    worst_residual = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 12))
        X = rng.standard_normal((n, 1))
        s = rng.uniform(0.2, 1.0, size=n)
        sigma2 = 2.0
        cfg = ModeSolverConfig(sigma2=sigma2, tol=1e-6, max_iters=100)
        m0 = ((s @ X) / s.sum()).reshape(1, 1)
        M, traces, warns = update_modes(X, s[:, None], cfg,
                                        Prototypes(values=m0, rule="modes"))
        if not warns:
            converged += 1
        if not np.all(np.diff(traces[0]) > -1e-12):
            mono_fail += 1
        m = M.values[0]
        worst_residual = max(worst_residual,
                             float(np.linalg.norm(m - meanshift_step(X, s, m, sigma2))))
        grid = np.arange(X.min() - 1.0, X.max() + 1.0, 1e-4)
        q = (s[:, None] * np.exp(-((X - grid[None, :]) ** 2) / (2 * sigma2))).sum(axis=0)
        if abs(m[0] - grid[np.argmax(q)]) > 1e-3:
            grid_fail += 1
    ok = (converged >= 49 and mono_fail == 0 and grid_fail == 0
          and worst_residual <= 1e-5)
    report(5, ok, f"mean-shift: {converged}/50 converged (>= 49), {mono_fail} u-trace "
                  f"violations, {grid_fail} KDE-grid misses, "
                  f"worst residual {worst_residual:.2e} <= 1e-5")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(606)
    acc_fail = 0
    for _ in range(200):
        kp, kt = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        n = int(rng.integers(10, 60))
        pred = rng.integers(kp, size=n)
        truth = rng.integers(kt, size=n)
        counts = contingency_table(pred, truth)
        dim = max(counts.shape)
        padded = np.zeros((dim, dim), dtype=np.int64)
        padded[: counts.shape[0], : counts.shape[1]] = counts
        brute = max(sum(padded[i, p[i]] for i in range(dim))
                    for p in itertools.permutations(range(dim))) / counts.sum()
        if accuracy_hungarian(pred, truth) != pytest.approx(brute, abs=1e-15):
            acc_fail += 1
    nmi_fail = 0
    worst = 0.0
    for _ in range(20):
        pred = rng.integers(int(rng.integers(2, 5)), size=40)
        truth = rng.integers(int(rng.integers(2, 5)), size=40)
        counts = contingency_table(pred, truth).astype(float)
        n = counts.sum()
        pi, pj = counts.sum(axis=1) / n, counts.sum(axis=0) / n
        hp = -sum(p * np.log(p) for p in pi if p > 0)
        ht = -sum(p * np.log(p) for p in pj if p > 0)
        mi = sum(counts[i, j] / n * np.log((counts[i, j] / n) / (pi[i] * pj[j]))
                 for i in range(counts.shape[0]) for j in range(counts.shape[1])
                 if counts[i, j] > 0)
        diff = abs(nmi(pred, truth) - mi / np.sqrt(hp * ht))
        worst = max(worst, diff)
        if diff > 1e-12:
            nmi_fail += 1
    ok = acc_fail == 0 and nmi_fail == 0
    report(6, ok, f"metrics: Hungarian = K!-enumeration on 200/200 pairs "
                  f"({acc_fail} fails), NMI vs hand entropy worst diff {worst:.2e} <= 1e-12")


def test_criterion_7_binary_identity():
    rng = np.random.default_rng(707)
    fails = 0
    worst = 0.0
    for _ in range(100):
        n, k = int(rng.integers(8, 40)), int(rng.integers(2, 6))
        W = symmetrize(knn_graph(rng.standard_normal((n, 2)), 3), "max")
        S = np.zeros((n, k))
        S[np.arange(n), rng.integers(k, size=n)] = 1.0
        lhs = laplacian_quadratic(W, S)
        cross = float(np.sum(S * (W.matrix @ S)))
        rhs = 2.0 * (float(W.degrees.sum()) - cross)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        if rel > 1e-10:
            fails += 1
    ok = fails == 0
    report(7, ok, f"binary identity: {fails}/100 failures, worst relative error {worst:.2e}")


def test_criterion_8_fewshot_benchmark():
    start = time.perf_counter()
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    grid = [0.1, 0.3, 0.5, 0.7, 0.8, 1.0]
    validation = [generate_synthetic_episode(5, 1, 15, 10, 6.0, seed=10_000 + i)
                  for i in range(20)]
    cfg_ms = SolverConfig(lam=1.0, rule="modes")
    lam = tune_lambda(grid, validation, cfg_ms, pre, rho=3)
    cfg_ms = replace(cfg_ms, lam=lam)
    cfg_km = SolverConfig(lam=0.0, rule="means")
    acc_ms, acc_km = [], []
    for i in range(200):
        X, task, truth = generate_synthetic_episode(5, 1, 15, 10, 6.0, seed=i)
        acc_ms.append(run_episode(task, X, pre, cfg_ms, rho=3, truth=truth).accuracy)
        acc_km.append(run_episode(task, X, pre, cfg_km, rho=3, truth=truth).accuracy)
    mean_ms = float(np.mean(acc_ms))
    mean_km = float(np.mean(acc_km))
    elapsed = time.perf_counter() - start
    ok = mean_ms >= 0.95 and mean_ms >= mean_km and elapsed < 120.0
    report(8, ok, f"few-shot: SLK-MS {mean_ms:.4f} (>= 0.95, lambda={lam}) vs clamped "
                  f"K-means {mean_km:.4f} over 200 paired episodes, {elapsed:.1f}s < 120s")


def _mask_timing_lines(text):
    """Replace the wall_time column of an episodes CSV with a placeholder."""
    lines = text.splitlines()
    out = [lines[0]]
    for ln in lines[1:]:
        cells = ln.split(",")
        cells[2] = "MASKED"
        out.append(",".join(cells))
    return "\n".join(out)


def _run_cli(argv, blas_threads):
    """``python -m lapclust.cli`` in a fresh process whose BLAS uses ``blas_threads``."""
    src_dir = os.path.dirname(os.path.dirname(lapclust.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lapclust.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_criterion_9_thread_count_determinism(tmp_path):
    rng = np.random.default_rng(909)
    a = rng.normal([0, 0], 0.3, size=(25, 2))
    b = rng.normal([6, 0], 0.3, size=(25, 2))
    fpath = tmp_path / "features.csv"
    save_features(np.vstack([a, b]), fpath)
    save_labels([0] * 25 + [1] * 25, tmp_path / "labels.txt")

    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    feats = []
    offset = 0
    for i in range(3):
        X, task, _ = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=i)
        shifted = TaskSpec(k_way=task.k_way,
                           support=tuple((p + offset, c) for p, c in task.support),
                           queries=tuple(q + offset for q in task.queries))
        save_task(shifted, tasks_dir / f"e{i}.task")
        feats.append(X)
        offset += X.shape[0]
    fs_feats = tmp_path / "fs_features.csv"
    save_features(np.vstack(feats), fs_feats)

    cluster_artifacts, fewshot_artifacts = [], []
    for threads in (1, 2):
        out_c = tmp_path / f"cluster_t{threads}"
        _run_cli(["cluster", "--features", str(fpath), "--k", "2", "--algo", "slk-means",
                  "--lambda", "0.5", "--seed", "3", "--out-dir", str(out_c)], threads)
        cluster_artifacts.append(tuple(
            (out_c / name).read_bytes()
            for name in ("assignments.csv", "trace.csv", "report.json")))
        out_f = tmp_path / f"fewshot_t{threads}"
        _run_cli(["fewshot", "--features", str(fs_feats), "--episodes", str(tasks_dir),
                  "--algo", "slk-ms", "--lambda", "0.5", "--out-dir", str(out_f)], threads)
        episodes = _mask_timing_lines((out_f / "episodes.csv").read_text())
        summary = json.loads((out_f / "summary.json").read_text())
        summary.pop("mean_wall_time")
        fewshot_artifacts.append((episodes, json.dumps(summary, sort_keys=True)))

    ok = (cluster_artifacts[0] == cluster_artifacts[1]
          and fewshot_artifacts[0] == fewshot_artifacts[1])
    report(9, ok, "BLAS threads {1,2}: cluster artifacts bitwise identical, "
                  "few-shot artifacts identical after masking wall-time fields")


def test_block_products_are_thread_count_deterministic(tmp_path, monkeypatch):
    # criterion 9's d=2 search takes the kd-tree and its episodes are too small
    # for a grouped search, so no block product runs there. At d=64 the search
    # runs the float32 prefilter, and the float64 exact pass for the rows whose
    # cut falls between two copies of a point.
    rng = np.random.default_rng(919)
    n, d, k, rho = 2000, 64, 8, 5
    centers = rng.standard_normal((k, d)) * 0.5
    X = centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))
    X[1::10] = X[::10]
    fpath = tmp_path / "features.csv"
    save_features(X, fpath)

    redone = []
    exact_rows = lapclust.affinity._exact_rows

    def spy(P, rho, ids, *out):
        redone.append(ids.size)
        exact_rows(P, rho, ids, *out)

    monkeypatch.setattr(lapclust.affinity, "_exact_rows", spy)
    knn_graph(X, rho)
    assert len(redone) == 1 and 0 < redone[0] < n // 2

    artifacts = []
    for threads in (1, 2):
        out = tmp_path / f"cluster_t{threads}"
        _run_cli(["cluster", "--features", str(fpath), "--k", str(k), "--algo", "slk-ms",
                  "--rho", str(rho), "--out-dir", str(out)], threads)
        artifacts.append([(out / name).read_bytes()
                          for name in ("assignments.csv", "trace.csv", "report.json")])
    assert artifacts[0] == artifacts[1]


def test_criterion_10_episode_timing():
    X, task, truth = generate_synthetic_episode(5, 5, 15, 640, 6.0, seed=0)
    pre = PreprocessConfig(apply_cl2=True, apply_bias=True)
    cfg = SolverConfig(lam=0.5, rule="modes")
    result = run_episode(task, X, pre, cfg, rho=3, truth=truth)
    ok = result.wall_time <= 5.0
    report(10, ok, f"5-way 5-shot d=640 episode: {result.wall_time:.2f}s <= 5s "
                   f"(accuracy {result.accuracy:.3f})")


def test_criterion_11_scalability_smoke():
    rng = np.random.default_rng(1111)
    n, d, k, rho = 50_000, 10, 10, 5
    centers = rng.standard_normal((k, d)) * 4.0
    labels = rng.integers(k, size=n)
    X = centers[labels] + rng.standard_normal((n, d))
    start = time.perf_counter()
    W = symmetrize(knn_graph(X, rho), "max")
    nnz = W.matrix.nnz
    M0 = Prototypes(values=kmeans_pp_seeds(X, k, rng), rule="means")
    cfg = SolverConfig(lam=1.0, rule="means")
    _, _, rep = solve(X, W, M0, cfg)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0 and nnz <= 2 * n * rho
    report(11, ok, f"N=50k solve: {elapsed:.1f}s < 120s, affinity nnz {nnz} "
                   f"<= 2*N*rho = {2 * n * rho} (O(N rho) storage)")
