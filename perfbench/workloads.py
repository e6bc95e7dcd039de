"""The benchmark's workloads: input generation, the timed operation, checks.

Each workload is a ``Workload`` with four steps:

- ``prepare(seed, size)`` makes the inputs from the seed: the arrays, and the
  text of any file the program reads. It is the benchmark's own work, so it
  runs once per run and is not timed;
- ``setup(prepared, work_dir)`` writes the files the program reads and
  returns the inputs of ``run``; it is timed as part of ``setup_s``;
- ``run(inputs)`` is one timed operation, calling only public ``lapclust``
  functions, looked up on their module at call time so a traced run sees them;
- ``check(inputs, raw)`` validates the outputs outside the timed region and
  returns an ``Outcome``. It raises ``CheckFailed`` when an output is wrong.

Sizes come in two scales: ``bench`` (what BENCHMARK.json runs) and ``smoke``
(a few seconds, for the benchmark's own tests and the set-up warm-up).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

import lapclust
import lapclust.cli


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Outcome:
    labels: np.ndarray  # hard labels, in a seed-independent order
    nmi: float
    accuracy: float
    info: dict = field(default_factory=dict)
    requests_s: list = field(default_factory=list)  # per-episode latencies


# -- independent oracles ----------------------------------------------------

def oracle_nmi(pred, truth):
    """NMI with geometric-mean normalization and natural logs."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    counts = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(counts, (p, t), 1.0)
    n = counts.sum()
    pi, pj = counts.sum(axis=1) / n, counts.sum(axis=0) / n
    hp, ht = -np.sum(pi * np.log(pi)), -np.sum(pj * np.log(pj))
    if hp == 0.0 or ht == 0.0:
        return 1.0 if hp == ht else 0.0
    nz = counts > 0
    pij = counts[nz] / n
    mi = np.sum(pij * np.log(pij / np.outer(pi, pj)[nz]))
    return float(min(1.0, max(0.0, mi / np.sqrt(hp * ht))))


def oracle_hungarian_accuracy(pred, truth):
    dim = int(max(pred.max(), truth.max())) + 1
    counts = np.zeros((dim, dim))
    np.add.at(counts, (pred, truth), 1.0)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return float(counts[rows, cols].sum() / pred.size)


def labels_sha256(labels):
    return hashlib.sha256(np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_labels(labels, n, k):
    _require(labels.shape == (n,), f"expected {n} labels, got shape {labels.shape}")
    _require(labels.size == 0 or (labels.min() >= 0 and labels.max() < k),
             f"labels outside [0, {k})")


def _check_cluster_quality(pred, truth, floor):
    """Oracle NMI/accuracy, cross-checked against lapclust.metrics."""
    nmi = oracle_nmi(pred, truth)
    acc = oracle_hungarian_accuracy(pred, truth)
    _require(abs(nmi - lapclust.nmi(pred, truth)) <= 1e-9, "lapclust.nmi disagrees with the oracle")
    _require(abs(acc - lapclust.accuracy_hungarian(pred, truth)) <= 1e-12,
             "lapclust.accuracy_hungarian disagrees with the oracle")
    _require(nmi >= floor, f"NMI {nmi:.4f} below the floor {floor}")
    return nmi, acc


def _column_permutation(seed, d):
    """The seed's feature-column order; no seed keeps the original order."""
    if seed is None:
        return np.arange(d)
    return np.random.default_rng(seed).permutation(d)


def _blobs(stream_seed, n, d, k, scale):
    """Gaussian blobs as in the acceptance tests; returns (X, labels, rng)."""
    rng = np.random.default_rng(stream_seed)
    centers = rng.standard_normal((k, d)) * scale
    labels = rng.integers(k, size=n)
    X = centers[labels] + rng.standard_normal((n, d))
    return X, labels, rng


# -- cluster_means_10k --------------------------------------------------------

MEANS_STREAM = 1111  # the acceptance-criterion-11 stream
MEANS_SIZES = {"bench": 10_000, "smoke": 400}
MEANS_D, MEANS_K, MEANS_RHO = 10, 10, 5


def means_prepare(seed, size):
    n = MEANS_SIZES[size]
    X, truth, rng = _blobs(MEANS_STREAM, n, MEANS_D, MEANS_K, 4.0)
    perm = _column_permutation(seed, MEANS_D)
    return {"X": np.ascontiguousarray(X[:, perm]), "truth": truth,
            "rng_state": rng.bit_generator.state, "n": n}


def means_run(inp):
    X = inp["X"]
    rng = np.random.default_rng()
    rng.bit_generator.state = inp["rng_state"]
    W = lapclust.symmetrize(lapclust.knn_graph(X, MEANS_RHO), "max")
    M0 = lapclust.Prototypes(values=lapclust.kmeans_pp_seeds(X, MEANS_K, rng), rule="means")
    S, _, report = lapclust.solve(X, W, M0, lapclust.SolverConfig(lam=1.0, rule="means"))
    return S.hard_labels(), report, W.matrix.nnz


def means_check(inp, raw):
    labels, report, nnz = raw
    n = inp["n"]
    _check_labels(labels, n, MEANS_K)
    _require(np.isfinite(report.discrete_objective), "non-finite discrete objective")
    _require(nnz <= 2 * n * MEANS_RHO, f"graph nnz {nnz} > 2*N*rho")
    nmi, acc = _check_cluster_quality(labels, inp["truth"], floor=0.6)
    return Outcome(labels=labels, nmi=nmi, accuracy=acc,
                   info={"objective_E": report.discrete_objective,
                         "outer_iters": report.outer_iters,
                         "inner_iters_total": report.inner_iters_total})


# -- cluster_modes_cli_d128 ---------------------------------------------------

CLI_STREAM = 3333
CLI_SIZES = {"bench": (10_000, 128), "smoke": (1000, 128)}
CLI_K = 10
REPORT_FIELDS = ("objective", "relaxed_final", "iters", "warnings", "nmi", "acc")


def cli_prepare(seed, size):
    """The CSV and labels text; formatting 1.28M floats is benchmark work."""
    n, d = CLI_SIZES[size]
    X, truth, _ = _blobs(CLI_STREAM, n, d, CLI_K, 0.5)
    X = X[:, _column_permutation(seed, d)]
    csv_text = "".join(",".join(map(repr, row)) + "\n" for row in X.tolist())
    labels_text = "".join(f"{int(v)}\n" for v in truth)
    return {"csv_text": csv_text, "labels_text": labels_text, "truth": truth, "n": n}


def cli_setup(prepared, work_dir):
    features = os.path.join(work_dir, "features.csv")
    label_file = os.path.join(work_dir, "labels.txt")
    for path, text in ((features, prepared["csv_text"]), (label_file, prepared["labels_text"])):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    out_dir = os.path.join(work_dir, "out")
    argv = ["cluster", "--features", features, "--labels", label_file, "--k", str(CLI_K),
            "--algo", "slk-ms", "--rho", "5", "--out-dir", out_dir]
    return {"argv": argv, "out_dir": out_dir, "truth": prepared["truth"], "n": prepared["n"]}


def cli_run(inp):
    return lapclust.cli.main(inp["argv"])


def cli_check(inp, rc):
    """Checks the files one run wrote, then removes them for the next run."""
    try:
        return _cli_outcome(inp, rc)
    finally:
        shutil.rmtree(inp["out_dir"], ignore_errors=True)


def _cli_outcome(inp, rc):
    _require(rc == 0, f"lapclust cluster exited with {rc}")
    out = inp["out_dir"]
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    missing = [f for f in REPORT_FIELDS if f not in report]
    _require(not missing, f"report.json lacks {missing}")
    _require(np.isfinite(report["objective"]), "non-finite objective in report.json")
    with open(os.path.join(out, "assignments.csv"), encoding="utf-8") as fh:
        lines = fh.read().split()
    _require(lines[:1] == ["label"], "assignments.csv lacks its header")
    labels = np.array([int(v) for v in lines[1:]], dtype=np.int64)
    _check_labels(labels, inp["n"], CLI_K)
    nmi, acc = _check_cluster_quality(labels, inp["truth"], floor=0.6)
    _require(abs(report["nmi"] - nmi) <= 1e-9, "report.json nmi disagrees with the labels written")
    return Outcome(labels=labels, nmi=nmi, accuracy=acc,
                   info={"objective_E": report["objective"], "outer_iters": report["iters"]})


# -- fewshot_paper_d640 -------------------------------------------------------

FEWSHOT_GRID = (0.1, 0.3, 0.5, 0.7, 0.8, 1.0)
FEWSHOT_SIZES = {  # (validation episodes, test episodes, dim, grid)
    "bench": (20, 200, 640, FEWSHOT_GRID),
    "smoke": (2, 4, 64, (0.5, 1.0)),
}
WAYS, QUERIES, SEPARATION, FEWSHOT_RHO = 5, 15, 6.0, 3


def synthetic_episode(n_shot, dim, seed):
    """The same draws as lapclust.generate_synthetic_episode, made here so the
    inputs do not depend on the code under test."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((WAYS, dim))
    centers = SEPARATION * raw / np.linalg.norm(raw, axis=1)[:, None]
    support_rows, query_rows = [], []
    for k in range(WAYS):
        support_rows.append(centers[k] + rng.standard_normal((n_shot, dim)))
        query_rows.append(centers[k] + rng.standard_normal((QUERIES, dim)))
    X = np.vstack(support_rows + query_rows)
    support = tuple((k * n_shot + j, k) for k in range(WAYS) for j in range(n_shot))
    queries = tuple(range(WAYS * n_shot, WAYS * (n_shot + QUERIES)))
    task = lapclust.TaskSpec(k_way=WAYS, support=support, queries=queries)
    return X, task, np.repeat(np.arange(WAYS), QUERIES)


def _shots(i):
    return 1 if i % 2 == 0 else 5


def fewshot_prepare(seed, size):
    n_val, n_test, dim, grid = FEWSHOT_SIZES[size]
    perm = _column_permutation(seed, dim)

    def episode(i, stream):
        X, task, truth = synthetic_episode(_shots(i), dim, stream)
        return np.ascontiguousarray(X[:, perm]), task, truth

    val = [episode(i, 10_000 + i) for i in range(n_val)]
    test = [episode(i, i) for i in range(n_test)]
    return {"val": val, "test": test, "grid": grid}


def fewshot_run(inp):
    pre = lapclust.PreprocessConfig(apply_cl2=True, apply_bias=True)
    cfg = lapclust.SolverConfig(lam=1.0, rule="modes")
    lam = lapclust.tune_lambda(inp["grid"], inp["val"], cfg, pre, rho=FEWSHOT_RHO, sym="max")
    cfg = replace(cfg, lam=lam)
    results, latencies = [], []
    start = time.perf_counter()
    for X, task, truth in inp["test"]:
        t0 = time.perf_counter()
        results.append(lapclust.run_episode(task, X, pre, cfg, rho=FEWSHOT_RHO, sym="max",
                                            truth=truth))
        latencies.append(time.perf_counter() - t0)
    return lam, results, latencies, time.perf_counter() - start


def fewshot_check(inp, raw):
    lam, results, latencies, test_s = raw
    _require(lam in inp["grid"], f"tuned lambda {lam} is not a grid value")
    _require(len(results) == len(inp["test"]), "an episode result is missing")
    accs, nmis, labels = [], [], []
    for (_, _, truth), result in zip(inp["test"], results):
        pred = np.asarray(result.query_labels)
        _check_labels(pred, truth.size, WAYS)
        acc = float(np.mean(pred == truth))
        _require(result.accuracy == acc, "EpisodeResult.accuracy disagrees with its labels")
        accs.append(acc)
        nmis.append(oracle_nmi(pred, truth))
        labels.append(pred)
    accuracy = float(np.mean(accs))
    _require(accuracy >= 0.5, f"mean accuracy {accuracy:.4f} below the floor 0.5")
    return Outcome(labels=np.concatenate(labels), nmi=float(np.mean(nmis)), accuracy=accuracy,
                   requests_s=latencies,
                   info={"lambda": lam, "accuracy_1shot": float(np.mean(accs[0::2])),
                         "accuracy_5shot": float(np.mean(accs[1::2])) if len(accs) > 1 else None,
                         "episodes_per_s": len(results) / test_s})


def no_files(prepared, work_dir):
    """Set-up of a workload that reads no files: its inputs are the arrays."""
    return prepared


@dataclass(frozen=True)
class Workload:
    prepare: object
    setup: object
    run: object
    check: object


# Names and reasons are in BENCHMARK.json; README.md explains each choice.
WORKLOADS = {
    "cluster_means_10k": Workload(means_prepare, no_files, means_run, means_check),
    "cluster_modes_cli_d128": Workload(cli_prepare, cli_setup, cli_run, cli_check),
    "fewshot_paper_d640": Workload(fewshot_prepare, no_files, fewshot_run, fewshot_check),
}
