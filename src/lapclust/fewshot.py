"""Transductive few-shot inference: preprocessing, clamped solves, episodes.

An episode couples a handful of labeled support points with unlabeled queries.
Features are optionally centered and L2-normalized, queries are shifted by the
support/query mean gap, a rho-NN graph symmetrized by ``sym`` ("max" or
"mean") ties queries to supports, and the constrained solve keeps support rows
clamped one-hot. Because cluster k is anchored by the class-k supports,
cluster indices are class indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .affinity import _check_sym_mode, estimate_sigma2, knn_graph, symmetrize
from .errors import ConfigError, DataError, NonFiniteValueError, ZeroVectorError
from .io import TaskSpec, validate_features
from .metrics import fewshot_accuracy
from .optimizer import SolveReport, SolverConfig, solve
from .prototypes import CenteredFeatures, Prototypes, RULE_MODES


@dataclass(frozen=True)
class PreprocessConfig:
    base_mean: np.ndarray | None = None  # the center of the CL2 step; needs apply_cl2
    apply_cl2: bool = False
    apply_bias: bool = False

    def __post_init__(self):
        if self.base_mean is not None and not self.apply_cl2:
            raise ConfigError("a base mean is read only by CL2 normalization; set apply_cl2")


@dataclass
class EpisodeResult:
    query_labels: np.ndarray
    accuracy: float | None
    solve_report: SolveReport
    wall_time: float


def cl2_normalize(X, base_mean) -> np.ndarray:
    """Center on the base-class mean, then L2-normalize each row."""
    return _cl2_normalize(validate_features(X), base_mean)


def _cl2_normalize(X, base_mean):
    mean = np.asarray(base_mean, dtype=np.float64)
    if mean.shape != (X.shape[1],):
        raise DataError(f"base mean has shape {mean.shape}, expected ({X.shape[1]},)")
    centered = X - mean
    norms = np.linalg.norm(centered, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVectorError(int(zero[0]))
    return centered / norms[:, None]


def bias_correct(task: TaskSpec, X) -> np.ndarray:
    """Shift each query row by (mean support - mean query); supports untouched."""
    X = validate_features(X)
    task.validate_indices(X.shape[0])
    return _bias_correct(task, X)


def _bias_correct(task, X):
    out = X.copy()
    queries = np.asarray(task.queries, dtype=np.int64)
    if queries.size == 0:
        return out
    support = np.asarray(task.support_indices, dtype=np.int64)
    delta = X[support].mean(axis=0) - X[queries].mean(axis=0)
    out[queries] += delta
    return out


def init_prototypes(task: TaskSpec, X, rule="means") -> Prototypes:
    """Per-class support means (the support point itself in the 1-shot case)."""
    X = validate_features(X)
    task.validate_indices(X.shape[0])
    return _init_prototypes(task, X, rule)


def _init_prototypes(task, X, rule):
    M = np.empty((task.k_way, X.shape[1]))
    for k in range(task.k_way):
        idx = [p for p, c in task.support if c == k]
        M[k] = X[idx].mean(axis=0)
    return Prototypes(values=M, rule=rule)


def run_episode(task: TaskSpec, X_raw, pre: PreprocessConfig, cfg: SolverConfig,
                rho: int = 3, sym: str = "max", truth=None) -> EpisodeResult:
    """Full inference pipeline for one episode.

    ``truth``, when given, lists the true class per query (aligned with
    ``task.queries``) and enables the accuracy field.
    """
    start = time.perf_counter()
    episode, cfg = _prepare_episode(task, X_raw, pre, cfg, rho, sym)
    return _solve_episode(episode, cfg, truth, start)


def _prepare_episode(task, X_raw, pre, cfg, rho, sym):
    """Everything of an episode that lambda does not change.

    Returns ((P, W, M0, local support), cfg with sigma2 set); the tuple is None
    when the task has no queries. Only the episode's rows of ``X_raw`` are
    read and validated, once; a non-finite value is reported at its row in
    ``X_raw``. A task without queries has no search to bound ``rho`` above.
    """
    _check_sym_mode(sym)
    if rho < 1:
        raise DataError(f"rho must be >= 1, got {rho}")
    X_raw = np.asarray(X_raw)
    if X_raw.ndim != 2:
        raise DataError(f"feature matrix must be 2-D and non-empty, got shape {X_raw.shape}")
    task.validate_indices(X_raw.shape[0])

    n_s = len(task.support)
    episode_idx = np.array([*task.support_indices, *task.queries], dtype=np.int64)
    try:
        Xe = validate_features(X_raw[episode_idx])
    except NonFiniteValueError as exc:
        raise NonFiniteValueError(int(episode_idx[exc.row]), exc.col) from None
    local_task = TaskSpec(
        k_way=task.k_way,
        support=tuple((i, c) for i, (_, c) in enumerate(task.support)),
        queries=tuple(range(n_s, n_s + len(task.queries))),
    )

    if pre.apply_cl2:
        mean = pre.base_mean if pre.base_mean is not None else Xe.mean(axis=0)
        Xe = _cl2_normalize(Xe, mean)
    if pre.apply_bias:
        Xe = _bias_correct(local_task, Xe)

    if not task.queries:
        return None, cfg

    P = CenteredFeatures._of_valid(Xe)
    W = symmetrize(knn_graph(P, rho), sym)
    if cfg.rule == RULE_MODES and cfg.sigma2 is None:
        cfg = replace(cfg, sigma2=estimate_sigma2(W, rho))
    M0 = _init_prototypes(local_task, Xe, cfg.rule)
    return (P, W, M0, local_task.support), cfg


def _solve_episode(episode, cfg, truth, start):
    """The clamped solve of a prepared episode; wall time counts from ``start``."""
    labels, accuracy, report = np.empty(0, dtype=np.int64), None, SolveReport()
    if episode is not None:
        P, W, M0, support = episode
        S, _, report = solve(P, W, M0, cfg, clamps=support)
        labels = np.argmax(S.rows[len(support):], axis=1)
        if truth is not None:
            truth = np.asarray(truth, dtype=np.int64)
            if truth.shape != labels.shape:
                raise DataError("truth length does not match query count")
            accuracy = float(np.mean(labels == truth))
    return EpisodeResult(query_labels=labels, accuracy=accuracy, solve_report=report,
                         wall_time=time.perf_counter() - start)


def generate_synthetic_episode(k_way, n_shot, n_query, dim, separation, seed):
    """Reproducible Gaussian-mixture episode.

    Class centers are i.i.d. directions on the unit sphere scaled by
    ``separation``; samples add isotropic unit-variance noise.
    Returns (features, task, truth) with truth aligned to the query order.
    """
    if min(k_way, n_shot, n_query, dim) < 1:
        raise DataError("all counts must be >= 1")
    if separation < 0:
        raise DataError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k_way, dim))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0.0] = 1.0
    centers = separation * raw / norms[:, None]

    support_rows = []
    query_rows = []
    support = []
    truth = []
    for k in range(k_way):
        support_rows.append(centers[k] + rng.standard_normal((n_shot, dim)))
        query_rows.append(centers[k] + rng.standard_normal((n_query, dim)))
        truth.extend([k] * n_query)
    X = np.vstack(support_rows + query_rows)
    pos = 0
    for k in range(k_way):
        support.extend((pos + j, k) for j in range(n_shot))
        pos += n_shot
    queries = tuple(range(k_way * n_shot, k_way * (n_shot + n_query)))
    task = TaskSpec(k_way=k_way, support=tuple(support), queries=queries)
    return X, task, np.array(truth, dtype=np.int64)


def tune_lambda(candidates, episodes, cfg: SolverConfig, pre: PreprocessConfig | None = None,
                rho: int = 3, sym: str = "max") -> float:
    """Pick the regularization weight with the best mean validation accuracy.

    ``episodes`` is a list of (features, task, truth) triples; ties resolve to
    the smaller candidate.
    """
    if not candidates or not episodes:
        raise DataError("need at least one candidate and one episode")
    pre = pre or PreprocessConfig()
    grid = sorted(candidates)
    accs = [[] for _ in grid]
    for X, task, truth in episodes:
        episode, episode_cfg = _prepare_episode(task, X, pre, cfg, rho, sym)
        for lam, lam_accs in zip(grid, accs):
            result = _solve_episode(episode, replace(episode_cfg, lam=lam), truth,
                                    time.perf_counter())
            lam_accs.append(result.accuracy)
        del episode  # one prepared episode alive at a time, so memory does not grow
    best_lam, best_acc = None, -1.0
    for lam, lam_accs in zip(grid, accs):
        mean, _ = fewshot_accuracy(lam_accs)
        if mean > best_acc:
            best_lam, best_acc = lam, mean
    return best_lam
