"""Transductive few-shot inference: preprocessing, clamped solves, episodes.

An episode couples a handful of labeled support points with unlabeled queries.
Features are optionally centered and L2-normalized, queries are shifted by the
support/query mean gap, a rho-NN graph symmetrized by ``sym`` ("max" or
"mean") ties queries to supports, and the constrained solve keeps support rows
clamped one-hot. Because cluster k is anchored by the class-k supports,
cluster indices are class indices.

An episode reads its ``TaskSpec`` once, into plain arrays: its n_s support
rows followed by its query rows, and the int64 classes of the supports (see
``_prepare_episode``). An episode with no more points than feature columns
solves on their Gram matrix, with its prototypes as coefficient rows over
its points (``prototypes.GramPoints``); a wider one solves on its features.
On either, its first prototypes are one means update of its clamped rows
(``prototypes._weighted_means``), so only ``prototypes`` knows how a
prototype is stored. ``run_episode`` and ``tune_lambda`` share one
solve-and-label step; only ``run_episode`` wraps its labels in a timed
``EpisodeResult``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .affinity import _check_sym_mode, estimate_sigma2, knn_graph, symmetrize
from .errors import ConfigError, DataError, NonFiniteValueError, ZeroVectorError
from .io import TaskSpec, _index, _integer_array, validate_features
from .metrics import fewshot_accuracy
# solve stays bound here for callers that reach it as lapclust.fewshot.solve;
# an episode runs its loop without the hard re-fit
from .optimizer import SolveReport, SolverConfig, _one_hot, _solve_loop, solve  # noqa: F401
from .prototypes import CenteredFeatures, GramPoints, Prototypes, RULE_MODES, _weighted_means


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
    """The query labels of one episode, with their accuracy when the truth was given.

    ``solve_report`` is the solve loop's: an episode reads only its labels, so
    it skips ``solve``'s hard re-fit, and ``discrete_objective`` stays NaN.
    """

    query_labels: np.ndarray
    accuracy: float | None
    solve_report: SolveReport
    wall_time: float


def cl2_normalize(X, base_mean) -> np.ndarray:
    """Center on the base-class mean, then L2-normalize each row."""
    return _cl2_normalize(validate_features(X).copy(), base_mean)


# Bytes per block of ``_cl2_normalize``'s squares (12 rows at d=640). On a
# 100 x 640 episode, with a copy of its rows, the blocks took 0.18-0.19 ms per
# call, against 0.44-0.48 ms for one episode-sized scratch array and
# 0.73-0.81 ms for the two temporaries of ``X - mean`` and its squares (2-core
# VM, best of 3 x 2000, two runs).
_CL2_BLOCK_BYTES = 65536


def _cl2_normalize(X, base_mean):
    """``cl2_normalize`` of a valid X, in place (an episode normalizes its own
    copy of its rows); returns X. The squares are taken block by block in one
    small scratch array, and the norms are ``np.linalg.norm``'s values: each
    row's squares are summed by one ``np.add.reduce``, as it sums them."""
    mean = np.asarray(base_mean, dtype=np.float64)
    if mean.shape != (X.shape[1],):
        raise DataError(f"base mean has shape {mean.shape}, expected ({X.shape[1]},)")
    X -= mean
    block = max(1, _CL2_BLOCK_BYTES // (8 * X.shape[1]))
    squares = np.empty((min(block, X.shape[0]), X.shape[1]))
    norms = np.empty(X.shape[0])
    for start in range(0, X.shape[0], block):
        rows = X[start:start + block]
        sq = np.multiply(rows, rows, out=squares[:rows.shape[0]])
        np.add.reduce(sq, axis=1, out=norms[start:start + block])
    np.sqrt(norms, out=norms)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVectorError(int(zero[0]))
    X /= norms[:, None]
    return X


def bias_correct(task: TaskSpec, X) -> np.ndarray:
    """Shift each query row by (mean support - mean query); supports untouched."""
    X = validate_features(X)
    task.validate_indices(X.shape[0])
    queries = list(task.queries)
    out = X.copy()
    out[queries] = _bias_correct(out[list(task.support_indices)], out[queries])
    return out


def _bias_correct(support_rows, query_rows):
    """``bias_correct`` on the two row sets: shifts ``query_rows`` in place and
    returns them; no query rows, no shift."""
    if len(query_rows):
        query_rows += support_rows.mean(axis=0) - query_rows.mean(axis=0)
    return query_rows


def init_prototypes(task: TaskSpec, X, rule="means") -> Prototypes:
    """Per-class support means (the support point itself in the 1-shot case):
    the means update of the support rows' one-hot rows, as an episode makes
    its first prototypes."""
    X = validate_features(X)
    task.validate_indices(X.shape[0])
    support = np.array(task.support, dtype=np.int64)
    P = CenteredFeatures._of_valid(X[support[:, 0]])
    return Prototypes(values=_weighted_means(P, _one_hot(support[:, 1], task.k_way), None)[0],
                      rule=rule)


def run_episode(task: TaskSpec, X_raw, pre: PreprocessConfig, cfg: SolverConfig,
                rho: int = 3, sym: str = "max", truth=None) -> EpisodeResult:
    """Full inference pipeline for one episode.

    ``truth``, when given, lists the true class per query (aligned with
    ``task.queries``) and enables the accuracy field; its length is checked
    before any search.
    """
    start = time.perf_counter()
    _check_graph_args(rho, sym)
    truth = _check_truth(task, truth)
    episode, cfg = _prepare_episode(task, X_raw, pre, cfg, rho, sym)
    labels, report = _label_queries(episode, cfg)
    accuracy = float(np.mean(labels == truth)) if truth is not None and labels.size else None
    return EpisodeResult(query_labels=labels, accuracy=accuracy, solve_report=report,
                         wall_time=time.perf_counter() - start)


def _check_truth(task, truth):
    """``truth`` as an int64 array with one entry per query, or None."""
    if truth is None:
        return None
    truth = _integer_array(np.asarray(truth), "truth")
    if truth.shape != (len(task.queries),):
        raise DataError("truth length does not match query count")
    return truth


def _check_graph_args(rho, sym):
    """Checked for every task, also one without queries, which builds no graph."""
    _check_sym_mode(sym)
    if _index(rho, "rho") < 1:
        raise DataError(f"rho must be >= 1, got {rho}")


def _prepare_episode(task, X_raw, pre, cfg, rho, sym):
    """Everything of an episode that lambda does not change.

    Returns ((P, W, M0, clamp_class), cfg with sigma2 set); the tuple is None
    when the task has no queries. The episode is one array of rows, the n_s
    supports then the queries, and one int64 array of the support classes:
    bias correction shifts the rows after n_s, and clamp_class is the support
    classes then -1 per query.

    P is the episode's point set. With no more points than feature columns
    (N <= d) it is a GramPoints: G = C C^t is made once, the search reads its
    half distances from G (the product it would make itself, bitwise), and
    the prototypes are coefficient rows over the points, so the solve makes no
    d-wide product. G is then no larger than the features. A wider episode
    (N > d) keeps its CenteredFeatures and feature-row prototypes.

    M0 is one means update of the clamped rows, on either point set: the
    weighted means of clamp_class's one-hot rows, a zero row per query. So it
    holds each class's support mean, as feature rows (bitwise the per-class
    ``np.mean`` of up to ``prototypes._SUM_BLOCK`` supports) or as 1/n_k on
    each class-k support.

    W is ``symmetrize(knn_graph(P, rho), sym)``, whatever d is: an episode of
    at most ``affinity._DENSE_MAX_N`` points (80 KB as an N x N array) gets a
    dense adjacency, whose votes are one BLAS product, bitwise the CSR one; a
    larger one gets the CSR graph.

    Only the episode's rows of ``X_raw`` are read and validated, once; a
    non-finite value, or a row CL2 leaves at zero norm, is reported at its
    row in ``X_raw``. ``rho`` and ``sym`` are checked by the caller; a task
    without queries has no search to bound ``rho`` above.
    """
    X_raw = np.asarray(X_raw)
    if X_raw.ndim != 2:
        raise DataError(f"feature matrix must be 2-D and non-empty, got shape {X_raw.shape}")
    task.validate_indices(X_raw.shape[0])

    n_s = len(task.support)
    classes = np.array([c for _, c in task.support], dtype=np.int64)
    episode_idx = np.array([*task.support_indices, *task.queries], dtype=np.int64)
    try:
        Xe = validate_features(X_raw[episode_idx])
    except NonFiniteValueError as exc:
        raise NonFiniteValueError(int(episode_idx[exc.row]), exc.col) from None

    if pre.apply_cl2:
        mean = pre.base_mean if pre.base_mean is not None else Xe.mean(axis=0)
        try:
            _cl2_normalize(Xe, mean)  # Xe is the episode's own copy of its rows
        except ZeroVectorError as exc:
            raise ZeroVectorError(int(episode_idx[exc.row])) from None
    if pre.apply_bias:
        _bias_correct(Xe[:n_s], Xe[n_s:])

    if not task.queries:
        return None, cfg

    P = CenteredFeatures._of_valid(Xe)
    if Xe.shape[0] <= Xe.shape[1]:
        P = GramPoints(P)
    clamp_class = np.concatenate([classes, np.full(len(task.queries), -1, dtype=np.int64)])
    means, _ = _weighted_means(P, _one_hot(clamp_class, task.k_way), None)
    # C order: on G the means come out F-ordered, from a transposed view, and
    # the layout of M0 picks the BLAS kernel of the first product G M0^t, so
    # its last bits
    M0 = Prototypes._of_valid(np.ascontiguousarray(means), cfg.rule)
    W = symmetrize(knn_graph(P, rho), sym)
    if cfg.rule == RULE_MODES and cfg.sigma2 is None:
        cfg = replace(cfg, sigma2=estimate_sigma2(W, rho))
    return (P, W, M0, clamp_class), cfg


def _label_queries(episode, cfg):
    """The clamped solve of a prepared episode: (query labels, SolveReport).

    The loop runs without ``solve``'s checks, which ``_prepare_episode``'s
    inputs pass by construction, and without its hard re-fit, whose E no
    episode reads. An episode without queries (None) has no labels.
    """
    if episode is None:
        return np.empty(0, dtype=np.int64), SolveReport()
    P, W, M0, clamp_class = episode
    rows, _, _, report = _solve_loop(P, W, M0, cfg, clamp_class)
    return np.argmax(rows[clamp_class < 0], axis=1), report


def generate_synthetic_episode(k_way, n_shot, n_query, dim, separation, seed):
    """Reproducible Gaussian-mixture episode.

    Class centers are i.i.d. directions on the unit sphere scaled by
    ``separation``; samples add isotropic unit-variance noise.
    Returns (features, task, truth) with truth aligned to the query order.
    """
    counts = dict(k_way=k_way, n_shot=n_shot, n_query=n_query, dim=dim)
    if min(_index(value, name) for name, value in counts.items()) < 1:
        raise DataError("all counts must be >= 1")
    if separation < 0:
        raise DataError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k_way, dim))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0.0] = 1.0
    centers = separation * raw / norms[:, None]

    support_rows, query_rows = [], []
    for k in range(k_way):
        support_rows.append(centers[k] + rng.standard_normal((n_shot, dim)))
        query_rows.append(centers[k] + rng.standard_normal((n_query, dim)))
    X = np.vstack(support_rows + query_rows)
    support = tuple((k * n_shot + j, k) for k in range(k_way) for j in range(n_shot))
    queries = tuple(range(k_way * n_shot, k_way * (n_shot + n_query)))
    task = TaskSpec(k_way=k_way, support=support, queries=queries)
    return X, task, np.repeat(np.arange(k_way, dtype=np.int64), n_query)


def tune_lambda(candidates, episodes, cfg: SolverConfig, pre: PreprocessConfig | None = None,
                rho: int = 3, sym: str = "max") -> float:
    """Pick the regularization weight with the best mean validation accuracy.

    ``episodes`` is a list of (features, task, truth) triples, each with
    queries and their truth, so that every episode has an accuracy; all are
    checked before any search. Ties resolve to the smaller candidate.
    """
    if not candidates or not episodes:
        raise DataError("need at least one candidate and one episode")
    _check_graph_args(rho, sym)
    truths = []
    for i, (_, task, truth) in enumerate(episodes):
        if truth is None or not task.queries:
            raise DataError(f"validation episode {i} has no accuracy: it needs queries and "
                            "their truth")
        truths.append(_check_truth(task, truth))
    pre = pre or PreprocessConfig()
    grid = sorted(candidates)
    accs = [[] for _ in grid]
    for (X, task, _), truth in zip(episodes, truths):
        episode, episode_cfg = _prepare_episode(task, X, pre, cfg, rho, sym)
        for lam, lam_accs in zip(grid, accs):
            labels, _ = _label_queries(episode, replace(episode_cfg, lam=lam))
            lam_accs.append(float(np.mean(labels == truth)))
        del episode  # one prepared episode alive at a time, so memory does not grow
    best_lam, best_acc = None, -1.0
    for lam, lam_accs in zip(grid, accs):
        mean, _ = fewshot_accuracy(lam_accs)
        if mean > best_acc:
            best_lam, best_acc = lam, mean
    return best_lam
