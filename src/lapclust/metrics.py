"""Clustering evaluation: NMI, Hungarian-matched accuracy, episode aggregates."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .io import _integer_array


def contingency_table(pred, truth):
    """K_pred x K_true count matrix; labels are integers in [0, max+1)."""
    pred = _integer_array(np.asarray(pred), "pred")
    truth = _integer_array(np.asarray(truth), "truth")
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise DataError("pred and truth must be equal-length non-empty 1-D arrays")
    if pred.min() < 0 or truth.min() < 0:
        raise DataError("labels must be non-negative")
    kp, kt = pred.max() + 1, truth.max() + 1
    counts = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(counts, (pred, truth), 1)
    return counts


def _entropy_from_counts(counts_1d, n):
    p = counts_1d[counts_1d > 0] / n
    return float(-np.sum(p * np.log(p)))


def nmi(pred, truth) -> float:
    """Normalized mutual information, geometric-mean normalization, natural logs.

    Both partitions single-cluster -> 1.0; exactly one degenerate partition
    -> 0.0 (the partitions necessarily differ).
    """
    counts = contingency_table(pred, truth)
    n = counts.sum()
    hp = _entropy_from_counts(counts.sum(axis=1), n)
    ht = _entropy_from_counts(counts.sum(axis=0), n)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    pi = counts.sum(axis=1) / n
    pj = counts.sum(axis=0) / n
    nz = counts > 0
    pij = counts[nz] / n
    outer = (pi[:, None] * pj[None, :])[nz]
    mi = float(np.sum(pij * np.log(pij / outer)))
    return min(1.0, max(0.0, mi / np.sqrt(hp * ht)))


def accuracy_hungarian(pred, truth) -> float:
    """Best matched fraction over injective cluster-to-class mappings.

    Solved as a max-weight assignment on the contingency table, zero-padded
    to square so cluster and class counts may differ.
    """
    # imported here: scipy.optimize loads scipy.spatial, about half a second
    # that a run without truth labels never needs
    from scipy.optimize import linear_sum_assignment

    counts = contingency_table(pred, truth)
    dim = max(counts.shape)
    padded = np.zeros((dim, dim), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum()) / counts.sum()


def fewshot_accuracy(task_accuracies):
    """Mean per-task accuracy and its 95% normal interval (1.96 * stderr)."""
    acc = np.asarray(task_accuracies, dtype=np.float64)
    if acc.ndim != 1 or acc.size < 1:
        raise DataError("need at least one task accuracy")
    mean = float(acc.mean())
    if acc.size == 1:
        return mean, 0.0
    interval = 1.96 * float(acc.std(ddof=1)) / np.sqrt(acc.size)
    return mean, interval
