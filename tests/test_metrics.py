"""Evaluation metrics: NMI, Hungarian-matched accuracy, episode aggregates."""

import itertools

import numpy as np
import pytest

from lapclust import accuracy_hungarian, contingency_table, fewshot_accuracy, nmi
from lapclust.errors import DataError


def nmi_by_hand(counts):
    """Direct entropy computation on a contingency table, natural logs."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    pi, pj = counts.sum(axis=1) / n, counts.sum(axis=0) / n
    hp = -sum(p * np.log(p) for p in pi if p > 0)
    ht = -sum(p * np.log(p) for p in pj if p > 0)
    mi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j] > 0:
                pij = counts[i, j] / n
                mi += pij * np.log(pij / (pi[i] * pj[j]))
    return mi / np.sqrt(hp * ht)


def labels_from_table(counts):
    pred, truth = [], []
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            pred.extend([i] * counts[i, j])
            truth.extend([j] * counts[i, j])
    return np.array(pred), np.array(truth)


def hungarian_by_enumeration(pred, truth):
    counts = contingency_table(pred, truth)
    dim = max(counts.shape)
    padded = np.zeros((dim, dim), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    best = max(
        sum(padded[i, perm[i]] for i in range(dim))
        for perm in itertools.permutations(range(dim))
    )
    return best / counts.sum()


def test_contingency_counts():
    table = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    np.testing.assert_array_equal(table, [[1, 1], [0, 2]])


def test_contingency_rejects_mismatch():
    with pytest.raises(DataError):
        contingency_table([0, 1], [0])


def test_nmi_identical():
    assert nmi([0, 1, 0, 1], [0, 1, 0, 1]) == pytest.approx(1.0)


def test_nmi_relabel_invariant():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    assert nmi(pred, truth) == pytest.approx(1.0)


def test_nmi_hand_contingency():
    pred, truth = labels_from_table(np.array([[2, 1], [1, 2]]))
    assert nmi(pred, truth) == pytest.approx(nmi_by_hand([[2, 1], [1, 2]]), abs=1e-12)


def test_nmi_degenerate_cases():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [0, 0, 0]) == 0.0


def test_nmi_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.integers(3, size=30)
        b = rng.integers(4, size=30)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-14)


def test_nmi_permutation_invariance_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pred = rng.integers(4, size=40)
        truth = rng.integers(3, size=40)
        perm = rng.permutation(4)
        assert nmi(perm[pred], truth) == pytest.approx(nmi(pred, truth), abs=1e-12)


def test_acc_identical_and_swapped():
    assert accuracy_hungarian([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
    assert accuracy_hungarian([1, 0, 1, 0], [0, 1, 0, 1]) == 1.0


def test_acc_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(30):
        kp, kt = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        n = int(rng.integers(10, 50))
        pred = rng.integers(kp, size=n)
        truth = rng.integers(kt, size=n)
        assert accuracy_hungarian(pred, truth) == pytest.approx(
            hungarian_by_enumeration(pred, truth), abs=1e-15)


def test_acc_beats_identity_mapping():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pred = rng.integers(4, size=40)
        truth = rng.integers(4, size=40)
        identity = float(np.mean(pred == truth))
        assert accuracy_hungarian(pred, truth) >= identity - 1e-15


def test_acc_permutation_invariance():
    rng = np.random.default_rng(4)
    pred = rng.integers(5, size=60)
    truth = rng.integers(5, size=60)
    perm = rng.permutation(5)
    assert accuracy_hungarian(perm[pred], truth) == pytest.approx(
        accuracy_hungarian(pred, truth), abs=1e-15)


def test_fewshot_single_task():
    assert fewshot_accuracy([1.0]) == (1.0, 0.0)


def test_fewshot_two_tasks():
    mean, interval = fewshot_accuracy([1.0, 0.0])
    assert mean == 0.5
    assert interval == pytest.approx(1.96 * np.std([1.0, 0.0], ddof=1) / np.sqrt(2))


def test_fewshot_simulation_cross_check():
    rng = np.random.default_rng(5)
    accs = rng.binomial(15, 0.8, size=600) / 15.0
    mean, interval = fewshot_accuracy(accs)
    assert mean == pytest.approx(float(accs.mean()), abs=1e-15)
    assert interval == pytest.approx(1.96 * float(accs.std(ddof=1)) / np.sqrt(600), abs=1e-15)
    assert abs(mean - 0.8) < 3 * interval


def test_fewshot_empty_rejected():
    with pytest.raises(DataError):
        fewshot_accuracy([])


@pytest.mark.parametrize("metric", [nmi, accuracy_hungarian, contingency_table])
def test_non_integer_labels_rejected(metric):
    # a cast to int64 would truncate these to a perfect match
    with pytest.raises(DataError, match=r"^truth must hold integers, got dtype float64$"):
        metric([0, 0, 1, 1], [0.2, 0.7, 1.9, 1.1])
    with pytest.raises(DataError, match=r"^pred must hold integers, got dtype float64$"):
        metric(np.array([0.0, 0.0, 1.0, 1.0]), [0, 0, 1, 1])
    metric(np.array([0, 0, 1, 1], dtype=np.uint8), [0, 0, 1, 1])


@pytest.mark.parametrize("metric", [nmi, accuracy_hungarian, contingency_table])
def test_negative_labels_rejected(metric):
    # a -1 would index the last row or column of the contingency table
    for pred, truth in (([0, -1, 1], [0, 1, 1]), ([0, 1, 1], [0, 1, -1])):
        with pytest.raises(DataError, match=r"^labels must be non-negative$"):
            metric(pred, truth)


def test_boolean_labels_are_zero_and_one():
    # a boolean cannot be truncated, so it is read exactly, as 0 and 1
    pred, truth = np.array([False, False, True, True]), np.array([1, 1, 0, 0])
    np.testing.assert_array_equal(contingency_table(pred, truth), [[0, 2], [2, 0]])
    assert nmi(pred, truth) == nmi([0, 0, 1, 1], truth)
    assert accuracy_hungarian(pred, truth) == 1.0
