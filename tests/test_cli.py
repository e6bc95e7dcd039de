"""Command-line front end: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from lapclust import generate_synthetic_episode, save_features, save_labels, save_task
from lapclust.cli import main


@pytest.fixture
def blob_data(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal([0, 0], 0.1, size=(20, 2))
    b = rng.normal([10, 0], 0.1, size=(20, 2))
    X = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    fpath = tmp_path / "features.csv"
    lpath = tmp_path / "labels.txt"
    save_features(X, fpath)
    save_labels(labels, lpath)
    return fpath, lpath


def test_cluster_two_blobs_perfect(blob_data, tmp_path):
    fpath, lpath = blob_data
    out = tmp_path / "out"
    code = main(["cluster", "--features", str(fpath), "--labels", str(lpath),
                 "--k", "2", "--algo", "slk-means", "--lambda", "0.5",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["acc"] == 1.0
    assert report["nmi"] == pytest.approx(1.0, abs=1e-12)
    assert (out / "assignments.csv").exists()
    assert (out / "trace.csv").read_text().startswith("iteration,relaxed_objective")
    assert (out / "config.json").exists()


def test_cluster_kmeans_rejects_lambda(blob_data, tmp_path):
    fpath, _ = blob_data
    code = main(["cluster", "--features", str(fpath), "--k", "2",
                 "--algo", "kmeans", "--lambda", "0.5", "--out-dir", str(tmp_path / "o")])
    assert code == 1


def test_cluster_same_seed_byte_identical(blob_data, tmp_path):
    fpath, lpath = blob_data
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["cluster", "--features", str(fpath), "--labels", str(lpath),
                     "--k", "2", "--algo", "slk-means", "--seed", "7",
                     "--out-dir", str(out)]) == 0
        outs.append(out)
    for artifact in ("assignments.csv", "trace.csv", "report.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_cluster_missing_file_exit_2(tmp_path):
    code = main(["cluster", "--features", str(tmp_path / "nope.csv"), "--k", "2",
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_usage_error_exit_1():
    assert main(["cluster"]) == 1
    assert main(["cluster", "--features", "x.csv", "--k", "2", "--algo", "bogus"]) == 1


def test_strict_escalates_warnings(tmp_path):
    # overlapping data plus an unreachable inner tolerance forces inner_max warnings
    rng = np.random.default_rng(0)
    fpath = tmp_path / "f.csv"
    save_features(rng.standard_normal((60, 2)), fpath)
    code = main(["cluster", "--features", str(fpath), "--k", "3",
                 "--algo", "slk-means", "--lambda", "5.0", "--inner-tol", "1e-18",
                 "--strict", "--out-dir", str(tmp_path / "s")])
    assert code == 3


def test_trace_subcommand(blob_data, tmp_path):
    fpath, _ = blob_data
    out = tmp_path / "t"
    assert main(["trace", "--features", str(fpath), "--k", "2",
                 "--algo", "slk-means", "--out-dir", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,relaxed_objective,inner_iters"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(values, values[1:]))


@pytest.fixture
def episode_batch(tmp_path):
    rng_paths = []
    feats = []
    offset = 0
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    all_truth = []
    for i in range(4):
        X, task, truth = generate_synthetic_episode(3, 1, 5, 6, 6.0, seed=i)
        from lapclust import TaskSpec
        shifted = TaskSpec(
            k_way=task.k_way,
            support=tuple((p + offset, c) for p, c in task.support),
            queries=tuple(q + offset for q in task.queries),
        )
        save_task(shifted, tasks_dir / f"e{i}.task")
        feats.append(X)
        all_truth.append((shifted.queries, truth))
        offset += X.shape[0]
    X_all = np.vstack(feats)
    fpath = tmp_path / "features.csv"
    save_features(X_all, fpath)
    labels = np.zeros(X_all.shape[0], dtype=np.int64)
    for queries, truth in all_truth:
        labels[list(queries)] = truth
    lpath = tmp_path / "labels.txt"
    save_labels(labels, lpath)
    return fpath, lpath, tasks_dir


def test_fewshot_batch_summary_consistent(episode_batch, tmp_path):
    fpath, lpath, tasks_dir = episode_batch
    out = tmp_path / "fs"
    code = main(["fewshot", "--features", str(fpath), "--labels", str(lpath),
                 "--episodes", str(tasks_dir), "--algo", "slk-means",
                 "--lambda", "0.5", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "episodes.csv").read_text().splitlines()
    assert lines[0] == "episode_id,accuracy,wall_time,outer_iters"
    accs = [float(ln.split(",")[1]) for ln in lines[1:]]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_episodes"] == 4
    assert summary["mean_accuracy"] == pytest.approx(float(np.mean(accs)), abs=1e-12)


def test_fewshot_zero_queries_na(tmp_path):
    X = np.array([[0.0, 0.0], [5.0, 5.0]])
    fpath = tmp_path / "f.csv"
    save_features(X, fpath)
    from lapclust import TaskSpec
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    save_task(TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=()),
              tasks_dir / "e0.task")
    out = tmp_path / "fs"
    code = main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir),
                 "--algo", "slk-means", "--out-dir", str(out)])
    assert code == 0
    assert ",n/a," in (out / "episodes.csv").read_text().splitlines()[1]
    assert json.loads((out / "summary.json").read_text())["mean_accuracy"] is None


def test_eval_identical_and_permuted(tmp_path, capsys):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_labels([0, 1, 0, 1], p1)
    save_labels([0, 1, 0, 1], p2)
    assert main(["eval", "--pred", str(p1), "--truth", str(p2)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nmi"] == 1.0 and out["acc"] == 1.0

    save_labels([1, 0, 1, 0], p1)
    assert main(["eval", "--pred", str(p1), "--truth", str(p2)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["acc"] == 1.0


def test_eval_hand_contingency(tmp_path, capsys):
    # contingency [[2,1],[1,2]]: pred 0 on {t0,t0,t1}, pred 1 on {t0,t1,t1}
    pred = [0, 0, 0, 1, 1, 1]
    truth = [0, 0, 1, 0, 1, 1]
    p1 = tmp_path / "p.txt"
    p2 = tmp_path / "t.txt"
    save_labels(pred, p1)
    save_labels(truth, p2)
    assert main(["eval", "--pred", str(p1), "--truth", str(p2)]) == 0
    out = json.loads(capsys.readouterr().out)
    n = 6
    hp = ht = -2 * (0.5 * np.log(0.5))
    mi = sum(c / n * np.log((c / n) / (0.5 * 0.5)) for c in (2, 1, 1, 2))
    assert out["nmi"] == pytest.approx(mi / np.sqrt(hp * ht), abs=1e-12)
    assert out["acc"] == pytest.approx(4 / 6, abs=1e-12)


@pytest.mark.parametrize("algo", ["slk-ms", "kmodes"])
def test_modes_cluster_searches_once(blob_data, tmp_path, neighbor_searches, algo):
    fpath, _ = blob_data
    assert main(["cluster", "--features", str(fpath), "--k", "2", "--algo", algo,
                 "--rho", "4", "--out-dir", str(tmp_path / "ms")]) == 0
    assert neighbor_searches == [4]


def test_slk_ms_end_to_end(blob_data, tmp_path):
    fpath, lpath = blob_data
    out = tmp_path / "ms"
    code = main(["cluster", "--features", str(fpath), "--labels", str(lpath),
                 "--k", "2", "--algo", "slk-ms", "--lambda", "0.3",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["acc"] == 1.0
