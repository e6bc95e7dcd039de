"""Command-line front end: artifacts, exit codes, determinism."""

import argparse
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from lapclust import (ModeSolverConfig, cli, generate_synthetic_episode, load_features, optimizer,
                      save_features, save_labels, save_task)
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


@pytest.mark.parametrize("outer_max, reason", [(100, "tolerance"), (1, "outer_max")])
def test_cluster_report_says_why_the_outer_loop_stopped(blob_data, tmp_path, monkeypatch,
                                                        outer_max, reason):
    # no flag sets outer_max, so the test lowers it on the way into solve
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda X, W, M0, cfg: solve(
        X, W, M0, dataclasses.replace(cfg, outer_max=outer_max)))
    fpath, lpath = blob_data
    out = tmp_path / "out"
    assert main(["cluster", "--features", str(fpath), "--labels", str(lpath), "--k", "2",
                 "--algo", "slk-means", "--lambda", "0.5", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == reason
    assert (report["iters"] == 1) == (reason == "outer_max")


def test_cluster_missing_file_exit_2(tmp_path):
    code = main(["cluster", "--features", str(tmp_path / "nope.csv"), "--k", "2",
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_usage_error_exit_1():
    assert main(["cluster"]) == 1
    assert main(["cluster", "--features", "x.csv", "--k", "2", "--algo", "bogus"]) == 1


def test_strict_escalates_warnings(tmp_path):
    # uniform data, whose prototypes settle slowly, and an outer tolerance that
    # only an unchanged objective meets force the outer_max warning
    rng = np.random.default_rng(0)
    fpath = tmp_path / "f.csv"
    save_features(rng.uniform(size=(500, 2)), fpath)
    argv = ["cluster", "--features", str(fpath), "--k", "6", "--algo", "slk-means",
            "--lambda", "1.0", "--outer-tol", "1e-300", "--out-dir", str(tmp_path / "s")]
    assert main(argv + ["--strict"]) == 3
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["warnings"] == ["outer loop hit outer_max=100"]
    assert main(argv) == 0


def test_spent_inner_budget_is_counted_not_warned(tmp_path):
    rng = np.random.default_rng(0)
    fpath = tmp_path / "f.csv"
    save_features(rng.standard_normal((60, 2)), fpath)
    code = main(["cluster", "--features", str(fpath), "--k", "3",
                 "--algo", "slk-means", "--lambda", "5.0", "--inner-tol", "1e-18",
                 "--strict", "--out-dir", str(tmp_path / "s")])
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert code == 0 and report["warnings"] == []
    assert report["inner_cap_hits"] == report["iters"] > 0


def test_spent_mode_budget_is_counted_not_warned(tmp_path):
    rng = np.random.default_rng(0)
    fpath = tmp_path / "f.csv"
    save_features(rng.standard_normal((60, 2)), fpath)
    code = main(["cluster", "--features", str(fpath), "--k", "3", "--algo", "slk-ms",
                 "--strict", "--out-dir", str(tmp_path / "s")])
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert code == 0 and report["warnings"] == []
    assert report["mode_cap_hits"] > 0
    assert np.isfinite(report["objective"])


def test_the_hard_refits_warnings_reach_the_report(tmp_path, monkeypatch):
    # the run above, with the re-fit's mean-shift capped at one step: every
    # cluster spends it, and --strict escalates the re-fit's one warning
    monkeypatch.setattr(optimizer, "ModeSolverConfig", lambda sigma2, max_iters=1:
                        ModeSolverConfig(sigma2=sigma2, max_iters=max_iters))
    rng = np.random.default_rng(0)
    fpath = tmp_path / "f.csv"
    save_features(rng.standard_normal((60, 2)), fpath)
    argv = ["cluster", "--features", str(fpath), "--k", "3", "--algo", "slk-ms",
            "--out-dir", str(tmp_path / "s")]
    assert main(argv + ["--strict"]) == 3
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["warnings"] == ["hard re-fit: mode solver hit max_iters=1 in 3 cluster(s)"]
    assert main(argv) == 0


def test_trace_subcommand(blob_data, tmp_path):
    fpath, _ = blob_data
    out = tmp_path / "t"
    assert main(["trace", "--features", str(fpath), "--k", "2",
                 "--algo", "slk-means", "--out-dir", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,relaxed_objective,inner_iters"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("delta", [None, "0.5"])
@pytest.mark.parametrize("algo", ["slk-means", "slk-ms"])
def test_trace_is_the_cluster_run_without_assignments_and_report(tmp_path, algo, delta):
    # overlapping points keep soft rows, and both commands take the same run
    rng = np.random.default_rng(0)
    fpath, lpath = tmp_path / "f.csv", tmp_path / "labels.txt"
    save_features(rng.standard_normal((60, 2)), fpath)
    save_labels(rng.integers(0, 3, size=60), lpath)
    flags = ["--features", str(fpath), "--k", "3", "--algo", algo, "--seed", "5"]
    flags += ["--delta", delta] if delta else []
    cluster, trace = tmp_path / "cluster", tmp_path / "trace"
    assert main(["cluster", *flags, "--labels", str(lpath), "--soft",
                 "--out-dir", str(cluster)]) == 0
    assert main(["trace", *flags, "--out-dir", str(trace)]) == 0
    assert sorted(p.name for p in cluster.iterdir()) == ["assignments.csv", "config.json",
                                                         "report.json", "trace.csv"]
    assert sorted(p.name for p in trace.iterdir()) == ["config.json", "trace.csv"]
    assert (trace / "trace.csv").read_bytes() == (cluster / "trace.csv").read_bytes()
    configs = [json.loads((out / "config.json").read_text()) for out in (cluster, trace)]
    differing = {key for key in configs[0].keys() | configs[1].keys()
                 if configs[0].get(key, "absent") != configs[1].get(key, "absent")}
    assert differing == {"command", "out_dir", "labels", "soft"}
    assert "labels" not in configs[1] and "soft" not in configs[1]


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


def test_fewshot_episode_list_file_is_the_directory(episode_batch, tmp_path):
    # --episodes also takes a file of task paths, one a line; blank lines are skipped
    fpath, lpath, tasks_dir = episode_batch
    paths = sorted(str(p) for p in tasks_dir.glob("*.task"))
    list_file = tmp_path / "episodes.txt"
    list_file.write_text("\n".join(paths[:2] + [""] + paths[2:]) + "\n")
    runs = []
    for spec in (tasks_dir, list_file):
        out = tmp_path / f"fs_{spec.name}"
        assert main(["fewshot", "--features", str(fpath), "--labels", str(lpath),
                     "--episodes", str(spec), "--algo", "slk-means", "--lambda", "0.5",
                     "--out-dir", str(out)]) == 0
        lines = (out / "episodes.csv").read_text().splitlines()[1:]
        summary = json.loads((out / "summary.json").read_text())
        runs.append(([ln.split(",")[:2] for ln in lines],
                     [summary[f] for f in ("n_episodes", "mean_accuracy", "interval95")]))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 4


def test_fewshot_empty_episode_directory_exits_2(blob_data, tmp_path, capsys):
    fpath, _ = blob_data
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    code = main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir),
                 "--algo", "slk-means", "--out-dir", str(tmp_path / "fs")])
    assert code == 2
    assert "no episode task files found" in capsys.readouterr().err


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


@pytest.mark.parametrize("algo", ["slk-means", "slk-ms", "kmodes"])
def test_cluster_centers_features_once(blob_data, tmp_path, centered_builds, algo):
    fpath, _ = blob_data
    assert main(["cluster", "--features", str(fpath), "--k", "2", "--algo", algo,
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert centered_builds == [(40, 2)]


@pytest.mark.parametrize("fmt", ["csv", "slkbin"])
def test_cluster_checks_loaded_features_once(blob_data, tmp_path, feature_validations, fmt):
    # the CSV reader checks each row as it parses it; an slkbin file is checked whole
    # once; the run builds its CenteredFeatures without checking the matrix again
    X = np.loadtxt(blob_data[0], delimiter=",")
    fpath = tmp_path / f"features.{fmt}"
    save_features(X, fpath)
    feature_validations.clear()
    assert main(["cluster", "--features", str(fpath), "--k", "2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert feature_validations == {"csv": [], "slkbin": [(40, 2)]}[fmt]


def test_fewshot_has_no_delta_flag(episode_batch, tmp_path, capsys):
    fpath, _, tasks_dir = episode_batch
    code = main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir),
                 "--delta", "1", "--out-dir", str(tmp_path / "fs")])
    assert code == 1
    assert "error: unrecognized arguments: --delta 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, has_seed", [("cluster", True), ("trace", True),
                                               ("fewshot", False)])
def test_seed_is_a_cluster_flag(capsys, command, has_seed):
    # an episode starts from its supports; nothing of it is seeded
    assert main([command, "--help"]) == 0
    assert ("--seed" in capsys.readouterr().out) == has_seed


@pytest.mark.parametrize("command", ["cluster", "trace"])
def test_delta_shifts_the_cluster_graph(tmp_path, command):
    # overlapping points keep soft rows, where the shift changes the objective
    fpath = tmp_path / "f.csv"
    save_features(np.random.default_rng(0).standard_normal((60, 2)), fpath)
    traces = []
    for delta in ("0", "3"):
        out = tmp_path / delta
        assert main([command, "--features", str(fpath), "--k", "3", "--delta", delta,
                     "--out-dir", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["delta"] == float(delta)
        traces.append((out / "trace.csv").read_text())
    assert traces[0] != traces[1]


def _run_argv(command, episode_batch, out):
    """argv of a slk-ms run with lambda > 0 and truth labels (eval: the labels twice)."""
    fpath, lpath, tasks_dir = map(str, episode_batch)
    if command == "eval":
        return ["eval", "--pred", lpath, "--truth", lpath]
    if command == "fewshot":
        argv = ["fewshot", "--features", fpath, "--episodes", tasks_dir, "--labels", lpath]
    else:
        argv = [command, "--features", fpath, "--k", "3"]
        argv += ["--labels", lpath] if command == "cluster" else []
    return argv + ["--algo", "slk-ms", "--lambda", "0.5", "--out-dir", str(out)]


@pytest.mark.parametrize("command", ["cluster", "trace", "fewshot", "eval"])
def test_every_parsed_flag_is_read(episode_batch, tmp_path, monkeypatch, command):
    # a flag that nothing reads changes no result
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    argv = _run_argv(command, episode_batch, tmp_path / "out")
    args = Recorder(**vars(cli.build_parser().parse_args(argv)))
    monkeypatch.setattr(cli, "build_parser", lambda: SimpleNamespace(parse_args=lambda _: args))
    assert main(argv) == 0
    assert sorted(set(vars(args)) - reads) == []


def _sym_argv(command, episode_batch, out, sym):
    fpath, _, tasks_dir = map(str, episode_batch)
    if command == "fewshot":
        return ["fewshot", "--features", fpath, "--episodes", tasks_dir,
                "--sym", sym, "--out-dir", str(out)]
    return [command, "--features", fpath, "--k", "2", "--sym", sym, "--out-dir", str(out)]


def _sym_result(command, out):
    """What a run decides: its labels and trace, without wall times or the echoed flags."""
    if command == "fewshot":
        rows = (out / "episodes.csv").read_text().splitlines()
        return [row.split(",")[:2] + row.split(",")[3:] for row in rows]
    names = ["trace.csv"] if command == "trace" else ["assignments.csv", "trace.csv"]
    return [(out / name).read_bytes() for name in names]


@pytest.mark.parametrize("lam", [None, "0.5"])
@pytest.mark.parametrize("command", ["cluster", "trace", "fewshot"])
def test_sym_none_with_positive_lambda_is_a_config_error(episode_batch, tmp_path, capsys,
                                                         command, lam):
    # a non-symmetric graph voids the bound's monotone descent; argparse
    # rejects --sym none at any lambda, before a file is read
    out = tmp_path / "out"
    argv = _sym_argv(command, episode_batch, out, "none") + ["--algo", "slk-ms"]
    if lam is not None:
        argv += ["--lambda", lam]
    assert main(argv) == 1
    assert "argument --sym: invalid choice: 'none' (choose from" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo, lam", [("kmeans", None), ("kmodes", None), ("slk-means", "0")])
@pytest.mark.parametrize("command", ["cluster", "trace", "fewshot"])
def test_sym_none_without_lambda_is_accepted(episode_batch, tmp_path, capsys,
                                             command, algo, lam):
    # --sym none served only lambda = 0, where no edge is read: those runs are
    # accepted with either remaining mode and decide the same, and none is gone
    results = []
    for sym in ("max", "mean", "none"):
        out = tmp_path / sym
        argv = _sym_argv(command, episode_batch, out, sym) + ["--algo", algo]
        if lam is not None:
            argv += ["--lambda", lam]
        assert main(argv) == (1 if sym == "none" else 0)
        if sym != "none":
            results.append(_sym_result(command, out))
    assert results[0] == results[1]
    assert "argument --sym: invalid choice: 'none'" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("flag", ["--lambda", "--inner-tol", "--outer-tol", "--delta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_solver_flags_are_data_errors(blob_data, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["cluster", "--features", str(blob_data[0]), "--k", "2", flag, value,
                 "--out-dir", str(out)]) == 2
    what = {"--lambda": "lambda", "--delta": "diag_shift"}.get(flag, "tolerances")
    assert f"data error: {what} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("command", ["cluster", "fewshot"])
def test_labels_must_match_the_feature_rows(episode_batch, tmp_path, capsys,
                                            neighbor_searches, command, extra):
    lpath = episode_batch[1]
    labels = np.loadtxt(lpath, dtype=np.int64)
    save_labels(np.resize(labels, labels.size + extra), lpath)
    out = tmp_path / "out"
    assert main(_run_argv(command, episode_batch, out)) == 2
    assert f"{labels.size + extra} labels for {labels.size} feature rows" in capsys.readouterr().err
    assert neighbor_searches == []
    assert not out.exists()


def test_fewshot_bad_task_entry_is_a_data_error(episode_batch, tmp_path, capsys):
    tasks_dir = episode_batch[2]
    (tasks_dir / "e9.task").write_text("kway=2\nsupport=0:0,1:1,x:2\nquery=3\n")
    assert main(_run_argv("fewshot", episode_batch, tmp_path / "out")) == 2
    assert "e9.task: bad support entry 'x:2'" in capsys.readouterr().err


def test_fewshot_zero_norm_row_is_named_at_its_row_in_x(tmp_path, capsys):
    X = np.random.default_rng(11).standard_normal((30, 4))
    fpath, mpath = tmp_path / "f.csv", tmp_path / "base_mean.csv"
    save_features(X, fpath)
    save_features(X[17:18], mpath)  # CL2 centered on support row 17 leaves it at norm 0
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    (tasks_dir / "e0.task").write_text("kway=2\nsupport=17:0,3:1\nquery=5,9,21\n")
    assert main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir), "--cl2",
                 "--base-mean", str(mpath), "--out-dir", str(tmp_path / "out")]) == 2
    assert "data error: row 17 has zero norm after centering" in capsys.readouterr().err


def test_base_mean_without_cl2_is_a_config_error(episode_batch, tmp_path, capsys,
                                                 neighbor_searches):
    fpath, _, tasks_dir = episode_batch
    mpath = tmp_path / "base_mean.csv"
    save_features(np.zeros((1, 6)), mpath)
    argv = ["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir),
            "--base-mean", str(mpath)]
    out = tmp_path / "out"
    assert main(argv + ["--bias", "--out-dir", str(out)]) == 1
    assert "config error: a base mean is read only by CL2 normalization" in capsys.readouterr().err
    assert neighbor_searches == []
    assert not out.exists()
    assert main(argv + ["--cl2", "--out-dir", str(out)]) == 0
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("base, scaled_row, message", [
    (np.full((2, 6), 1e308), None, "base mean must be finite"),
    (np.zeros((1, 6)), 4, "row 4 has a norm that overflows float64 after centering"),
])
def test_base_mean_or_row_that_overflows_is_a_data_error(episode_batch, tmp_path, capsys,
                                                         neighbor_searches, base, scaled_row,
                                                         message):
    # the mean of the 1e308 rows overflows; numpy's warning would be an error here
    fpath, _, tasks_dir = episode_batch
    if scaled_row is not None:
        X = load_features(fpath)
        X[scaled_row] *= 1e200
        save_features(X, fpath)
    mpath = tmp_path / "base_mean.csv"
    save_features(base, mpath)
    assert main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir), "--cl2",
                 "--base-mean", str(mpath), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert neighbor_searches == []


def _recorded_base_means(monkeypatch):
    """The base mean of every episode that cli runs while the test runs."""
    seen = []
    run = cli.run_episode

    def recording(task, X, pre, cfg, **kwargs):
        seen.append(pre.base_mean)
        return run(task, X, pre, cfg, **kwargs)

    monkeypatch.setattr(cli, "run_episode", recording)
    return seen


@pytest.mark.parametrize("d, shape", [(6, (5, 6)), (6, (1, 6)), (6, (6, 1)),
                                      (1, (7, 1)), (1, (1, 1))])
def test_base_mean_file_is_read_by_the_feature_width(tmp_path, monkeypatch, d, shape):
    # rows d wide give their mean, and one such row is that row, bitwise; a
    # single column of d values is the mean; at d = 1 a column of 7 is 7 rows
    rng = np.random.default_rng(12)
    base = rng.standard_normal(shape)
    want = base.ravel() if base.size == d else base.mean(axis=0)
    fpath, mpath = tmp_path / "f.csv", tmp_path / "base_mean.slkbin"
    save_features(rng.standard_normal((12, d)), fpath)
    save_features(base, mpath)
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    (tasks_dir / "e0.task").write_text("kway=2\nsupport=0:0,1:1\nquery=2,3,4,5,6,7,8,9,10,11\n")
    seen = _recorded_base_means(monkeypatch)
    assert main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir), "--cl2",
                 "--base-mean", str(mpath), "--out-dir", str(tmp_path / "out")]) == 0
    assert [m.shape for m in seen] == [(d,)]
    assert seen[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(5, 7), (1, 7), (6, 2)])
def test_base_mean_file_of_another_shape_is_a_data_error(episode_batch, tmp_path, capsys,
                                                         neighbor_searches, shape):
    fpath, _, tasks_dir = episode_batch
    mpath = tmp_path / "base_mean.csv"
    save_features(np.ones(shape), mpath)
    out = tmp_path / "out"
    assert main(["fewshot", "--features", str(fpath), "--episodes", str(tasks_dir), "--cl2",
                 "--base-mean", str(mpath), "--out-dir", str(out)]) == 2
    assert (f"data error: base mean file has shape {shape}; expected rows 6 wide (the "
            "feature width) or one column of 6 values") in capsys.readouterr().err
    assert neighbor_searches == []
    assert not out.exists()
