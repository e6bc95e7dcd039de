"""The benchmark's own tests: every workload path and the tracer on shrunken
inputs, failure accounting, and that untraced runs call lapclust unwrapped.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lapclust  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _public_functions():
    """Every lapclust module binding of a function defined in lapclust."""
    for layer in tracer.LAYERS:
        importlib.import_module(f"lapclust.{layer}")
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "lapclust" or name.startswith("lapclust.")):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__.startswith("lapclust"):
                    found[(name, attr)] = obj
    return found


WORKLOAD_NAMES = [w["name"] for w in _spec()["workloads"]]


def test_spec_names_resolve():
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    special = {"entry_self_s", "prototypes.update_s", "optimizer.inner_cap_ratio",
               "trace_overhead_ratio", "trace_coverage", *tracer.COUNTERS}
    for metric in _spec()["per_layer"]:
        name = metric["name"]
        if name in special or name[:-2] in tracer.LAYERS:
            continue
        layer, fn = re.sub(r"(_self_s|_s|_calls)$", "", name).split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"lapclust.{layer}"), fn)), name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_contract_result(workload, trace):
    proc = _bench("--workload", workload, "--size", "smoke", "--seconds", "0.2",
                  "--seed", "7", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "1":
        assert values["trace_coverage"] >= 0.9
        # reached only through names imported into optimizer and fewshot
        assert values["prototypes.prototype_scores_calls"] > 0
        assert values["optimizer.neighbor_votes_calls"] > 0
    else:
        assert all(values[m["name"]] > 0 for m in spec["end_to_end"])


def test_wrong_labels_count_as_failed(monkeypatch):
    means = workloads.WORKLOADS["cluster_means_10k"]
    calls = []

    def every_other_run_wrong(inp):
        labels, report, nnz = means.run(inp)
        calls.append(None)
        measured = len(calls) - run.SETUP_REPEATS  # set-up warms up once per repeat
        if measured > 0 and measured % 2 == 0:
            labels = np.zeros_like(labels)
        return labels, report, nnz

    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)  # exactly SETUP_REPEATS warm-ups
    monkeypatch.setitem(workloads.WORKLOADS, "cluster_means_10k",
                        replace(means, run=every_other_run_wrong))
    metrics, info, failures, attempted = run.run_workload(
        "cluster_means_10k", None, 0.3, 0, "smoke")
    assert attempted >= 2
    assert len(failures) == attempted // 2
    assert info["failed_ratio"] == len(failures) / attempted
    assert any("below the floor" in f for f in failures)


def test_untraced_runs_call_lapclust_unwrapped(monkeypatch):
    original = _public_functions()
    assert not any(hasattr(fn, "__wrapped__") for fn in original.values())
    fewshot = workloads.WORKLOADS["fewshot_paper_d640"]
    seen = []

    def recording_run(inp):
        seen.append(lapclust.fewshot.solve is original[("lapclust.fewshot", "solve")])
        return fewshot.run(inp)

    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)  # exactly SETUP_REPEATS warm-ups
    monkeypatch.setitem(workloads.WORKLOADS, "fewshot_paper_d640",
                        replace(fewshot, run=recording_run))
    run.run_workload("fewshot_paper_d640", None, 0.0, 0, "smoke")
    assert seen and all(seen)
    seen.clear()
    run.run_workload("fewshot_paper_d640", None, 0.0, 1, "smoke")
    # set-up warm-ups and the untraced half see originals, the traced half wrappers
    assert seen == [True] * (run.SETUP_REPEATS + 1) + [False]
    after = _public_functions()
    assert after.keys() == original.keys()
    assert all(after[key] is original[key] for key in original)


def test_summary_leaves_out_the_check():
    t = tracer.Tracer()
    with t:
        with t.span(tracer.OP_SPAN):
            lapclust.metrics.nmi(np.array([0, 1]), np.array([0, 1]))
        with t.span(tracer.CHECK_SPAN):
            lapclust.metrics.nmi(np.array([0, 1]), np.array([1, 0]))
            lapclust.metrics.accuracy_hungarian(np.array([0, 1]), np.array([1, 0]))
    assert [s[0] for s in t.spans].count("metrics.nmi") == 2
    summary = tracer.summarize(t.spans, t.counts, 1)
    assert summary["metrics.nmi_calls"] == 1
    assert summary["metrics.accuracy_hungarian_calls"] == 0
    assert summary["metrics_s"] == summary["metrics.nmi_s"] > 0


def test_episode_generator_matches_lapclust():
    X, task, truth = workloads.synthetic_episode(5, 32, seed=11)
    X2, task2, truth2 = lapclust.generate_synthetic_episode(5, 5, 15, 32, 6.0, seed=11)
    assert np.array_equal(X, X2) and task == task2 and np.array_equal(truth, truth2)


def test_refuses_to_run_without_the_program():
    bare = BENCH / "out" / f"bare-{os.getpid()}"  # holds only BENCHMARK.json and perfbench/
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        proc = _bench("--workload", "cluster_means_10k", "--size", "smoke", "--seconds", "1",
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
