"""Benchmark entry point: run one workload and print its result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the root of a checkout; the program is imported from ``src/``. The
load is a closed loop: one operation at a time, from this single process. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, and a ``record:`` line holds the run record. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed
# (at most SETUP_MAX_REPEATS times), so that its median rests on many samples.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 5, 4.0, 41


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap BLAS/OpenMP threads at nproc before numpy loads; returns the cap."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, cap))
        except ValueError:
            value = cap
        os.environ[var] = str(max(1, min(value, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    """Import lapclust from this checkout's src/, and from nowhere else."""
    package = SRC / "lapclust"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no lapclust package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lapclust

    if Path(lapclust.__file__).resolve().parent != package.resolve():
        raise BenchError(f"lapclust was imported from {lapclust.__file__}, not {package}")


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def run_record(workload, seed, size, blas_cap):
    import numpy as np
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "lapclust").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "workload": workload, "seed": seed, "size": size, "git_commit": commit,
        "src_sha256": src_hash.hexdigest(), "nproc": nproc(),
        "blas": {**blas_info(), "thread_cap": blas_cap},
        "numpy": np.__version__, "scipy": scipy.__version__, "python": sys.version.split()[0],
        "note": "lapclust's --threads flag is parsed and ignored by the program, "
                "so the benchmark does not vary it",
    }


def setup_inputs(workload, seed, size, work_dir):
    """Make the inputs once, untimed; then set up repeatedly (file writes and a
    warm-up operation on smoke-size inputs), timing each. Keeps the last inputs."""
    prepared = workload.prepare(seed, size)
    warm_prepared = workload.prepare(seed, "smoke")
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        warm_dir = work_dir / "warm"
        warm_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = workload.setup(prepared, str(work_dir))
        warm = workload.setup(warm_prepared, str(warm_dir))
        try:
            workload.check(warm, workload.run(warm))
        except Exception as exc:
            raise BenchError(f"warm-up operation failed: {exc!r}") from exc
        times.append(time.perf_counter() - t0)
    return inputs, times


def measure(workload, inputs, seconds, tracer=None):
    """Closed loop: repeat the operation until ``seconds`` have passed (at least once)."""

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    samples, outcomes, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            t0 = time.perf_counter()
            with span(tr.OP_SPAN):
                raw = workload.run(inputs)
            elapsed = time.perf_counter() - t0
            with span(tr.CHECK_SPAN):
                outcome = workload.check(inputs, raw)
        except Exception:  # a failing operation is counted, and the loop goes on
            failures.append(traceback.format_exc())
            continue
        samples.append(elapsed)
        outcomes.append(outcome)
    return samples, outcomes, failures, attempted


def load_spec():
    """BENCHMARK.json at the checkout root: the workloads and metrics it names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def units(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(name, seed, seconds, trace, size):
    """Set up, measure and check one workload; returns (metrics, info, failures, attempted)."""
    from workloads import WORKLOADS, labels_sha256

    workload = WORKLOADS[name]
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        inputs, setup_times = setup_inputs(workload, seed, size, work_dir)
        if trace:
            plain = measure(workload, inputs, seconds / 2)
            tracer = tr.Tracer()
            with tracer:
                samples, outcomes, failures, attempted = measure(workload, inputs, seconds / 2, tracer)
            failures = plain[2] + failures
            attempted += plain[3]
            checked = plain[1] + outcomes
        else:
            samples, outcomes, failures, attempted = measure(workload, inputs, seconds)
            checked = outcomes
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not outcomes:
        sys.stderr.write(failures[0])
        raise BenchError(f"{name}: every operation failed")
    if trace and not plain[1]:
        sys.stderr.write(plain[2][0])
        raise BenchError(f"{name}: every untraced operation failed")
    first = outcomes[0]
    digest = labels_sha256(checked[0].labels)
    failures += [f"operation {i}: labels differ from the first operation's"
                 for i, o in enumerate(checked) if labels_sha256(o.labels) != digest]
    info = {"ops_attempted": attempted, "failed_ratio": len(failures) / attempted,
            "labels_sha256": digest, "wall_samples_s": samples, **first.info}
    if first.requests_s:
        requests = [r for o in outcomes for r in o.requests_s]
        info.update(episode_ms_p50=statistics.median(requests) * 1e3,
                    episode_ms_p95=statistics.quantiles(requests, n=20, method="inclusive")[-1] * 1e3,
                    episode_samples=len(requests))

    if trace:
        metrics = tr.summarize(tracer.spans, tracer.counts, len(samples))
        metrics["trace_overhead_ratio"] = (statistics.median(samples)
                                           / statistics.median(plain[0]) - 1.0)
        metrics["trace_coverage"] = tr.top_level_coverage(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tag = "default" if seed is None else seed
        with open(OUT_DIR / f"spans-{name}-seed{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(samples),
            "nmi": first.nmi,
            "accuracy": first.accuracy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return metrics, info, failures, attempted


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(name, metrics, units, info, failures, attempted):
    """Human-readable lines, the run record, then the one-line JSON result."""
    try:
        metrics = {key: metrics[key] for key in units}
    except KeyError as exc:
        raise BenchError(f"no value for the BENCHMARK.json metric {exc}") from None
    for key in units:
        print(f"{name}  {key} = {_fmt(metrics[key])} {units[key]}")
    summary = {"failed_ratio": "ratio", "ops_attempted": "count", "objective_E": "objective",
               "episode_ms_p50": "ms", "episode_ms_p95": "ms", "episodes_per_s": "1/s"}
    for key, unit in summary.items():
        if key in info:
            print(f"{name}  {key} = {_fmt(info[key])} {unit}")
    for failure in failures:
        sys.stderr.write(f"{name}: failed operation:\n{failure}\n")
    print("record: " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(args, names):
    """Each workload in its own child process, so peak memory is per workload."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record: ")))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*names, "all"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed; omitted, the workloads use the acceptance-test inputs")
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end ones")
    p.add_argument("--size", choices=("bench", "smoke"), default="bench",
                   help="smoke: seconds-long inputs for tests")
    return p.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    blas_cap = cap_blas_threads()
    try:
        import_program()
        if args.workload == "all":
            return run_all(args, names)
        metrics, info, failures, attempted = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.size)
        info["record"] = run_record(args.workload, args.seed, args.size, blas_cap)
        print_result(args.workload, metrics, units(spec, "per_layer" if args.trace else "end_to_end"),
                     info, failures, attempted)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
