"""Command-line front end.

Subcommands: ``cluster`` (unsupervised run with K-means++ seeding), ``fewshot``
(episode batch), ``eval`` (label-file metrics), ``trace`` (objective trace
only). Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np
import scipy.sparse as sp

from . import io
from .affinity import SparseAffinity, estimate_sigma2, knn_graph, symmetrize
from .errors import ConfigError, LapclustError
from .fewshot import PreprocessConfig, run_episode
from .metrics import accuracy_hungarian, fewshot_accuracy, nmi
from .optimizer import SolverConfig, kmeans_pp_seeds, solve
from .prototypes import Prototypes

ALGOS = {
    "kmeans": ("means", False),
    "kmodes": ("modes", False),
    "slk-means": ("means", True),
    "slk-ms": ("modes", True),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _feature_format(path):
    return "slkbin" if str(path).endswith(".slkbin") else "csv"


def _add_solver_flags(p):
    p.add_argument("--algo", choices=sorted(ALGOS), default="slk-means")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--rho", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=0,
                   help="0 = all cores; results are thread-count invariant")
    p.add_argument("--inner-tol", type=float, default=1e-6)
    p.add_argument("--outer-tol", type=float, default=1e-6)
    p.add_argument("--sym", choices=["max", "mean", "none"], default="max")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the solver reports numerical warnings")
    p.add_argument("--out-dir", default=".")


def build_parser():
    parser = _Parser(prog="lapclust")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="unsupervised clustering run")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--soft", action="store_true", help="also write soft assignment rows")
    _add_solver_flags(p)

    p = sub.add_parser("fewshot", help="run a batch of few-shot episodes")
    p.add_argument("--features", required=True)
    p.add_argument("--episodes", required=True,
                   help="directory of *.task files, or a file listing task paths")
    p.add_argument("--labels", default=None)
    p.add_argument("--base-mean", default=None, help="feature file holding the base-class mean")
    p.add_argument("--cl2", action="store_true")
    p.add_argument("--bias", action="store_true")
    _add_solver_flags(p)

    p = sub.add_parser("eval", help="NMI/ACC between two label files")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)

    p = sub.add_parser("trace", help="clustering run emitting only the objective trace")
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_solver_flags(p)

    return parser


def _resolve_config(args):
    rule, regularized = ALGOS[args.algo]
    if not regularized:
        if args.lam not in (None, 0.0):
            raise ConfigError(f"--algo {args.algo} implies lambda=0, got {args.lam}")
        lam = 0.0
    else:
        lam = 1.0 if args.lam is None else args.lam
    return rule, lam


def _solver_config(args, rule, lam, sigma2=None):
    return SolverConfig(lam=lam, rule=rule, sigma2=sigma2, inner_tol=args.inner_tol,
                        outer_tol=args.outer_tol)


def _echo_config(args, out_dir, extra=None):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    resolved["command"] = args.command
    if extra:
        resolved.update(extra)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_trace(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,relaxed_objective,inner_iters\n")
        for i, (r, ni) in enumerate(zip(report.relaxed_trace, report.inner_iters_per_outer)):
            fh.write(f"{i},{r!r},{ni}\n")


def _run_cluster_solve(args):
    rule, lam = _resolve_config(args)
    X = io.load_features(args.features, format=_feature_format(args.features))
    if lam > 0.0:
        W = symmetrize(knn_graph(X, args.rho), args.sym).with_diag_shift(args.delta)
    else:
        n = X.shape[0]
        W = SparseAffinity(matrix=sp.csr_matrix((n, n)), degrees=np.zeros(n))
    # the graph keeps its search distances; at lambda 0 no graph is searched
    sigma2 = estimate_sigma2(W if lam > 0.0 else X, args.rho) if rule == "modes" else None
    cfg = _solver_config(args, rule, lam, sigma2)
    rng = np.random.default_rng(args.seed)
    M0 = Prototypes(values=kmeans_pp_seeds(X, args.k, rng), rule=rule)
    S, M, report = solve(X, W, M0, cfg)
    return X, S, M, report, cfg


def cmd_cluster(args) -> int:
    X, S, M, report, cfg = _run_cluster_solve(args)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    io.save_assignments(S, os.path.join(out, "assignments.csv"), include_soft=args.soft)
    _write_trace(report, os.path.join(out, "trace.csv"))
    summary = {
        "objective": report.discrete_objective,
        "relaxed_final": report.relaxed_trace[-1],
        "iters": report.outer_iters,
        "warnings": report.warnings,
    }
    if args.labels:
        truth = io.load_labels(args.labels)
        pred = S.hard_labels()
        summary["nmi"] = nmi(pred, truth)
        summary["acc"] = accuracy_hungarian(pred, truth)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config(args, out, extra={"resolved_solver": asdict(cfg)})
    return 3 if (args.strict and report.warnings) else 0


def cmd_trace(args) -> int:
    _, _, _, report, cfg = _run_cluster_solve(args)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    _write_trace(report, os.path.join(out, "trace.csv"))
    _echo_config(args, out, extra={"resolved_solver": asdict(cfg)})
    return 3 if (args.strict and report.warnings) else 0


def _episode_paths(spec):
    if os.path.isdir(spec):
        paths = sorted(
            os.path.join(spec, name) for name in os.listdir(spec) if name.endswith(".task")
        )
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            paths = [ln.strip() for ln in fh if ln.strip()]
    if not paths:
        raise LapclustError(f"no episode task files found under {spec}")
    return paths


def cmd_fewshot(args) -> int:
    rule, lam = _resolve_config(args)
    X = io.load_features(args.features, format=_feature_format(args.features))
    labels = io.load_labels(args.labels) if args.labels else None
    base_mean = None
    if args.base_mean:
        bm = io.load_features(args.base_mean, format=_feature_format(args.base_mean))
        base_mean = bm.ravel() if 1 in bm.shape else bm.mean(axis=0)
    pre = PreprocessConfig(base_mean=base_mean, apply_cl2=args.cl2, apply_bias=args.bias)
    cfg = _solver_config(args, rule, lam)

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    rows = []
    warnings = []
    for episode_id, path in enumerate(_episode_paths(args.episodes)):
        task = io.load_task(path, n_points=X.shape[0])
        truth = labels[list(task.queries)] if labels is not None and task.queries else None
        result = run_episode(task, X, pre, cfg, rho=args.rho, sym=args.sym, truth=truth)
        warnings.extend(result.solve_report.warnings)
        rows.append((episode_id, result.accuracy, result.wall_time,
                     result.solve_report.outer_iters))

    with open(os.path.join(out, "episodes.csv"), "w", encoding="utf-8") as fh:
        fh.write("episode_id,accuracy,wall_time,outer_iters\n")
        for episode_id, acc, wall, iters in rows:
            acc_cell = "n/a" if acc is None else repr(acc)
            fh.write(f"{episode_id},{acc_cell},{wall!r},{iters}\n")

    accs = [acc for _, acc, _, _ in rows if acc is not None]
    if accs:
        mean, interval = fewshot_accuracy(accs)
    else:
        mean, interval = None, None
    summary = {
        "n_episodes": len(rows),
        "mean_accuracy": mean,
        "interval95": interval,
        "mean_wall_time": float(np.mean([w for _, _, w, _ in rows])),
        "warnings": warnings,
    }
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config(args, out, extra={"resolved_solver": asdict(cfg)})
    return 3 if (args.strict and warnings) else 0


def cmd_eval(args) -> int:
    pred = io.load_labels(args.pred)
    truth = io.load_labels(args.truth)
    report = {"nmi": nmi(pred, truth), "acc": accuracy_hungarian(pred, truth)}
    print(json.dumps(report, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"cluster": cmd_cluster, "fewshot": cmd_fewshot,
                "eval": cmd_eval, "trace": cmd_trace}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"lapclust: config error: {exc}", file=sys.stderr)
        return 1
    except LapclustError as exc:
        print(f"lapclust: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lapclust: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
