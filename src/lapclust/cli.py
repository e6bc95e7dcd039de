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
from dataclasses import asdict, replace

import numpy as np
import scipy.sparse as sp

from . import io
from .affinity import SYM_MODES, SparseAffinity, estimate_sigma2, knn_graph, symmetrize
from .errors import ConfigError, LapclustError
from .fewshot import PreprocessConfig, run_episode
from .metrics import accuracy_hungarian, fewshot_accuracy, nmi
from .optimizer import SolverConfig, kmeans_pp_seeds, solve
from .prototypes import CenteredFeatures, Prototypes

ALGOS = {
    "kmeans": ("means", False),
    "kmodes": ("modes", False),
    "slk-means": ("means", True),
    "slk-ms": ("modes", True),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_features(path):
    return io.load_features(path, format="slkbin" if str(path).endswith(".slkbin") else "csv")


def _add_solver_flags(p):
    p.add_argument("--algo", choices=sorted(ALGOS), default="slk-means")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--rho", type=int, default=3)
    p.add_argument("--inner-tol", type=float, default=1e-6)
    p.add_argument("--outer-tol", type=float, default=1e-6)
    p.add_argument("--sym", choices=SYM_MODES, default="max")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the solver reports numerical warnings")
    p.add_argument("--out-dir", default=".")


def _add_cluster_flags(p):
    """Clustering runs only: an episode starts from its supports, unseeded, and
    its graph is never shifted."""
    p.add_argument("--seed", type=int, default=0, help="seed of the K-means++ seeding")
    p.add_argument("--delta", type=float, default=0.0,
                   help="diagonal shift added to the affinity graph")


def build_parser():
    parser = _Parser(prog="lapclust")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="unsupervised clustering run")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--soft", action="store_true", help="also write soft assignment rows")
    _add_solver_flags(p)
    _add_cluster_flags(p)

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
    _add_cluster_flags(p)

    return parser


def _resolve_config(args):
    """The solver flags as a SolverConfig, checked before any file is read; a
    modes run sets sigma2 from its data later."""
    rule, regularized = ALGOS[args.algo]
    if not regularized:
        if args.lam not in (None, 0.0):
            raise ConfigError(f"--algo {args.algo} implies lambda=0, got {args.lam}")
        lam = 0.0
    else:
        lam = 1.0 if args.lam is None else args.lam
    return SolverConfig(lam=lam, rule=rule, inner_tol=args.inner_tol, outer_tol=args.outer_tol)


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


def _run_cluster_solve(args, cfg, X):
    """Seeds and solves a clustering run; returns (S, report, cfg with sigma2 set)."""
    # load_features returns a valid matrix; the search, sigma2, the seeding and
    # the solve share one CenteredFeatures of it
    P = CenteredFeatures._of_valid(X)
    if cfg.lam > 0.0:
        W = symmetrize(knn_graph(P, args.rho), args.sym).with_diag_shift(args.delta)
    else:
        n = X.shape[0]
        W = SparseAffinity(matrix=sp.csr_matrix((n, n)))
    if cfg.rule == "modes":
        # the graph keeps its search distances; at lambda 0 no graph is searched
        cfg = replace(cfg, sigma2=estimate_sigma2(W if cfg.lam > 0.0 else P, args.rho))
    rng = np.random.default_rng(args.seed)
    M0 = Prototypes(values=kmeans_pp_seeds(P, args.k, rng), rule=cfg.rule)
    S, _, report = solve(P, W, M0, cfg)
    return S, report, cfg


def cmd_cluster(args) -> int:
    cfg = _resolve_config(args)
    X = _load_features(args.features)
    truth = io.load_labels(args.labels, n_points=X.shape[0]) if args.labels else None
    S, report, cfg = _run_cluster_solve(args, cfg, X)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    io.save_assignments(S, os.path.join(out, "assignments.csv"), include_soft=args.soft)
    _write_trace(report, os.path.join(out, "trace.csv"))
    summary = {
        "objective": report.discrete_objective,
        "relaxed_final": report.relaxed_trace[-1],
        "iters": report.outer_iters,
        "inner_cap_hits": report.inner_cap_hits,
        "redone_sweeps": report.redone_sweeps,
        "warnings": report.warnings,
    }
    if truth is not None:
        pred = S.hard_labels()
        summary["nmi"] = nmi(pred, truth)
        summary["acc"] = accuracy_hungarian(pred, truth)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config(args, out, extra={"resolved_solver": asdict(cfg)})
    return 3 if (args.strict and report.warnings) else 0


def cmd_trace(args) -> int:
    cfg = _resolve_config(args)
    _, report, cfg = _run_cluster_solve(args, cfg, _load_features(args.features))
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
    cfg = _resolve_config(args)
    base_mean = None
    if args.base_mean:
        bm = _load_features(args.base_mean)
        base_mean = bm.ravel() if 1 in bm.shape else bm.mean(axis=0)
    pre = PreprocessConfig(base_mean=base_mean, apply_cl2=args.cl2, apply_bias=args.bias)
    X = _load_features(args.features)
    labels = io.load_labels(args.labels, n_points=X.shape[0]) if args.labels else None

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    rows = []
    warnings = []
    inner_cap_hits = redone_sweeps = 0
    for episode_id, path in enumerate(_episode_paths(args.episodes)):
        task = io.load_task(path, n_points=X.shape[0])
        truth = labels[list(task.queries)] if labels is not None and task.queries else None
        result = run_episode(task, X, pre, cfg, rho=args.rho, sym=args.sym, truth=truth)
        warnings.extend(result.solve_report.warnings)
        inner_cap_hits += result.solve_report.inner_cap_hits
        redone_sweeps += result.solve_report.redone_sweeps
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
        "inner_cap_hits": inner_cap_hits,
        "redone_sweeps": redone_sweeps,
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
