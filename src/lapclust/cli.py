"""Command-line front end.

Subcommands: ``cluster`` (unsupervised run with K-means++ seeding), ``fewshot``
(episode batch), ``eval`` (label-file metrics), ``trace`` (the ``cluster`` run
without its assignments and report: ``cmd_cluster`` runs both, and ``trace``
writes only trace.csv and config.json). Every JSON artifact (report.json,
summary.json, config.json) goes through ``_write_json``. Exit codes: 0
success, 1 usage/config error, 2 data error, 3 numerical warning escalated by
--strict.
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
from .errors import ConfigError, DataError, LapclustError
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


# the SolveReport counters in report.json, and in summary.json summed over episodes
_SOLVE_COUNTS = ("inner_cap_hits", "mode_cap_hits", "redone_sweeps")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _write_json(path, obj, **kwargs):
    """``obj`` as indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, **kwargs)
        fh.write("\n")


def _echo_config(args, out_dir, cfg):
    """config.json: every parsed flag, and the solver configuration the run used."""
    _write_json(os.path.join(out_dir, "config.json"),
                {**vars(args), "resolved_solver": asdict(cfg)}, default=str)


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
    """``cluster`` and ``trace``: one clustering run, which writes trace.csv and
    config.json; ``cluster`` also writes assignments.csv and report.json."""
    cfg = _resolve_config(args)
    X = io.load_features(args.features)
    full = args.command == "cluster"
    truth = io.load_labels(args.labels, n_points=X.shape[0]) if full and args.labels else None
    S, report, cfg = _run_cluster_solve(args, cfg, X)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    _write_trace(report, os.path.join(out, "trace.csv"))
    if full:
        io.save_assignments(S, os.path.join(out, "assignments.csv"), include_soft=args.soft)
        summary = {
            "objective": report.discrete_objective,
            "relaxed_final": report.relaxed_trace[-1],
            "iters": report.outer_iters,
            "stop_reason": report.stop_reason,
            **{name: getattr(report, name) for name in _SOLVE_COUNTS},
            "warnings": report.warnings,
        }
        if truth is not None:
            pred = S.hard_labels()
            summary["nmi"] = nmi(pred, truth)
            summary["acc"] = accuracy_hungarian(pred, truth)
        _write_json(os.path.join(out, "report.json"), summary)
    _echo_config(args, out, cfg)
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


def _base_mean(base, d):
    """The base-class mean held by a --base-mean file, for features d wide: the
    mean of its rows when they are d wide (a one-row file is that row), or its
    one column of d values."""
    if base.shape[1] == d:
        return base.mean(axis=0)
    if base.shape == (d, 1):
        return base[:, 0]
    raise DataError(f"base mean file has shape {base.shape}; expected rows {d} wide "
                    f"(the feature width) or one column of {d} values")


def cmd_fewshot(args) -> int:
    cfg = _resolve_config(args)
    base = io.load_features(args.base_mean) if args.base_mean else None
    # a base mean without --cl2 is a config error before the features are read
    pre = PreprocessConfig(base_mean=base, apply_cl2=args.cl2, apply_bias=args.bias)
    X = io.load_features(args.features)
    labels = io.load_labels(args.labels, n_points=X.shape[0]) if args.labels else None
    if base is not None:
        pre = replace(pre, base_mean=_base_mean(base, X.shape[1]))

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    results = []
    for path in _episode_paths(args.episodes):
        task = io.load_task(path, n_points=X.shape[0])
        truth = labels[list(task.queries)] if labels is not None and task.queries else None
        results.append(run_episode(task, X, pre, cfg, rho=args.rho, sym=args.sym, truth=truth))

    with open(os.path.join(out, "episodes.csv"), "w", encoding="utf-8") as fh:
        fh.write("episode_id,accuracy,wall_time,outer_iters\n")
        for episode_id, r in enumerate(results):
            acc_cell = "n/a" if r.accuracy is None else repr(r.accuracy)
            fh.write(f"{episode_id},{acc_cell},{r.wall_time!r},{r.solve_report.outer_iters}\n")

    accs = [r.accuracy for r in results if r.accuracy is not None]
    mean, interval = fewshot_accuracy(accs) if accs else (None, None)
    warnings = [w for r in results for w in r.solve_report.warnings]
    summary = {
        "n_episodes": len(results),
        "mean_accuracy": mean,
        "interval95": interval,
        "mean_wall_time": float(np.mean([r.wall_time for r in results])),
        **{name: sum(getattr(r.solve_report, name) for r in results) for name in _SOLVE_COUNTS},
        "warnings": warnings,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    _echo_config(args, out, cfg)
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
                "eval": cmd_eval, "trace": cmd_cluster}
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
