"""Span tracer for the traced benchmark run.

Wraps every public function of the ``lapclust`` modules from outside the
package, records one span per call (name, start, end, parent) in memory, and
turns the spans into per-layer metrics when the run ends. A function imported
by name into another module (``from .prototypes import prototype_scores``) is
a separate reference, so each wrapper is installed under every name that holds
the original function in any ``lapclust`` module; otherwise those calls would
go unseen. ``uninstall`` puts the original objects back, so untraced runs call
the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("affinity", "optimizer", "prototypes", "fewshot", "io", "metrics", "cli")

# Spans opened by the benchmark itself, around the timed operation and the
# post-operation check. They are the roots that lapclust spans hang under.
OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"

# solve() warns about an objective rise past this relative slack; the tracer
# counts rises with the same rule.
_RISE_SLACK = 1e-9


def _solve_counts(counts, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    report = result[2]
    counts["optimizer.outer_iters"] += report.outer_iters
    counts["optimizer.inner_iters_total"] += report.inner_iters_total
    # entry 0 is the initial point, not an outer iteration
    counts["optimizer.inner_cap_hits"] += sum(
        1 for n in report.inner_iters_per_outer[1:] if n == cfg.inner_max)
    trace = report.relaxed_trace
    counts["optimizer.objective_increases"] += sum(
        1 for prev, cur in zip(trace, trace[1:])
        if cur > prev + _RISE_SLACK * (1.0 + abs(prev)))


def _votes_counts(counts, args, kwargs, result):
    W = args[0] if args else kwargs["W"]
    n, k = result.shape
    # CSR read (8-byte value + 4-byte index per stored edge) plus reading S
    # and writing b, both N x K float64: a computed count, not a measured one.
    counts["optimizer.neighbor_votes_bytes"] += W.matrix.nnz * 12 + 2 * n * k * 8


def _symmetrize_counts(counts, args, kwargs, result):
    counts["affinity.graph_nnz"] += result.matrix.nnz


def _modes_counts(counts, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    traces = result[1]
    counts["prototypes.meanshift_iters"] += sum(len(t) for t in traces)
    counts["prototypes.mode_cap_hits"] += sum(1 for t in traces if len(t) == cfg.max_iters)


COUNTERS = ("affinity.graph_nnz", "optimizer.neighbor_votes_bytes", "optimizer.outer_iters",
            "optimizer.inner_iters_total", "optimizer.inner_cap_hits",
            "optimizer.objective_increases", "prototypes.meanshift_iters",
            "prototypes.mode_cap_hits")

_OBSERVERS = {
    "optimizer.solve": _solve_counts,
    "optimizer.neighbor_votes": _votes_counts,
    "affinity.symmetrize": _symmetrize_counts,
    "prototypes.update_modes": _modes_counts,
}


class Tracer:
    """Collects spans and counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span, such as an operation root."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        layer_modules = {layer: importlib.import_module(f"lapclust.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lapclust" or n.startswith("lapclust."))]
        wrappers = {}
        for layer, mod in layer_modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self):
        """Spans as plain records, for writing out after the run."""
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def _layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, counts, n_ops):
    """Per-operation statistics from finished spans, keyed by metric name.

    For every traced function ``<layer>.<fn>``: ``_s`` is inclusive time,
    ``_self_s`` the span's duration minus its children's, ``_calls`` a count.
    ``<layer>_s`` is the time during which some span of that layer is open.
    ``entry_self_s`` is the self time of the layer a workload enters through:
    the ``cli`` and ``fewshot`` spans plus the benchmark's own operation root.
    Spans under the benchmark's own check are left out: that time lies outside
    the timed operation. Counters from the observers are included. Every total
    is divided by the number of traced operations; names that never ran read 0.
    """
    stats = defaultdict(float)
    child_t = defaultdict(float)
    in_check = []  # a parent is listed before its children
    for name, start, end, parent in spans:
        in_check.append(name == CHECK_SPAN or (parent >= 0 and in_check[parent]))
        if parent >= 0:
            child_t[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        if in_check[i]:
            continue
        dur = end - start
        stats[f"{name}_s"] += dur
        stats[f"{name}_self_s"] += dur - child_t[i]
        stats[f"{name}_calls"] += 1
        layer = _layer_of(name)
        outer = parent
        while outer >= 0 and _layer_of(spans[outer][0]) != layer:
            outer = spans[outer][3]
        if outer < 0:
            stats[f"{layer}_s"] += dur
        if layer in ("cli", "fewshot") or name == OP_SPAN:
            stats["entry_self_s"] += dur - child_t[i]
    stats["prototypes.update_s"] = (stats["prototypes.update_means_s"]
                                    + stats["prototypes.update_modes_s"])
    stats.update(counts)
    ops = max(n_ops, 1)
    per_op = defaultdict(float, {k: v / ops for k, v in stats.items()})
    iters = counts["optimizer.outer_iters"]
    per_op["optimizer.inner_cap_ratio"] = counts["optimizer.inner_cap_hits"] / iters if iters else 0.0
    return per_op


def top_level_coverage(spans):
    """Share of operation-root time covered by the lapclust spans directly under it."""
    root_t = 0.0
    covered = 0.0
    for name, start, end, parent in spans:
        if name == OP_SPAN:
            root_t += end - start
        elif parent >= 0 and spans[parent][0] == OP_SPAN:
            covered += end - start
    return covered / root_t if root_t > 0 else 0.0
