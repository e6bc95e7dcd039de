"""File ingestion and emission: feature matrices, labels, tasks, assignments.

Feature matrices travel either as headerless CSV, one point per line and one
feature per cell (a first line of names would be read as a bad cell), or as
``slkbin``, a fixed little-endian binary layout (magic ``SLKB``, u32 version,
u64 n_points, u64 n_dims, row-major f64 payload) used for bit-exact round
trips. The file name picks the format: a path ending in ``.slkbin`` is slkbin,
any other path is CSV.

The CSV reader parses the whole file with one ``np.loadtxt`` call, which
reads a cell as Python's ``float()`` does but accepts fewer spellings (no
``1_0``, no non-ASCII digits, no whitespace-only line). A file it rejects,
warns about (no data), or reads with a non-finite value is read again one
cell at a time with ``float()``, to name the first bad cell by its row
(blank lines counted) and column. So every file reads as ``float()`` reads
it, and every error keeps its message. ``load_labels`` reads the first column
of a label file or of an ``assignments.csv``, soft columns and header
included.
"""

from __future__ import annotations

import operator
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    MissingSupportClassError,
    NonFiniteValueError,
    NonRectangularRowError,
    OverlappingIndicesError,
)

SLKBIN_MAGIC = b"SLKB"
SLKBIN_VERSION = 1
SLKBIN_SUFFIX = ".slkbin"


def validate_features(X) -> np.ndarray:
    """Coerce to a valid feature matrix: 2-D float64, finite, non-empty."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"feature matrix must be 2-D and non-empty, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise NonFiniteValueError(int(row), int(col))
    return X


def _integer_array(values, name):
    """``values`` (an array) as int64, rejected unless it holds integers or
    booleans (read as 0 and 1): a cast would truncate 0.9 to 0."""
    if values.size and values.dtype.kind not in "biu":
        raise DataError(f"{name} must hold integers, got dtype {values.dtype}")
    return values.astype(np.int64)


def _index(value, name):
    """``value`` as an int, rejected unless it is an integer (``operator.index``)."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"{name} {value!r} is not an integer") from None


@dataclass(frozen=True)
class TaskSpec:
    """One few-shot episode: K-way support pairs plus query indices."""

    k_way: int
    support: tuple  # of (point_index, class_index)
    queries: tuple  # of point_index

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(
            (_index(p, "support index"), _index(c, "support class")) for p, c in self.support))
        object.__setattr__(self, "queries", tuple(_index(q, "query index") for q in self.queries))
        object.__setattr__(self, "k_way", _index(self.k_way, "k_way"))
        if self.k_way < 1:
            raise DataError(f"k_way must be >= 1, got {self.k_way}")
        seen = set()
        for p, c in self.support:
            if not 0 <= c < self.k_way:
                raise DataError(f"support class {c} outside [0, {self.k_way})")
            seen.add(c)
        for c in range(self.k_way):
            if c not in seen:
                raise MissingSupportClassError(c)
        for name, indices in (("support", self.support_indices), ("query", self.queries)):
            repeated = _first_repeat(indices)
            if repeated is not None:
                raise DataError(f"{name} index {repeated} is listed twice")
        overlap = set(p for p, _ in self.support) & set(self.queries)
        if overlap:
            raise OverlappingIndicesError(overlap)

    @property
    def support_indices(self):
        return tuple(p for p, _ in self.support)

    def validate_indices(self, n_points: int) -> None:
        for idx in (*self.support_indices, *self.queries):
            if not 0 <= idx < n_points:
                raise IndexOutOfRangeError(idx, n_points)


def _first_repeat(indices):
    """The first index that occurs earlier in ``indices`` too, or None."""
    seen = set()
    for idx in indices:
        if idx in seen:
            return idx
        seen.add(idx)
    return None


def load_features(path) -> np.ndarray:
    """Read a feature matrix: slkbin from a ``.slkbin`` path, else headerless CSV."""
    return _load_slkbin(path) if str(path).endswith(SLKBIN_SUFFIX) else _load_csv(path)


def save_features(X, path) -> None:
    """Write a feature matrix: slkbin to a ``.slkbin`` path, else headerless CSV."""
    X = validate_features(X)
    if str(path).endswith(SLKBIN_SUFFIX):
        n, d = X.shape
        with open(path, "wb") as fh:
            fh.write(SLKBIN_MAGIC)
            fh.write(struct.pack("<IQQ", SLKBIN_VERSION, n, d))
            fh.write(np.ascontiguousarray(X, dtype="<f8").tobytes())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for row in X.tolist():
                fh.write(",".join(map(repr, row)) + "\n")


def _load_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file warns instead of raising
                X = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except (ValueError, Warning):
            X = None
        if X is not None and X.size and np.isfinite(X).all():
            return X
        fh.seek(0)
        lines = [ln.rstrip("\n") for ln in fh]
    return _load_csv_rows(path, lines)


def _load_csv_rows(path, lines):
    """The lines of a CSV file parsed one row at a time by ``_parse_cells``."""
    rows = []
    width = None
    for r, line in enumerate(lines):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise NonRectangularRowError(r, width, len(cells))
        rows.append(_parse_cells(r, cells))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)  # rows checked finite and of one width


def _parse_cells(r, cells):
    """Row r one cell at a time, raising on its first bad cell in column order."""
    parsed = []
    for c, cell in enumerate(cells):
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"row {r}, col {c}: cannot parse {cell!r}") from None
        if not np.isfinite(v):
            raise NonFiniteValueError(r, c)
        parsed.append(v)
    return parsed


def _load_slkbin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SLKBIN_MAGIC:
            raise MalformedHeaderError(f"{path}: bad magic {magic!r}")
        head = fh.read(20)
        if len(head) != 20:
            raise MalformedHeaderError(f"{path}: truncated header")
        version, n, d = struct.unpack("<IQQ", head)
        if version != SLKBIN_VERSION:
            raise MalformedHeaderError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = n * d * 8
    if len(payload) != expected:
        raise DataError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    X = np.frombuffer(payload, dtype="<f8").reshape(n, d).astype(np.float64)
    return validate_features(X)


def save_assignments(S, path, include_soft=False) -> None:
    """Write hard labels (row argmax, ties to lowest index); optionally soft rows."""
    rows = np.asarray(getattr(S, "rows", S), dtype=np.float64)
    if rows.ndim != 2:
        raise DataError(f"assignment matrix must be 2-D, got shape {rows.shape}")
    k = rows.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        if include_soft:
            fh.write("label," + ",".join(f"s{j}" for j in range(k)) + "\n")
        else:
            fh.write("label\n")
        if rows.shape[0] == 0:
            return
        hard = np.argmax(rows, axis=1)
        if include_soft:
            for lab, row in zip(hard, rows.tolist()):
                fh.write(f"{lab}," + ",".join(map(repr, row)) + "\n")
        else:
            fh.write("".join(f"{lab}\n" for lab in hard.tolist()))


def load_labels(path, n_points=None) -> np.ndarray:
    """Read one integer label per line, the first cell of each; blank lines are
    skipped, and so is a ``label`` header (an assignment file's) on the first
    non-blank line, but on no other.

    With ``n_points``, the file must hold exactly one label per feature row.
    """
    labels = []
    header = True  # until the first non-blank line
    with open(path, "r", encoding="utf-8") as fh:
        for r, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cell = line.split(",")[0]
            skip = header and cell == "label"
            header = False
            if skip:
                continue
            try:
                labels.append(int(cell))
            except ValueError:
                raise DataError(f"{path}: line {r}: cannot parse label {cell!r}") from None
    if not labels:
        raise DataError(f"{path}: no labels")
    out = np.array(labels, dtype=np.int64)
    if out.min() < 0:
        raise DataError(f"{path}: negative label {out.min()}")
    if n_points is not None and out.size != n_points:
        raise DataError(f"{path}: {out.size} labels for {n_points} feature rows")
    return out


def save_labels(labels, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lab in np.asarray(labels, dtype=np.int64):
            fh.write(f"{int(lab)}\n")


def load_task(path, n_points=None) -> TaskSpec:
    """Parse a plain-text task file: kway=K / support=idx:class,... / query=idx,..."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}: malformed line {line!r}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    for key in ("kway", "support"):
        if key not in fields:
            raise DataError(f"{path}: missing field {key!r}")
    try:
        k_way = int(fields["kway"])
    except ValueError:
        raise DataError(f"{path}: bad kway {fields['kway']!r}") from None
    support = []
    for item in filter(None, fields["support"].split(",")):
        p, _, c = item.partition(":")  # an entry without ':' leaves c empty
        support.append((_task_int(path, "support", item, p),
                        _task_int(path, "support", item, c)))
    queries = [_task_int(path, "query", q, q)
               for q in filter(None, fields.get("query", "").split(","))]
    task = TaskSpec(k_way=k_way, support=tuple(support), queries=tuple(queries))
    if n_points is not None:
        task.validate_indices(n_points)
    return task


def _task_int(path, field, entry, text):
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{path}: bad {field} entry {entry!r}") from None


def save_task(task: TaskSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kway={task.k_way}\n")
        fh.write("support=" + ",".join(f"{p}:{c}" for p, c in task.support) + "\n")
        fh.write("query=" + ",".join(str(q) for q in task.queries) + "\n")
