"""File ingestion/emission: parsing, round trips, rejection cases."""

import re
import struct
import warnings

import numpy as np
import pytest

import lapclust
from lapclust import (
    TaskSpec,
    load_features,
    load_labels,
    load_task,
    save_assignments,
    save_features,
    save_labels,
    save_task,
)
from lapclust import io
from lapclust.errors import (
    DataError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    MissingSupportClassError,
    NonFiniteValueError,
    NonRectangularRowError,
    OverlappingIndicesError,
)


@pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0)])
def test_feature_matrix_must_be_2d_and_non_empty(tmp_path, shape):
    message = f"feature matrix must be 2-D and non-empty, got shape {shape}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        save_features(np.ones(shape), tmp_path / "m.csv")
    assert not (tmp_path / "m.csv").exists()


def test_csv_direct_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    X = load_features(path)
    np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_round_trip_value_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3))
    path = tmp_path / "m.csv"
    save_features(X, path)
    np.testing.assert_array_equal(load_features(path), X)


def test_slkbin_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((11, 5))
    path = tmp_path / "m.slkbin"
    save_features(X, path)
    Y = load_features(path)
    assert X.tobytes() == Y.tobytes()


def test_csv_nan_rejected_with_position(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(NonFiniteValueError) as exc:
        load_features(path)
    assert exc.value.row == 1 and exc.value.col == 1


def test_csv_non_rectangular_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(NonRectangularRowError):
        load_features(path)


def test_csv_unparseable_cell_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,abc\n")
    with pytest.raises(DataError):
        load_features(path)


def float_oracle(text):
    """Headerless CSV parsed one cell at a time with float(), blank lines skipped."""
    return np.array([[float(c) for c in ln.split(",")]
                     for ln in text.splitlines() if ln.strip()], dtype=np.float64)


def test_csv_awkward_spellings_match_float(tmp_path):
    rows = [
        " 1.5,2 ,\t3\t,4",
        "1_0,.5,5.,-0.0",
        "4.9e-324,2.2250738585072011e-308,-1e-310,1E5",
        "12345678901234567890,0.12345678901234567890123,+7,00012",
        "1_000.000_1,-.25e-3,1e-400,\u0661\u0662",
    ]
    text = "\r\n".join(rows) + "\r\n\r\n"
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    got = load_features(path)
    want = float_oracle(text)
    assert got.shape == (5, 4)
    assert got.tobytes() == want.tobytes()  # bitwise: -0.0 and subnormals included


@pytest.mark.parametrize("tail", ["8", "abc"])  # the row parses as a whole, or does not
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "-Infinity", "1e400"])
def test_csv_non_finite_position_after_blank_line(tmp_path, cell, tail):
    path = tmp_path / "m.csv"
    path.write_text(f"1,2,3\n\n4,5,6\n7,{cell},{tail}\n")
    with pytest.raises(NonFiniteValueError) as exc:
        load_features(path)
    assert (exc.value.row, exc.value.col) == (3, 1)  # blank lines keep their row number


@pytest.mark.parametrize("cell", ["abc", "", "1e", "0x10", "1__0", "nan(1)"])
def test_csv_unparseable_cell_message(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"1,2,3\n\n4,{cell},nan\n")
    with pytest.raises(DataError) as exc:
        load_features(path)
    assert type(exc.value) is DataError
    assert str(exc.value) == f"row 2, col 1: cannot parse {cell!r}"


def spy_row_reader(monkeypatch):
    """The number of files read row by row while the test runs; a file that
    reaches ``_parse_cells`` also counts."""
    calls = []
    rows, cells = io._load_csv_rows, io._parse_cells
    monkeypatch.setattr(io, "_load_csv_rows", lambda *a: (calls.append("rows"), rows(*a))[1])
    monkeypatch.setattr(io, "_parse_cells", lambda *a: (calls.append("cells"), cells(*a))[1])
    return calls


def test_clean_csv_is_parsed_in_one_call(tmp_path, monkeypatch):
    X = np.random.default_rng(2).standard_normal((50, 4))
    X[3, 1] = -0.0
    X[7, 2] = 5e-324
    path = tmp_path / "m.csv"
    save_features(X, path)
    calls = spy_row_reader(monkeypatch)
    assert load_features(path).tobytes() == X.tobytes()
    assert calls == []


@pytest.mark.parametrize("text, rows_read", [
    ("1,2\n \t \n3,4\n", True),  # a whitespace-only line is skipped, as a blank one is
    ("7\n8\n9\n", False),  # one column
    ("1,2,3\n", False),  # one row
    ("5", False),  # one cell, no line end
    ("1,2\r\n3,4\r\n\r\n", False),  # CRLF line ends
])
def test_csv_spellings_keep_their_values(tmp_path, monkeypatch, text, rows_read):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    calls = spy_row_reader(monkeypatch)
    got = load_features(path)
    assert got.tobytes() == float_oracle(text).tobytes()
    assert got.ndim == 2
    assert bool(calls) == rows_read


@pytest.mark.parametrize("text", ["", "\n", "\n \n\r\n"])
def test_csv_of_blank_lines_has_no_data_rows(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data" stays inside
        with pytest.raises(DataError, match="no data rows"):
            load_features(path)


def test_csv_trailing_comma_names_its_empty_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4,\n")
    with pytest.raises(NonRectangularRowError):
        load_features(path)
    path.write_text("1,2,\n3,4,\n")
    with pytest.raises(DataError) as exc:
        load_features(path)
    assert str(exc.value) == "row 0, col 2: cannot parse ''"


def test_slkbin_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.slkbin"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(MalformedHeaderError):
        load_features(path)


@pytest.mark.parametrize("head, message", [
    (b"\x01\x00\x00\x00" + b"\x00" * 10, "truncated header"),
    (struct.pack("<IQQ", 2, 1, 1) + b"\x00" * 8, "unsupported version 2"),
])
def test_slkbin_bad_header_rejected(tmp_path, head, message):
    path = tmp_path / "m.slkbin"
    path.write_bytes(b"SLKB" + head)
    with pytest.raises(MalformedHeaderError, match=f"m.slkbin: {message}$"):
        load_features(path)


def test_slkbin_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.slkbin"
    save_features(np.ones((3, 2)), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataError):
        load_features(path)


def test_suffix_picks_the_feature_format(tmp_path):
    X = np.random.default_rng(2).standard_normal((4, 3))
    csv_text = "".join(",".join(map(repr, row)) + "\n" for row in X.tolist())
    for name in ("m.slkbin", "m.csv", "m.txt", "m", "m.slkbin.csv"):
        save_features(X, tmp_path / name)
        assert load_features(tmp_path / name).tobytes() == X.tobytes()
        assert load_features(str(tmp_path / name)).tobytes() == X.tobytes()
        if name != "m.slkbin":
            assert (tmp_path / name).read_text() == csv_text
    assert (tmp_path / "m.slkbin").read_bytes()[:4] == b"SLKB"
    # the name alone decides: CSV text under a .slkbin name is a bad slkbin header
    (tmp_path / "csv.slkbin").write_text(csv_text)
    with pytest.raises(MalformedHeaderError, match="bad magic"):
        load_features(tmp_path / "csv.slkbin")
    with pytest.raises(TypeError, match="format"):
        load_features(tmp_path / "m.csv", format="csv")
    with pytest.raises(TypeError, match="format"):
        save_features(X, tmp_path / "m.csv", format="csv")


def test_save_assignments_argmax_and_tiebreak(tmp_path):
    path = tmp_path / "a.csv"
    save_assignments(np.array([[0.2, 0.8], [0.5, 0.5]]), path)
    assert path.read_text() == "label\n1\n0\n"


def test_save_assignments_empty_is_header_only(tmp_path):
    path = tmp_path / "a.csv"
    save_assignments(np.empty((0, 2)), path)
    assert path.read_text() == "label\n"


@pytest.mark.parametrize("n, k", [(0, 3), (7, 1), (1000, 10)])
def test_save_assignments_labels_match_per_line_writes(tmp_path, n, k):
    def per_line(rows, path):  # one write per label, as the writer once did
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label\n")
            for lab in np.argmax(rows, axis=1):
                fh.write(f"{lab}\n")

    rows = np.random.default_rng(19).random((n, k))
    if n:
        rows[0] = 0.5  # a row of ties goes to column 0
    save_assignments(rows, tmp_path / "a.csv")
    per_line(rows, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_save_assignments_rejects_a_1d_array(tmp_path):
    path = tmp_path / "a.csv"
    with pytest.raises(DataError, match=r"^assignment matrix must be 2-D, got shape \(3,\)$"):
        save_assignments(np.ones(3), path)
    assert not path.exists()


def test_save_assignments_soft_columns(tmp_path):
    path = tmp_path / "a.csv"
    save_assignments(np.array([[0.25, 0.75]]), path, include_soft=True)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,s0,s1"
    assert lines[1] == "1,0.25,0.75"


def test_task_spec_valid():
    task = TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=(2, 3))
    assert task.support_indices == (0, 1)
    task.validate_indices(4)


def test_task_spec_missing_support_class():
    with pytest.raises(MissingSupportClassError):
        TaskSpec(k_way=2, support=((0, 0),), queries=(2,))


def test_task_spec_overlap_rejected():
    with pytest.raises(OverlappingIndicesError):
        TaskSpec(k_way=2, support=((0, 0), (1, 1)), queries=(1, 2))


@pytest.mark.parametrize("support, queries, message", [
    (((0, 0), (0, 1), (3, 1)), (5,), "support index 0 is listed twice"),  # clamped to two classes
    (((0, 0), (3, 1), (3, 1)), (5,), "support index 3 is listed twice"),
    (((0, 0), (3, 1)), (5, 5, 9), "query index 5 is listed twice"),  # solved and scored twice
])
def test_task_spec_repeated_index_rejected(tmp_path, support, queries, message):
    with pytest.raises(DataError, match=message):
        TaskSpec(k_way=2, support=support, queries=queries)
    path = tmp_path / "t.task"
    path.write_text("kway=2\nsupport=" + ",".join(f"{p}:{c}" for p, c in support)
                    + "\nquery=" + ",".join(map(str, queries)) + "\n")
    with pytest.raises(DataError, match=message):
        load_task(path, n_points=10)


@pytest.mark.parametrize("k_way, support, message", [
    (0, ((0, 0),), "k_way must be >= 1, got 0"),
    (2, ((0, 0), (1, 2)), "support class 2 outside [0, 2)"),
    (2, ((0, 0), (1, -1), (2, 1)), "support class -1 outside [0, 2)"),
])
def test_task_spec_classes_outside_k_way_rejected(k_way, support, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        TaskSpec(k_way=k_way, support=support, queries=(5,))


def test_task_index_out_of_range(tmp_path):
    path = tmp_path / "t.task"
    path.write_text("kway=2\nsupport=0:0,1:1\nquery=99\n")
    with pytest.raises(IndexOutOfRangeError):
        load_task(path, n_points=10)


@pytest.mark.parametrize("support, queries, message", [
    (((0.9, 0), (1, 1)), (2, 3), "support index 0.9 is not an integer"),
    (((0, 0), (1, 1.7)), (2, 3), "support class 1.7 is not an integer"),
    (((0, 0), (1, 1)), (2.5, 3), "query index 2.5 is not an integer"),
    (((0, 0), (1, 1)), (2, np.float64(3.0)), f"query index {np.float64(3.0)!r} is not an integer"),
    (((0, 0), ("1", 1)), (2, 3), "support index '1' is not an integer"),
])
def test_task_spec_non_integer_entry_rejected(support, queries, message):
    # int() would truncate 0.9 to point 0 and 1.7 to class 1
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        TaskSpec(k_way=2, support=support, queries=queries)


def test_task_spec_takes_numpy_integers():
    task = TaskSpec(k_way=2, support=((np.int64(0), np.int32(0)), (np.uint8(1), 1)),
                    queries=tuple(np.arange(2, 4)))
    assert task.support == ((0, 0), (1, 1)) and task.queries == (2, 3)
    assert all(type(i) is int for i in (*task.support_indices, *task.queries))


@pytest.mark.parametrize("line, entry", [
    ("support=0:0,1:1,x:2", "support entry 'x:2'"),
    ("support=0:0,1:1,2:y", "support entry '2:y'"),
    ("support=0:0,1:1,2", "support entry '2'"),
    ("support=0:0,1:1,2:2\nquery=3,1.5", "query entry '1.5'"),
    ("kway=three\nsupport=0:0,1:1,2:2", "kway 'three'"),
])
def test_task_non_integer_entry_rejected(tmp_path, line, entry):
    path = tmp_path / "t.task"
    path.write_text(f"kway=3\n{line}\n")
    with pytest.raises(DataError, match=f"t.task: bad {entry}"):
        load_task(path)


@pytest.mark.parametrize("text, message", [
    ("kway=2\nsupport 0:0,1:1\n", "malformed line 'support 0:0,1:1'"),
    # a comment line is skipped: read as a line, it would be malformed
    ("# two classes, no kway\nsupport=0:0,1:1\n", "missing field 'kway'"),
    ("kway=2\nquery=1,2\n", "missing field 'support'"),
])
def test_task_file_without_its_fields_rejected(tmp_path, text, message):
    path = tmp_path / "t.task"
    path.write_text(text)
    with pytest.raises(DataError, match=f"t.task: {re.escape(message)}$"):
        load_task(path)


def test_task_round_trip(tmp_path):
    task = TaskSpec(k_way=3, support=((0, 0), (4, 1), (2, 2)), queries=(1, 3, 5))
    path = tmp_path / "t.task"
    save_task(task, path)
    assert load_task(path) == task


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 2, 1, 1], dtype=np.int64)
    path = tmp_path / "l.txt"
    save_labels(labels, path)
    np.testing.assert_array_equal(load_labels(path), labels)


@pytest.mark.parametrize("include_soft", [False, True])
def test_labels_read_assignment_files(tmp_path, include_soft):
    S = np.array([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.5, 0.5, 0.0]])
    path = tmp_path / "assignments.csv"
    save_assignments(S, path, include_soft=include_soft)
    np.testing.assert_array_equal(load_labels(path), [1, 0, 2, 0])


@pytest.mark.parametrize("text, line", [("1\nlabel\n2\n", 1), ("label\n1\nlabel\n", 2),
                                        ("\nlabel\n0\n\nlabel,s0\n", 4)])
def test_labels_header_only_on_the_first_line(tmp_path, text, line):
    path = tmp_path / "l.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"l.txt: line {line}: cannot parse label 'label'"):
        load_labels(path)
    path.write_text("\n\nlabel\n1\n\n2\n")  # a header after blank lines is still the first
    np.testing.assert_array_equal(load_labels(path), [1, 2])


@pytest.mark.parametrize("text", ["label\n", "\nlabel,s0,s1\n\n"])
def test_labels_file_of_a_header_alone_rejected(tmp_path, text):
    path = tmp_path / "l.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="l.txt: no labels$"):
        load_labels(path)


def test_labels_negative_rejected(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\n-1\n")
    with pytest.raises(DataError):
        load_labels(path)


@pytest.mark.parametrize("n_points", [3, 5])
def test_labels_count_must_match_n_points(tmp_path, n_points):
    path = tmp_path / "l.txt"
    save_labels([0, 1, 0, 1], path)
    np.testing.assert_array_equal(load_labels(path, n_points=4), [0, 1, 0, 1])
    with pytest.raises(DataError, match=f"l.txt: 4 labels for {n_points} feature rows"):
        load_labels(path, n_points=n_points)


def test_rejection_is_total_random_round_trips(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(5):
        X = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 6))))
        for fmt in ("csv", "slkbin"):
            path = tmp_path / f"r{trial}.{fmt}"
            save_features(X, path)
            np.testing.assert_array_equal(load_features(path), X)


AWKWARD_FLOATS = np.array([
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300],
    [3.0, -1.0, 1e16, 0.1, 1.7976931348623157e308],
    [0.30000000000000004, 2.718281828459045, -1.2345678901234567e-05, 123456789.12345679,
     9007199254740993.0],
])


def test_csv_writers_match_per_cell_repr(tmp_path):
    # the bytes as written one repr(float(v)) per cell; np.savetxt would differ
    def cells(row):
        return ",".join(repr(float(v)) for v in row)

    X = AWKWARD_FLOATS
    save_features(X, tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_bytes() == "".join(cells(r) + "\n" for r in X).encode()
    S = np.abs(X) / np.abs(X).sum(axis=1, keepdims=True)
    S[0] = [0.0, 0.5, 5e-324, 0.5, 0.0]
    for soft in (False, True):
        path = tmp_path / f"a{soft}.csv"
        save_assignments(S, path, include_soft=soft)
        labels = np.argmax(S, axis=1)
        if soft:
            want = "label,s0,s1,s2,s3,s4\n" + "".join(
                f"{lab},{cells(r)}\n" for lab, r in zip(labels, S))
        else:
            want = "label\n" + "".join(f"{lab}\n" for lab in labels)
        assert path.read_bytes() == want.encode()


def _episode_call(rho):
    """A call of ``run_episode`` on a small episode with this ``rho``."""
    def call():
        X, task, _ = lapclust.generate_synthetic_episode(2, 1, 3, 4, 5.0, seed=0)
        lapclust.run_episode(task, X, lapclust.PreprocessConfig(), lapclust.SolverConfig(), rho)
    return call


def _tuning_call(rho):
    """A call of ``tune_lambda`` on one small episode with this ``rho``."""
    def call():
        episode = lapclust.generate_synthetic_episode(2, 1, 3, 4, 5.0, seed=0)
        lapclust.tune_lambda([0.5], [episode], lapclust.SolverConfig(), rho=rho)
    return call


_X = np.random.default_rng(3).standard_normal((12, 4))
_PAIRS = ((0, 0), (1, 1))
# each call's integer parameter, and the value it is given
INTEGER_PARAMETERS = {
    "knn_graph-rho": (lambda: lapclust.knn_graph(_X, 2.5), "rho 2.5"),
    "knn_graph-rho-text": (lambda: lapclust.knn_graph(_X, "3"), "rho '3'"),
    "estimate_sigma2-rho": (lambda: lapclust.estimate_sigma2(_X, 2.0), "rho 2.0"),
    "run_episode-rho": (_episode_call(2.5), "rho 2.5"),
    "run_episode-rho-text": (_episode_call("3"), "rho '3'"),
    "tune_lambda-rho": (_tuning_call(2.5), "rho 2.5"),
    "kmeans_pp_seeds-k": (lambda: lapclust.kmeans_pp_seeds(_X, 2.5, np.random.default_rng(0)),
                          "k 2.5"),
    "from_hard-k": (lambda: lapclust.SoftAssignment.from_hard([0, 1], 2.5), "k 2.5"),
    "SolverConfig-inner_max": (lambda: lapclust.SolverConfig(inner_max=2.5), "inner_max 2.5"),
    "SolverConfig-outer_max": (lambda: lapclust.SolverConfig(outer_max=2.5), "outer_max 2.5"),
    "ModeSolverConfig-max_iters": (lambda: lapclust.ModeSolverConfig(sigma2=1.0, max_iters=2.5),
                                   "max_iters 2.5"),
    "TaskSpec-k_way": (lambda: TaskSpec(k_way=2.5, support=_PAIRS, queries=(2,)), "k_way 2.5"),
    "TaskSpec-k_way-text": (lambda: TaskSpec(k_way="2", support=_PAIRS, queries=(2,)),
                            "k_way '2'"),
    "generate_synthetic_episode-n_shot": (
        lambda: lapclust.generate_synthetic_episode(2, 1.5, 3, 4, 1.0, seed=0), "n_shot 1.5"),
    "generate_synthetic_episode-dim": (
        lambda: lapclust.generate_synthetic_episode(2, 1, 3, "4", 1.0, seed=0), "dim '4'"),
}


@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_are_checked_as_integers(name):
    # a float or a string count fails deep inside the call (a bare TypeError),
    # or is accepted: a float cap of 2.5 runs 3 steps
    call, value = INTEGER_PARAMETERS[name]
    with pytest.raises(DataError, match=f"^{re.escape(value)} is not an integer$"):
        call()


def test_boolean_integer_parameters_are_zero_and_one():
    # as io._integer_array reads them: a boolean cannot be truncated
    assert lapclust.SolverConfig(inner_max=True).inner_max == 1
    assert TaskSpec(k_way=True, support=((0, 0),), queries=(1,)).k_way == 1
    np.testing.assert_array_equal(lapclust.knn_graph(_X, True).dense,
                                  lapclust.knn_graph(_X, 1).dense)
