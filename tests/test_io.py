"""File ingestion/emission: parsing, round trips, rejection cases."""

import warnings

import numpy as np
import pytest

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


def test_task_index_out_of_range(tmp_path):
    path = tmp_path / "t.task"
    path.write_text("kway=2\nsupport=0:0,1:1\nquery=99\n")
    with pytest.raises(IndexOutOfRangeError):
        load_task(path, n_points=10)


@pytest.mark.parametrize("line, entry", [
    ("support=0:0,1:1,x:2", "support entry 'x:2'"),
    ("support=0:0,1:1,2:y", "support entry '2:y'"),
    ("support=0:0,1:1,2", "support entry '2'"),
    ("support=0:0,1:1,2:2\nquery=3,1.5", "query entry '1.5'"),
])
def test_task_non_integer_entry_rejected(tmp_path, line, entry):
    path = tmp_path / "t.task"
    path.write_text(f"kway=3\n{line}\n")
    with pytest.raises(DataError, match=f"t.task: bad {entry}"):
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
