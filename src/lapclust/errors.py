"""Exception types shared across the package."""


class LapclustError(Exception):
    """Base class for all package errors."""


class DataError(LapclustError):
    """Malformed or inconsistent input data."""


class MalformedHeaderError(DataError):
    pass


class NonRectangularRowError(DataError):
    def __init__(self, row, expected, got):
        self.row = row
        self.expected = expected
        self.got = got
        super().__init__(f"row {row}: expected {expected} columns, got {got}")


class NonFiniteValueError(DataError):
    def __init__(self, row, col):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, col {col}")


class IndexOutOfRangeError(DataError):
    def __init__(self, index, n_points):
        self.index = index
        self.n_points = n_points
        super().__init__(f"index {index} out of range for {n_points} points")


class MissingSupportClassError(DataError):
    def __init__(self, cls):
        self.cls = cls
        super().__init__(f"class {cls} has no support samples")


class OverlappingIndicesError(DataError):
    def __init__(self, indices):
        self.indices = sorted(indices)
        super().__init__(f"support and query sets overlap: {self.indices}")


class DegenerateDataError(LapclustError):
    """All points coincide; kernel width is undefined."""


class EmptyClusterError(LapclustError):
    """A cluster has zero assignment mass and no prototype to keep: ``k`` is
    its index, or -1 for the one cluster of ``meanshift_step``."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"cluster {k} has zero assignment mass")


class ZeroVectorError(LapclustError):
    """CL2 normalization met a row of zero norm after centering: ``row`` is its
    index in the caller's feature matrix."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} has zero norm after centering")


class NonFiniteNormError(DataError):
    """CL2 normalization met a row whose norm after centering overflows:
    ``row`` is its index in the caller's feature matrix."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} has a norm that overflows float64 after centering")


class ConfigError(LapclustError):
    """Invalid configuration or flag combination."""
