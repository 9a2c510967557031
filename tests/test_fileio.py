"""Byte contract of the CSV writer: numpy scalars and Python scalars write alike."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ratchet_lab.fileio import fmt, write_csv


def reference_fmt(value) -> str:
    """fmt without its exact-type fast path; the byte reference. Booleans, numpy's too, write as 1/0."""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, np.bool_, int)):
        return str(int(value))
    return str(value)


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
                               1e308, -1e308, 1.7976931348623157e308, float("inf"), float("nan")])
PYTHON_SCALARS = (st.floats() | EDGE_FLOATS | st.integers()
                  | st.integers(min_value=2**63, max_value=2**200) | st.booleans() | st.text())
NUMPY_SCALARS = (st.floats().map(np.float64) | EDGE_FLOATS.map(np.float64)
                 | st.floats(width=32).map(np.float32)
                 | st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64)
                 | st.integers(min_value=-2**31, max_value=2**31 - 1).map(np.int32)
                 | st.booleans().map(np.bool_))


@given(value=PYTHON_SCALARS | NUMPY_SCALARS)
def test_fmt_matches_reference(value):
    assert fmt(value) == reference_fmt(value)


def csv_bytes(rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, ["i", "x", "y", "z", "b"], rows, comments=["c"])
        return path.read_bytes()


COLUMN_DTYPES = (np.int64, np.int32, np.float64, np.float32, np.bool_)


@given(data=st.lists(st.tuples(st.integers(min_value=-2**63, max_value=2**63 - 1),
                               st.integers(min_value=-2**31, max_value=2**31 - 1),
                               st.floats() | EDGE_FLOATS, st.floats(width=32), st.booleans()),
                     min_size=1, max_size=20))
def test_write_csv_numpy_rows_match_tolist_twin(data):
    columns = [np.array(col, dtype=dtype) for col, dtype in zip(zip(*data), COLUMN_DTYPES)]
    numpy_rows = list(zip(*columns))
    assert csv_bytes(numpy_rows) == csv_bytes(list(zip(*(col.tolist() for col in columns))))
