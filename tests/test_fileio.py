"""Byte contract of the CSV writer: rows of Python scalars, each written as its reference form."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratchet_lab.fileio import write_csv


def reference_fmt(value) -> str:
    """The byte reference: a float's shortest round-trip repr, an int's digits, a str as it is."""
    return repr(value) if type(value) is float else str(value)


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308, 1e16, 1e-5,
                               1e308, -1e308, 1.7976931348623157e308, float("inf"), float("-inf"),
                               float("nan")])
PYTHON_SCALARS = (st.floats() | EDGE_FLOATS | st.integers()
                  | st.integers(min_value=2**63, max_value=2**200) | st.text())
COLUMNS = ["a", "b", "c"]


def csv_bytes(rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, COLUMNS, rows, comments=["c"])
        return path.read_bytes()


@given(rows=st.lists(st.tuples(PYTHON_SCALARS, PYTHON_SCALARS, PYTHON_SCALARS), max_size=20))
def test_write_csv_rows_match_the_reference_join(rows):
    expected = "# c\na,b,c\n" + "".join(",".join(map(reference_fmt, row)) + "\n" for row in rows)
    assert csv_bytes(iter(rows)) == expected.encode("utf-8")


@pytest.mark.parametrize("value", [True, np.bool_(False), np.float64(0.5), np.float32(0.1), np.int64(3),
                                   np.int32(-2)], ids=repr)
def test_write_csv_refuses_a_bool_or_numpy_scalar(tmp_path, value):
    path = tmp_path / "rows.csv"
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        write_csv(path, COLUMNS, [(1, value, "x"), (2, 0.5, "y")])
    assert not path.exists()


def test_write_csv_refuses_a_row_that_is_not_a_tuple(tmp_path):
    with pytest.raises(TypeError, match=r"^a CSV row must be a tuple of .* values, got \[1\]$"):
        write_csv(tmp_path / "rows.csv", ["a"], [[1]])
