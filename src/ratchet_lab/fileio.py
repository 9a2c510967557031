"""Deterministic writers: CSV, binary PGM, NDJSON.

A CSV row is a tuple of Python int, float and str values, as `.tolist()` gives, written with
one `%s` string per file: a float's str is its shortest round-trip repr, so identical runs
produce byte-identical files. A bool or numpy scalar in the first row raises TypeError.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_pgm", "read_pgm", "write_ndjson"]


def write_csv(path: str | Path, columns: list[str], rows, comments: list[str] | None = None) -> None:
    """`# `-prefixed comment lines, the header, then one line per row."""
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        if type(first) is not tuple or not all(type(v) in (int, float, str) for v in first):
            raise TypeError(f"a CSV row must be a tuple of Python int, float and str values, got {first!r}")
        rows = itertools.chain((first,), rows)
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(columns))
    row_format = ",".join(["%s"] * len(columns))
    lines += [row_format % row for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pgm(path: str | Path, raster: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255)."""
    raster = np.asarray(raster, dtype=np.uint8)
    if raster.ndim != 2:
        raise ValueError("raster must be 2-d")
    h, w = raster.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    fields: list[bytes] = []
    i = 2
    while len(fields) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        fields.append(data[start:i])
    i += 1  # single whitespace after maxval
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    return np.frombuffer(data[i : i + w * h], dtype=np.uint8).reshape(h, w)


def write_ndjson(path: str | Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
