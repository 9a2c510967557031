"""Deterministic writers: CSV, binary PGM, NDJSON.

Floats are serialized with repr (shortest round-trip form), so identical runs
produce byte-identical files. The writers take numpy scalars too, but are
fastest on Python scalars: hand them rows built from `.tolist()`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["fmt", "write_csv", "write_pgm", "read_pgm", "write_ndjson"]


def fmt(value) -> str:
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, np.bool_, int)):  # booleans write as 1/0
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, columns: list[str], rows, comments: list[str] | None = None) -> None:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(fmt, row)))
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
