#!/usr/bin/env python3
"""sha256 of every artifact the reference CLI runs write, one line per file.

    PYTHONPATH=src python scripts/artifact_digests.py > digests.txt

Each argv in ARGVS runs through `ratchet_lab.cli.main` into its own temporary
directory, and the script prints `sha256  <argv-label>/<file>` for every file
written, sorted by label and name, after two `#` lines naming the numpy
version and the machine. Byte identity between two checkouts is then a `diff`
of their outputs. The same output, checked in as `tests/golden_digests.txt`,
is what the test suite compares every artifact against.
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from ratchet_lab.cli import main as cli_main

ARGVS = (
    ("figs", "--hbar=0.5pi"),
    # the beam engine alone: fig 2's two bounce runs, one batch, write the fig2_{a,b} panels
    ("figs", "--hbar=0.5pi", "--engine=optical"),
    ("scan", "--hbar=0.5pi", "--scan_mode=fixed-kick-phase"),
    ("scan", "--hbar=0.5pi", "--scan_mode=both"),
    ("compare", "--hbar=0.5pi"),
    # a beam 64 periods wide on 512: its bounces run 21 of the 512 classes, dropping 3.3e-16
    ("compare", "--hbar=0.5pi", "--beam_periods=512", "--beam_width=0.0384"),
    ("evolve", "--distance=0.169172", "--n_kicks=22"),
    # a quantum grid of 4 periods from the plane wave: classes 1-3 are dropped, exact zeros
    ("evolve", "--hbar=0.5pi", "--periods=4", "--n_kicks=22"),
    ("optical", "--hbar=0.35pi", "--n_levels=16"),
    ("optical", "--hbar=0.35pi", "--beam_periods=9", "--beam_points_per_period=65"),
)


def digest_lines(argvs=ARGVS) -> list[str]:
    """`sha256  <argv-label>/<file>` for every artifact of every argv; raises if a run fails."""
    lines = []
    for argv in argvs:
        label = " ".join(argv)
        with tempfile.TemporaryDirectory() as tmp:
            code = cli_main([*argv, f"--out={tmp}"])
            if code != 0:
                raise RuntimeError(f"`{label}` exited {code}")
            for path in sorted(Path(tmp).rglob("*")):
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {label}/{path.relative_to(tmp).as_posix()}")
    return lines


def header_lines() -> list[str]:
    """The numpy version and the machine the digests were made with: float bits may differ on others."""
    return [f"# numpy {np.__version__}", f"# machine {platform.machine()}"]


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in header_lines() + digest_lines()))
