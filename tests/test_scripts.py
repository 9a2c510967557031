"""Smoke runs of the study scripts, so a change that breaks one fails here."""

import importlib.util
import math
import platform
import re
from pathlib import Path

import numpy as np

from ratchet_lab.config import parse_config
from ratchet_lab.evolution import KickedRunParams, SpatialGrid, evolve, plane_wave
from ratchet_lab.experiments import optical_kick_ladders, quantum_kick_ladders
from ratchet_lab.model import EffectivePlanck, RatchetPotential
from ratchet_lab.observables import distribution_linf, mean_momentum, mean_square_momentum

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_beam_width_study_worst_linf():
    study = load_script("beam_width_study")
    cfg = parse_config("", {"hbar": "0.5pi", "beam_width": repr(16 * study.PERIOD),
                            "beam_periods": "128", "beam_points_per_period": "128"})
    worst = study.worst_linf(cfg, 2)
    assert 0.0 < worst < 1e-2
    # the stacked difference gives the largest of the per-kick pair distances, bitwise
    quantum = quantum_kick_ladders(cfg, cfg.hbar, 2)
    optical = optical_kick_ladders(cfg, cfg.hbar, 2)
    assert worst == max(distribution_linf(quantum.orders, q, optical.orders, o)
                        for q, o in zip(quantum.probabilities, optical.probabilities))


def test_current_growth_study_trajectory():
    # the stacked moments are bitwise the single-run API's: evolve's per-kick ladders
    study = load_script("current_growth_study")
    rows = study.trajectory(0.5 * math.pi, 3)
    want = []
    evolve(plane_wave(SpatialGrid(1, 256)),
           KickedRunParams(RatchetPotential(K=1.0, alpha=0.3, phi=0.0), EffectivePlanck(0.5 * math.pi), 3),
           lambda k, lad: want.append((k, mean_momentum(lad), mean_square_momentum(lad))))
    assert len(rows) == 3 and rows == want


def test_artifact_digests_lines_repeat():
    digests = load_script("artifact_digests")
    argvs = [("evolve", "--hbar=0.5pi", "--n_kicks=3")]
    lines = digests.digest_lines(argvs)
    label = re.escape("evolve --hbar=0.5pi --n_kicks=3")
    assert [re.fullmatch(rf"[0-9a-f]{{64}}  {label}/([\w.]+)", line)[1] for line in lines] == [
        "run_manifest", "spectra.ndjson", "stats.csv"]
    assert digests.digest_lines(argvs) == lines


def test_artifacts_match_golden_digests():
    # regenerate with: PYTHONPATH=src python scripts/artifact_digests.py > tests/golden_digests.txt
    digests = load_script("artifact_digests")
    golden = (Path(__file__).resolve().parent / "golden_digests.txt").read_text().splitlines()
    header = [line for line in golden if line.startswith("#")]
    made_with = dict(line[2:].split(" ", 1) for line in header)
    assert made_with["numpy"] == np.__version__, (
        f"golden digests were made with numpy {made_with['numpy']}, this is numpy {np.__version__}; "
        "check the artifacts by hand and regenerate")
    lines, golden = digests.digest_lines(), golden[len(header):]
    made, want = ({label: digest for digest, label in (line.split("  ", 1) for line in side)}
                  for side in (lines, golden))
    moved = sorted(label for label in made.keys() | want.keys() if made.get(label) != want.get(label))
    assert lines == golden, (
        f"artifact bytes moved in {moved} "
        f"(golden made on {made_with['machine']}, this is {platform.machine()})")
