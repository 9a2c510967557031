"""The benchmark's own tests.

    python3 -m pytest benchmarks/test_benchmark.py -q

They check that every seed does the same work, that longrun never draws a
resonant hbar_eff, that traced and untraced invocations write byte-identical
artifacts, that the exact counts equal the values derived from the code, and
that BENCHMARK.json lists exactly what the benchmark reports.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports ratchet_lab from src/)
from ratchet_lab.config import parse_config  # noqa: E402
from ratchet_lab.model import EffectivePlanck, resonance_check  # noqa: E402
from spans import SpanRecorder, layer_metrics  # noqa: E402
from workloads import RESONANCE_S_MAX, RESONANCE_TOL, WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)
EXACT = ("evolution.kicks", "optics.bounces", "evolution.fft_calls", "evolution.fft_points",
         "optics.fft_calls", "optics.fft_points")


def traced_invocation(name: str, seed: int, work_dir: Path):
    """One untraced (checked) and one traced invocation; returns (runs, traced metrics)."""
    runs = run.Invocations(WORKLOADS[name], seed, work_dir)
    runs.run()
    recorder = SpanRecorder()
    with recorder:
        runs.run()
    assert recorder.unattributed_ffts == 0
    return runs, layer_metrics(recorder.spans)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced metrics per (workload, seed), with the invocation tallies."""
    results = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            work_dir = tmp_path_factory.mktemp(f"{name}-{seed}")
            results[name, seed] = traced_invocation(name, seed, work_dir)
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_only_physics(name):
    workload = WORKLOADS[name]
    drawn_keys = set(workload.draw(random.Random(0)))
    assert not drawn_keys & set(workload.fixed)
    drawn = [workload.overrides(seed) for seed in range(20)]
    for overrides in drawn:
        assert set(overrides) == set(workload.fixed) | drawn_keys
        assert {key: overrides[key] for key in workload.fixed} == workload.fixed
    assert workload.overrides(7) == workload.overrides(7)
    assert len({json.dumps(o, sort_keys=True) for o in drawn}) == len(drawn)


def test_longrun_never_draws_a_resonant_hbar():
    for seed in range(300):
        cfg = parse_config("", WORKLOADS["longrun"].overrides(seed))
        assert resonance_check(EffectivePlanck(cfg.hbar), RESONANCE_S_MAX, RESONANCE_TOL) is None, seed
        assert resonance_check(EffectivePlanck(cfg.hbar), 8, 1e-3) is None, seed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_invocations_match_untraced_and_checks_pass(traced, name):
    for seed in SEEDS:
        runs, _ = traced[name, seed]
        assert runs.failed == 0, runs.messages
        assert runs.attempted == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_seed_does_the_same_work(traced, name):
    counts = [{key: traced[name, seed][1][key] for key in EXACT} for seed in SEEDS]
    assert all(c == counts[0] for c in counts)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_derived_from_the_code(traced, name):
    for seed in SEEDS:
        m = traced[name, seed][1]
        assert m["evolution.ffts_per_kick"] == 3
        assert m["optics.ffts_per_bounce"] == (3 if m["optics.bounces"] else 0)
        # one kick phase per kick, plus one per mirror the optical engine builds
        assert m["model.kick_phase_calls"] == m["evolution.kicks"] + m["optics.build_mirror_calls"]
    if name == "compare":
        assert m["experiments.bounce_unique_ratio"] == 0.875
        assert m["optics.bounces"] == 8 * 22
    if name == "figs":
        assert m["evolution.kicks"] == 100 * 21 + 4 * 22
        assert m["optics.bounces"] == 2 * 22
    if name == "longrun":
        assert m["model.kick_phase_calls"] == m["evolution.kicks"] == 2000
        assert m["fileio.bytes"] > 10_000_000


def test_benchmark_json_lists_what_the_benchmark_reports(traced):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    reported = set(traced["figs", 1][1]) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "figs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
