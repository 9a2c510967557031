"""Correctness checks run on a workload's artifacts, outside the timed window.

Each check returns a list of failure messages (empty when the output is
correct). The bounds are the acceptance suite's: 1e-8 between the engines and
the Floquet oracle, 1e-2 L-infinity between the quantum and optical engines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ratchet_lab.config import RunConfig
from ratchet_lab.evolution import NumericalFailure
from ratchet_lab import floquet
from ratchet_lab.model import EffectivePlanck

FLOQUET_N_MAX = 128
ORACLE_TOL = 1e-8
ENGINE_LINF = 1e-2
ALIAS_ORDER = 96
ALIAS_MASS = 1e-12
SUM_TOL = 1e-10
# The quantization sweep of compare_engines; at the 512-period correspondence
# beam the TV is not monotone below 8 levels even at the default physics
# (0.522, 0.414, 0.466 for 2, 4, 8 levels), so monotonicity is checked from 8 up.
SWEEP_LEVELS = (2, 4, 8, 16, 32, 64)
MONOTONE_FROM = 8

ARTIFACTS = {
    "figs": (
        "fig2_a.pgm", "fig2_a.csv", "fig2_b.pgm", "fig2_b.csv",
        "fig2_a_optical.pgm", "fig2_a_optical.csv", "fig2_b_optical.pgm", "fig2_b_optical.csv",
        "fig3_stats_res.csv", "fig3_stats_offres.csv", "fig3_fits.csv",
        "fig3_dist22_res.csv", "fig3_dist22_offres.csv", "fig4_scan.csv", "run_manifest",
    ),
    "compare": ("compare_engines.csv", "run_manifest"),
    "longrun": ("spectra.ndjson", "stats.csv", "run_manifest"),
}


def read_csv(path: Path) -> list[list[str]]:
    """Data rows of a ratchet-lab CSV (comments and header dropped)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _initial_coefficients() -> np.ndarray:
    init = np.zeros(2 * FLOQUET_N_MAX + 1, dtype=complex)
    init[FLOQUET_N_MAX] = 1.0
    return init


def _floquet(cfg: RunConfig, hbar_eff: float):
    # Called through the module so the traced run's span recorder sees it.
    return floquet.build_floquet(cfg.potential(), EffectivePlanck(hbar_eff), cfg.beta, FLOQUET_N_MAX)


def check_figs(cfg: RunConfig, out: Path) -> list[str]:
    """fig3 moment series at 0.5pi and 0.35pi against the Floquet oracle."""
    failures = []
    for hpi, tag in ((0.5, "res"), (0.35, "offres")):
        rows = read_csv(out / f"fig3_stats_{tag}.csv")
        if len(rows) != cfg.n_kicks:
            failures.append(f"fig3_stats_{tag}.csv has {len(rows)} rows, expected {cfg.n_kicks}")
            continue
        u = _floquet(cfg, hpi * math.pi)
        worst = 0.0
        for kick, mean_p, mean_p2, _participation in rows:
            try:
                ladder = floquet.propagate(u, _initial_coefficients(), int(kick))
            except NumericalFailure as exc:
                failures.append(f"fig3 {tag} Floquet oracle: {exc}")
                break
            q = ladder.ladder_values
            oracle = (float(np.sum(q * ladder.probabilities)), float(np.sum(q * q * ladder.probabilities)))
            worst = max(worst, abs(float(mean_p) - oracle[0]), abs(float(mean_p2) - oracle[1]))
        if worst > ORACLE_TOL:
            failures.append(f"fig3 {tag} moments differ from Floquet by {worst:.3e}")
    return failures


def check_compare(cfg: RunConfig, out: Path) -> list[str]:
    """Engine agreement, quantization-sweep convergence and the 16-level row."""
    failures = []
    rows = read_csv(out / "compare_engines.csv")
    linf = [float(r[3]) for r in rows if r[0] == "quantum_vs_optical"]
    if len(linf) != cfg.n_kicks:
        failures.append(f"{len(linf)} quantum_vs_optical rows, expected {cfg.n_kicks}")
    elif max(linf) > ENGINE_LINF:
        failures.append(f"quantum vs optical L_inf {max(linf):.3e} exceeds {ENGINE_LINF}")
    sweep = {int(r[2]): float(r[4]) for r in rows if r[0] == "quantization_sweep"}
    if sorted(sweep) != sorted(SWEEP_LEVELS):
        failures.append(f"quantization sweep levels {sorted(sweep)}, expected {list(SWEEP_LEVELS)}")
    else:
        tail = [sweep[n] for n in SWEEP_LEVELS if n >= MONOTONE_FROM]
        if any(b > a + 1e-12 for a, b in zip(tail, tail[1:])):
            failures.append(f"quantization sweep TV increases: {tail}")
    if not any(r[0] == "quantization_sweep" and r[1] == str(cfg.n_kicks) and r[2] == "16" for r in rows):
        failures.append("16-level quantization_sweep row missing")
    return failures


def check_longrun(cfg: RunConfig, out: Path) -> list[str]:
    """Every row sums to 1, no mass near the grid edge, final kick matches Floquet."""
    failures = []
    with open(out / "spectra.ndjson", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    if [r["kick"] for r in records] != list(range(1, cfg.n_kicks + 1)):
        return [f"spectra.ndjson kicks are not 1..{cfg.n_kicks}"]
    worst_sum = max(abs(math.fsum(r["prob"]) - 1.0) for r in records)
    if worst_sum > SUM_TOL:
        failures.append(f"a spectra.ndjson row sums to 1 only within {worst_sum:.3e}")
    final = records[-1]
    orders = np.asarray(final["orders"])
    probs = np.asarray(final["prob"])
    edge = float(probs[np.abs(orders) >= ALIAS_ORDER].sum())
    if edge >= ALIAS_MASS:
        failures.append(f"final mass at |n| >= {ALIAS_ORDER} is {edge:.3e}")
    try:
        oracle = floquet.propagate(_floquet(cfg, cfg.hbar), _initial_coefficients(), cfg.n_kicks)
    except NumericalFailure as exc:
        return failures + [f"longrun Floquet oracle: {exc}"]
    reference = dict(zip(oracle.orders.tolist(), oracle.probabilities.tolist()))
    worst = max(abs(p - reference[n]) for n, p in zip(orders.tolist(), probs.tolist()))
    if worst > ORACLE_TOL:
        failures.append(f"final distribution differs from Floquet by {worst:.3e}")
    if len(read_csv(out / "stats.csv")) != cfg.n_kicks:
        failures.append(f"stats.csv does not hold {cfg.n_kicks} rows")
    return failures


CHECKS = {"figs": check_figs, "compare": check_compare, "longrun": check_longrun}


def missing_artifacts(workload: str, out: Path) -> list[str]:
    return [f"missing artifact {name}" for name in ARTIFACTS[workload] if not (out / name).is_file()]


def snapshot(out: Path) -> dict[str, bytes]:
    """Every artifact's bytes, keyed by file name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
