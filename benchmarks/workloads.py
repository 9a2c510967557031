"""Seeded workload generator.

Each workload is one `ratchet-lab` subcommand. The seed draws only physics
parameters; every key that sets the amount of work (grid and window sizes,
kick counts, scan grid) is pinned, and the mirror-level list is fixed inside
`compare_engines`, so every seed performs the same number of kicks, bounces
and FFTs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Box around the experimental setting (K=1, alpha=0.3, phi=0) in which both
# engines agree to better than 1e-2 at the correspondence beam and the
# quantization sweep converges monotonically from 8 levels up.
K_RANGE = (0.8, 1.2)
ALPHA_RANGE = (0.2, 0.4)
PHI_RANGE = (-0.4, 0.4)

# longrun draws hbar_eff/pi from this range and rejects any value within
# RESONANCE_TOL of hbar_eff/(4*pi) = r/s for s <= RESONANCE_S_MAX. Below
# 0.55*pi the kick K/hbar_eff is strong enough that 2000 kicks push mass past
# |n| = 96, where the 256-point grid starts to alias.
LONGRUN_HBAR_OVER_PI = (0.55, 1.8)
RESONANCE_S_MAX = 16
RESONANCE_TOL = 0.005

CORRESPONDENCE_PERIODS = 512
CORRESPONDENCE_WIDTH_PERIODS = 64
MIRROR_PERIOD_M = 600e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    fixed: dict[str, str]
    draw: Callable[[random.Random], dict[str, str]]

    def overrides(self, seed: int) -> dict[str, str]:
        """Config keys handed to the program: the pinned work plus the seeded physics."""
        return {**self.fixed, **self.draw(random.Random(seed))}

    def argv(self, seed: int, out_dir: str) -> list[str]:
        flags = [f"--{key}={value}" for key, value in self.overrides(seed).items()]
        return [self.subcommand, *flags, "--out", str(out_dir)]


def _draw_potential(rng: random.Random) -> dict[str, str]:
    return {
        "K": repr(round(rng.uniform(*K_RANGE), 6)),
        "alpha": repr(round(rng.uniform(*ALPHA_RANGE), 6)),
        "phi": repr(round(rng.uniform(*PHI_RANGE), 6)),
    }


def near_resonance(hbar_over_pi: float, s_max: int = RESONANCE_S_MAX,
                   tol: float = RESONANCE_TOL) -> bool:
    """True if hbar_eff/(4*pi) lies within tol of some r/s with s <= s_max."""
    y = Fraction(hbar_over_pi) / 4
    for s in range(1, s_max + 1):
        r = round(y * s)
        if r >= 1 and abs(y - Fraction(r, s)) <= tol:
            return True
    return False


def _draw_offresonant_hbar(rng: random.Random) -> dict[str, str]:
    while True:
        hbar_over_pi = round(rng.uniform(*LONGRUN_HBAR_OVER_PI), 4)
        if not near_resonance(hbar_over_pi):
            return {"hbar": f"{hbar_over_pi!r}pi"}


# Keys shared by every workload; the defaults today, pinned so a change of
# default never changes the amount of work measured.
_QUANTUM_GRID = {"periods": "1", "points_per_period": "256"}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="figs",
            why=("evolution and experiments dominate; the only workload with many small "
                 "independent runs on the thread pool, so a batching change shows its mechanism"),
            subcommand="figs",
            fixed={
                "hbar": "0.5pi", "engine": "both", "n_kicks": "22", **_QUANTUM_GRID,
                "beam_periods": "64", "beam_points_per_period": "128",
                "scan_hbar_min": "0.02pi", "scan_hbar_max": "2pi", "scan_hbar_step": "0.02pi",
                "scan_kicks_at": "21,5", "scan_mode": "fixed-k",
            },
            draw=_draw_potential,
        ),
        Workload(
            name="compare",
            why=("optics and observables dominate and evolution does almost none; "
                 "65536-sample fields put the working set outside cache"),
            subcommand="compare",
            fixed={
                "hbar": "0.5pi", "n_kicks": "22", **_QUANTUM_GRID,
                "beam_periods": str(CORRESPONDENCE_PERIODS), "beam_points_per_period": "128",
                "beam_width": repr(CORRESPONDENCE_WIDTH_PERIODS * MIRROR_PERIOD_M),
            },
            draw=_draw_potential,
        ),
        Workload(
            name="longrun",
            why=("one serial 2000-kick chain that no batch axis or pool can spread, "
                 "and the only write-heavy workload (13 MB of NDJSON)"),
            subcommand="evolve",
            fixed={"n_kicks": "2000", **_QUANTUM_GRID},
            draw=_draw_offresonant_hbar,
        ),
    )
}
