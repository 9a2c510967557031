#!/usr/bin/env python3
"""Quantify how the quantum-optical agreement depends on the beam width.

A finite beam carries a spread of quasimomenta of width ~ l/(pi*w) around
zero, and over many kicks those components dephase from the beta=0 ladder.
This sweep measures the worst per-kick L_inf distance between the two
engines' order distributions as the 1/e^2 half-width grows, which is how the
width used by the correspondence acceptance run was chosen.
"""

import argparse
import time

from ratchet_lab.config import parse_config
from ratchet_lab.experiments import optical_kick_ladders, quantum_kick_ladders
from ratchet_lab.observables import _difference, _linf

PERIOD = 600e-6


def worst_linf(cfg, n_kicks: int) -> float:
    """Largest per-kick L_inf between the two engines' ladder stacks, one stacked difference."""
    quantum = quantum_kick_ladders(cfg, cfg.hbar, n_kicks)
    optical = optical_kick_ladders(cfg, cfg.hbar, n_kicks)
    diff = _difference(quantum.orders, quantum.probabilities, optical.orders, optical.probabilities)
    return max(_linf(diff))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kicks", type=int, default=22)
    parser.add_argument("--hbar", default="0.5pi")
    args = parser.parse_args()
    print(f"hbar={args.hbar}, {args.kicks} kicks")
    print(f"{'width/periods':>14} {'window':>8} {'worst Linf':>12} {'seconds':>8}")
    for width_periods, window in ((5, 64), (8, 64), (16, 128), (32, 256), (64, 512), (128, 1024)):
        cfg = parse_config("", {
            "hbar": args.hbar,
            "beam_width": repr(width_periods * PERIOD),
            "beam_periods": str(window),
            "beam_points_per_period": "128",
        })
        t0 = time.time()
        linf = worst_linf(cfg, args.kicks)
        print(f"{width_periods:>14} {window:>8} {linf:>12.3e} {time.time() - t0:>8.1f}")


if __name__ == "__main__":
    main()
