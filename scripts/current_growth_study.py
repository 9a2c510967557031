#!/usr/bin/env python3
"""Long-horizon look at the resonant directed current from a beta=0 plane wave.

At hbar_eff = 0.5*pi the mean momentum rides a ~7-kick oscillation on top of
a slow linear drift (~+0.0185 orders/kick), so short windows look oscillatory
while long windows reveal the ballistic transport. At hbar_eff = pi and 2*pi
the free flight reduces to a half-period translation and the mean momentum of
any uniform-modulus state is conserved exactly; the energy still grows
ballistically there. This script prints all three behaviors side by side.
"""

import argparse
import math

from ratchet_lab.config import parse_config
from ratchet_lab.experiments import quantum_kick_ladders
from ratchet_lab.observables import _kick_stats


def trajectory(hbar_eff: float, n_kicks: int):
    """(kick, <p>, <p^2>) of every kick at K=1, alpha=0.3, phi=0 on one period of 256 points."""
    cfg = parse_config("", {"hbar": repr(hbar_eff), "n_kicks": str(n_kicks), "K": "1", "alpha": "0.3",
                            "phi": "0", "periods": "1", "points_per_period": "256"})
    stats = _kick_stats(quantum_kick_ladders(cfg, hbar_eff, n_kicks))
    return [(s.kick, s.mean_p, s.mean_p2) for s in stats]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kicks", type=int, default=100)
    args = parser.parse_args()
    for hpi in (0.5, 1.0, 2.0, 0.35):
        rows = trajectory(hpi * math.pi, args.kicks)
        print(f"\nhbar_eff = {hpi}*pi")
        print(f"{'kick':>6} {'<p>':>12} {'<p^2>':>12}")
        for k, p, p2 in rows:
            if k <= 5 or k % 10 == 0:
                print(f"{k:>6} {p:>12.5f} {p2:>12.4f}")


if __name__ == "__main__":
    main()
