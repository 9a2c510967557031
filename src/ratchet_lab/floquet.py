"""One-period propagator in a truncated momentum basis.

Independent of the split-step engine: the kick enters as a Toeplitz matrix of
Fourier coefficients, gathered by one index expression from the kick's FFT,
and the free flight as a diagonal, so repeated matrix application gives
ground-truth trajectories for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import MomentumLadder, NumericalFailure
from .model import EffectivePlanck, RatchetPotential, eval_potential

__all__ = ["FloquetMatrix", "build_kick_matrix", "build_floquet", "propagate"]


@dataclass(frozen=True, eq=False)
class FloquetMatrix:
    """One-period propagator on basis orders n in [-n_max, n_max]."""

    n_max: int
    beta: float
    hbar: EffectivePlanck
    entries: np.ndarray
    interior_unitarity_defect: float

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)


def _kick_coefficients(pot: RatchetPotential, hbar: EffectivePlanck, n_max: int) -> np.ndarray:
    """Fourier coefficients of exp(-i*K*v(x)/hbar_eff), c_d at index d mod len for |d| <= 2*n_max."""
    n_samples = 1 << max(10, (16 * n_max - 1).bit_length())
    x = 2.0 * math.pi * np.arange(n_samples) / n_samples
    f = np.exp(-1j * (pot.K / hbar.hbar_eff) * np.asarray(eval_potential(pot, x)))
    return np.fft.fft(f) / n_samples  # coeff[d] = (1/2pi) * integral f * exp(-i d x)


def build_kick_matrix(pot: RatchetPotential, hbar: EffectivePlanck, n_max: int) -> np.ndarray:
    """Toeplitz kick matrix, entry (n, m) = c_{n-m} of exp(-i*K*v/hbar_eff), by one index gather."""
    if n_max < 8:
        raise ValueError(f"n_max must be >= 8, got {n_max}")
    coeff = _kick_coefficients(pot, hbar, n_max)
    i = np.arange(2 * n_max + 1)
    return coeff[(i[:, None] - i[None, :]) % coeff.size]


def _free_phases(hbar: EffectivePlanck, beta: float, n_max: int) -> np.ndarray:
    n = np.arange(-n_max, n_max + 1)
    q = n + beta
    half_turns = np.mod((hbar.hbar_eff / math.pi) * 0.5 * q * q, 2.0)
    return np.exp(-1j * math.pi * half_turns)


def build_floquet(pot: RatchetPotential, hbar: EffectivePlanck, beta: float, n_max: int) -> FloquetMatrix:
    """One-period map U = D * Kmat: kick first, then diagonal free flight."""
    kick = build_kick_matrix(pot, hbar, n_max)
    u = _free_phases(hbar, beta, n_max)[:, None] * kick
    interior = slice(n_max - n_max // 2, n_max + n_max // 2 + 1)
    gram = u.conj().T @ u
    defect = float(np.max(np.abs(gram[interior, interior] - np.eye(n_max // 2 * 2 + 1))))
    return FloquetMatrix(n_max=n_max, beta=beta, hbar=hbar, entries=u, interior_unitarity_defect=defect)


def propagate(u: FloquetMatrix, initial: np.ndarray, n_kicks: int) -> MomentumLadder:
    """Apply the one-period map n_kicks times and return ladder probabilities.

    The initial coefficient vector (aligned with u.orders) must be supported
    on |n| <= n_max/4; if probability in the outer quarter of the basis ever
    exceeds 1e-8 (or is NaN), the run aborts with a truncation-breach failure.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be >= 0, got {n_kicks}")
    coeffs = np.asarray(initial, dtype=complex)
    if coeffs.shape != (2 * u.n_max + 1,):
        raise ValueError(f"initial vector must have length {2 * u.n_max + 1}, got {coeffs.shape}")
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        raise ValueError("initial vector must be nonzero")
    coeffs = coeffs / norm
    orders = u.orders
    if np.any((np.abs(coeffs) > 1e-14) & (np.abs(orders) > u.n_max / 4)):
        raise ValueError("initial support must lie within |n| <= n_max/4")
    outer = np.abs(orders) > 3 * u.n_max / 4
    for kick in range(1, n_kicks + 1):
        coeffs = u.entries @ coeffs
        leaked = float(np.sum(np.abs(coeffs[outer]) ** 2))
        if not leaked <= 1e-8:  # NaN fails too
            raise NumericalFailure(f"truncation breach: outer-quarter probability {leaked:.3e} at kick {kick}")
    probs = np.abs(coeffs) ** 2
    probs /= probs.sum()
    return MomentumLadder(beta=u.beta, orders=orders, probabilities=probs, hbar=u.hbar, grid_periods=1)

