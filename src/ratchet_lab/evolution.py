"""Split-operator propagation of the kicked wave on a periodic grid.

One flashing period is a position-space phase kick followed by a
momentum-space free flight. The state stores the periodic part
u(x) = psi(x) * exp(-i*beta*x), so the quasimomentum beta enters the free
flight as an exact diagonal parameter instead of a grid offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import EffectivePlanck, RatchetPotential, kick_phase_profile

__all__ = [
    "NumericalFailure",
    "SpatialGrid",
    "WaveState",
    "MomentumLadder",
    "KickedRunParams",
    "plane_wave",
    "state_from_orders",
    "kick_step",
    "free_step",
    "momentum_spectrum",
    "evolve",
    "scan_ladders",
    "ladder_record",
]

NORM_TOL = 1e-8  # norm drift beyond this signals an implementation bug
# Rows x grid points a scan propagates at once (1 MiB per complex array).
SCAN_BATCH_CELLS = 1 << 16


class NumericalFailure(RuntimeError):
    """Norm drift or basis-truncation breach during propagation."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid over `periods` potential periods of length 2*pi."""

    periods: int
    points_per_period: int

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.points_per_period < 2 or self.points_per_period % 2:
            raise ValueError(f"points_per_period must be a positive even integer, got {self.points_per_period}")
        if self.n < 32:
            raise ValueError(f"grid needs >= 32 points, got {self.n}")

    @property
    def n(self) -> int:
        return self.periods * self.points_per_period

    @property
    def dx(self) -> float:
        return 2.0 * math.pi / self.points_per_period

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @property
    def mode_numbers(self) -> np.ndarray:
        """FFT-ordered integer mode indices m; mode m has wavenumber m/periods."""
        return np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)


def _norm(amplitudes: np.ndarray, grid: SpatialGrid) -> float:
    return float(np.sum(np.abs(amplitudes) ** 2) * grid.dx)


@dataclass(frozen=True, eq=False)
class WaveState:
    """Periodic part of the wavefunction plus quasimomentum and kick count."""

    grid: SpatialGrid
    amplitudes: np.ndarray
    beta: float = 0.0
    kick_count: int = 0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.grid.n,):
            raise ValueError(f"amplitudes shape {amps.shape} does not match grid size {self.grid.n}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")
        drift = abs(self.norm - 1.0)
        if not drift <= NORM_TOL:  # NaN fails too
            raise NumericalFailure(f"state norm off unity by {drift:.3e}")

    @property
    def norm(self) -> float:
        return _norm(self.amplitudes, self.grid)


@dataclass(frozen=True, eq=False)
class MomentumLadder:
    """Probabilities over the discrete momentum ladder q_n = orders/periods + beta."""

    beta: float
    orders: np.ndarray
    probabilities: np.ndarray
    hbar: EffectivePlanck | None = None
    grid_periods: int = 1

    def __post_init__(self) -> None:
        orders = np.asarray(self.orders, dtype=int)
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "probabilities", probs)
        if orders.shape != probs.shape:
            raise ValueError("orders and probabilities must have matching shapes")
        if not np.all(probs >= -1e-12):  # NaN fails too
            raise ValueError("probabilities must be non-negative")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")

    @property
    def ladder_values(self) -> np.ndarray:
        """Momentum in potential-order units, q_n = n/periods + beta."""
        return self.orders / self.grid_periods + self.beta


@dataclass(frozen=True)
class KickedRunParams:
    """Potential, effective Planck constant, and kick count for one run."""

    potential: RatchetPotential
    hbar: EffectivePlanck
    n_kicks: int

    def __post_init__(self) -> None:
        if self.n_kicks < 1:
            raise ValueError(f"n_kicks must be >= 1, got {self.n_kicks}")


def plane_wave(grid: SpatialGrid, beta: float = 0.0, order: int = 0) -> WaveState:
    """Normalized plane wave on ladder rung `order` at quasimomentum beta."""
    amp = 1.0 / math.sqrt(2.0 * math.pi * grid.periods)
    u = amp * np.exp(1j * (order / grid.periods) * grid.x)
    return WaveState(grid=grid, amplitudes=u, beta=beta)


def state_from_orders(grid: SpatialGrid, order_amps: dict[int, complex], beta: float = 0.0) -> WaveState:
    """Normalized superposition of ladder rungs, e.g. {0: 1, 1: 1} for two rungs."""
    if not order_amps:
        raise ValueError("need at least one ladder amplitude")
    u = np.zeros(grid.n, dtype=complex)
    for order, amp in order_amps.items():
        u += amp * np.exp(1j * (order / grid.periods) * grid.x)
    u /= math.sqrt(_norm(u, grid))
    return WaveState(grid=grid, amplitudes=u, beta=beta)


def _kick_factor(pot: RatchetPotential, hbar: EffectivePlanck, grid: SpatialGrid) -> np.ndarray:
    """Flash factor exp(-i*K*v(x)/hbar_eff) on the grid points."""
    return np.exp(1j * kick_phase_profile(pot, hbar, grid.x))


def _flight_factor(grid: SpatialGrid, beta: float, hbar: EffectivePlanck) -> np.ndarray:
    """Free-flight factor exp(-i*hbar_eff*q^2/2) per FFT-ordered ladder value q.

    The phase is accumulated in units of pi and reduced mod 2 before the
    complex exponential, so rational multiples of pi (the resonant cases)
    evaluate to exact unimodular factors.
    """
    q = grid.mode_numbers / grid.periods + beta
    half_turns = np.mod((hbar.hbar_eff / math.pi) * 0.5 * q * q, 2.0)
    return np.exp(-1j * math.pi * half_turns)


def _orders(grid: SpatialGrid) -> np.ndarray:
    """Mode numbers in ascending (fftshift) order, read-only so a run's ladders can share them."""
    orders = np.fft.fftshift(grid.mode_numbers)
    orders.flags.writeable = False
    return orders


def _ladder(spectrum: np.ndarray, orders: np.ndarray, grid: SpatialGrid, beta: float,
            hbar: EffectivePlanck | None) -> MomentumLadder:
    probs = np.abs(spectrum) ** 2
    probs /= probs.sum()
    return MomentumLadder(
        beta=beta,
        orders=orders,
        probabilities=np.fft.fftshift(probs),
        hbar=hbar,
        grid_periods=grid.periods,
    )


def kick_step(state: WaveState, pot: RatchetPotential, hbar: EffectivePlanck) -> WaveState:
    """Multiply by the flash factor exp(-i*K*v(x)/hbar_eff); norm preserved."""
    return replace(state, amplitudes=state.amplitudes * _kick_factor(pot, hbar, state.grid))


def free_step(state: WaveState, hbar: EffectivePlanck) -> WaveState:
    """One unit of free flight: ladder value q picks up exp(-i*hbar_eff*q^2/2)."""
    spectrum = np.fft.fft(state.amplitudes)
    spectrum *= _flight_factor(state.grid, state.beta, hbar)
    return replace(state, amplitudes=np.fft.ifft(spectrum))


def momentum_spectrum(state: WaveState, hbar: EffectivePlanck | None = None) -> MomentumLadder:
    """Ladder probabilities |c_n|^2 from the discrete Fourier coefficients."""
    return _ladder(np.fft.fft(state.amplitudes), _orders(state.grid), state.grid, state.beta, hbar)


def _propagate(u: np.ndarray, kick: np.ndarray, flight: np.ndarray, dx: float,
               kicks: range, tap: Callable[[int, np.ndarray], None]) -> np.ndarray:
    """Flashing periods on the last axis of `u` (one row per run); returns the final rows.

    Callers build the kick and flight factors once per run; the transform
    handed to `tap(kick, spectrum)` is also the forward transform of the
    flight. A row whose norm drifts beyond NORM_TOL after a kick raises
    NumericalFailure naming the kick, with `row` set to that row's index.
    """
    for k in kicks:
        u = u * kick
        drift = np.abs(np.sum(np.abs(u) ** 2, axis=-1) * dx - 1.0)
        bad = np.flatnonzero(~(drift <= NORM_TOL))  # NaN fails too
        if bad.size:
            failure = NumericalFailure(f"norm drifted by {drift.flat[bad[0]]:.3e} at kick {k}")
            failure.row = int(bad[0])
            raise failure
        spectrum = np.fft.fft(u)
        tap(k, spectrum)
        spectrum *= flight
        u = np.fft.ifft(spectrum)
    return u


def evolve(
    state: WaveState,
    params: KickedRunParams,
    record: Callable[[int, MomentumLadder], None] | None = None,
) -> WaveState:
    """Apply n_kicks flashing periods (kick then free flight).

    After each kick the momentum spectrum is handed to `record(kick, ladder)`,
    matching a far-field tap right after each mirror encounter; the free
    flight that completes the period does not change the spectrum. Aborts with
    NumericalFailure if the norm drifts beyond 1e-8 after a kick; the returned
    state validates the final norm.
    """
    grid = state.grid
    orders = _orders(grid)

    def tap(kick: int, spectrum: np.ndarray) -> None:
        if record is not None:
            record(kick, _ladder(spectrum, orders, grid, state.beta, params.hbar))

    u = _propagate(state.amplitudes, _kick_factor(params.potential, params.hbar, grid),
                   _flight_factor(grid, state.beta, params.hbar), grid.dx,
                   range(state.kick_count + 1, state.kick_count + params.n_kicks + 1), tap)
    return replace(state, amplitudes=u, kick_count=state.kick_count + params.n_kicks)


def scan_ladders(grid: SpatialGrid, beta: float, runs: Sequence[tuple[RatchetPotential, EffectivePlanck]],
                 kicks_at: Iterable[int]) -> Iterator[tuple[int, int, MomentumLadder]]:
    """(run index, kick, ladder) of each (potential, hbar) run from the plane wave, at kicks_at.

    Each ladder is bitwise the one `evolve` records for that run alone. The
    runs propagate as the rows of one batch, in chunks of at most
    SCAN_BATCH_CELLS rows x grid points. A drifting row raises
    NumericalFailure naming its hbar_eff, K and the kick.
    """
    wanted = set(kicks_at)
    start = plane_wave(grid, beta).amplitudes
    orders = _orders(grid)
    size = max(1, SCAN_BATCH_CELLS // grid.n)
    for lo in range(0, len(runs), size):
        chunk = runs[lo:lo + size]
        ladders: list[tuple[int, int, MomentumLadder]] = []

        def tap(kick: int, spectrum: np.ndarray) -> None:
            if kick in wanted:
                ladders.extend((lo + i, kick, _ladder(row, orders, grid, beta, hbar))
                               for i, (row, (_pot, hbar)) in enumerate(zip(spectrum, chunk)))

        try:
            _propagate(np.tile(start, (len(chunk), 1)),
                       np.stack([_kick_factor(pot, hbar, grid) for pot, hbar in chunk]),
                       np.stack([_flight_factor(grid, beta, hbar) for _pot, hbar in chunk]),
                       grid.dx, range(1, max(wanted) + 1), tap)
        except NumericalFailure as exc:
            pot, hbar = chunk[exc.row]
            raise NumericalFailure(f"scan run hbar_eff={hbar.hbar_eff!r} K={pot.K!r}: {exc}") from None
        yield from ladders


def ladder_record(kick: int, ladder: MomentumLadder) -> dict:
    """One NDJSON-ready record of a per-kick spectrum."""
    return {
        "kick": int(kick),
        "beta": float(ladder.beta),
        "hbar": None if ladder.hbar is None else float(ladder.hbar.hbar_eff),
        "orders": ladder.orders.tolist(),
        "prob": ladder.probabilities.tolist(),
    }
