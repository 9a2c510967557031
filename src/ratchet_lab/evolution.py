"""Split-operator propagation of the kicked wave on a periodic grid.

One flashing period is a position-space phase kick followed by a
momentum-space free flight. The state stores the periodic part
u(x) = psi(x) * exp(-i*beta*x), so the quasimomentum beta enters the free
flight as an exact diagonal parameter instead of a grid offset.

`_split_step` is the one propagation core of both engines: it runs batches
of runs in place, in chunks, through the kick/FFT/tap/flight/IFFT loop, and
holds the drift guard that names a failing run. A run's field has a class
axis: P quasimomentum classes of S samples, transformed along S. At every
tap the core squares the spectrum once, and a tap function reduces the
squares into the rows the consumer reads and returns each row's total
power; the core guards that total and scales the rows to unit sum, the one
place a tap becomes probabilities. `evolve` and `scan_probabilities` feed it
one class, the kick and flight factors and the default tap `_class_power`,
the one fftshift into full rows; `optics` feeds it the quasimomentum
classes (one per mirror period) that carry the beam, one period of the
mirror reflection, those classes' rows of the Fresnel kernel, and a tap that
sums the squares straight into diffraction orders (for a CCD image it also
lays them out as full rows through `_class_power`, scaled as the core
scales). The resonance scan works out its
statistics per chunk, as array operations on the core's rows, and builds no
per-run ladder. Single runs go through `evolve`; the figure pipeline makes
the two that fig 2 and fig 3 share only once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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
    "scan_probabilities",
    "ladder_record",
]

NORM_TOL = 1e-8  # norm drift beyond this signals an implementation bug
_NORM_DRIFT = "norm drifted by {:.3e} at kick {}"
# Rows x samples a batched scan or bounce propagates at once (8 MiB per complex array).
BATCH_CELLS = 1 << 19


_Run = TypeVar("_Run")


class NumericalFailure(RuntimeError):
    """Norm drift or basis-truncation breach during propagation, or a kick phase that overflows."""


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


def _norm(amplitudes: np.ndarray, dx: float) -> float:
    """Sum of |amplitude|^2 * dx: a wave state's norm, and a beam's power (optics calls it too)."""
    return float(np.sum(np.abs(amplitudes) ** 2) * dx)


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
        return _norm(self.amplitudes, self.grid.dx)


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
        _check_probabilities(probs)

    @property
    def ladder_values(self) -> np.ndarray:
        """Momentum in potential-order units, q_n = n/periods + beta."""
        return self.orders / self.grid_periods + self.beta


def _check_probabilities(probs: np.ndarray) -> None:
    """Raise ValueError unless every row (last axis) of probs is non-negative and sums to 1."""
    if not probs.min(initial=0.0) >= -1e-12:  # NaN fails too
        raise ValueError("probabilities must be non-negative")
    totals = probs.sum(axis=-1)
    ok = abs(totals - 1.0) <= 1e-10  # NaN fails too
    if not ok.all():
        raise ValueError(f"probabilities must sum to 1, got {float(np.ravel(totals)[np.argmin(ok)])!r}")


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
    u /= math.sqrt(_norm(u, grid.dx))
    return WaveState(grid=grid, amplitudes=u, beta=beta)


def _kick_factor(pot: RatchetPotential, hbar: EffectivePlanck, x: np.ndarray) -> np.ndarray:
    """Flash factor exp(-i*K*v(x)/hbar_eff) on the grid points x."""
    return np.exp(1j * kick_phase_profile(pot, hbar, x))


def _ladder_values(grid: SpatialGrid, beta: float) -> np.ndarray:
    """FFT-ordered ladder values q = m/periods + beta of the grid's modes."""
    return grid.mode_numbers / grid.periods + beta


def _flight_factor(q: np.ndarray, hbar: EffectivePlanck) -> np.ndarray:
    """Free-flight factor exp(-i*hbar_eff*q^2/2) per FFT-ordered ladder value q.

    The phase is accumulated in units of pi and reduced mod 2 before the
    complex exponential, so rational multiples of pi (the resonant cases)
    evaluate to exact unimodular factors.
    """
    half_turns = np.mod((hbar.hbar_eff / math.pi) * 0.5 * q * q, 2.0)
    return np.exp(-1j * math.pi * half_turns)


def _orders(grid: SpatialGrid) -> np.ndarray:
    """Mode numbers in ascending (fftshift) order, read-only so a run's ladders can share them."""
    orders = np.fft.fftshift(grid.mode_numbers)
    orders.flags.writeable = False
    return orders


def kick_step(state: WaveState, pot: RatchetPotential, hbar: EffectivePlanck) -> WaveState:
    """Multiply by the flash factor exp(-i*K*v(x)/hbar_eff); norm preserved."""
    return replace(state, amplitudes=state.amplitudes * _kick_factor(pot, hbar, state.grid.x))


def free_step(state: WaveState, hbar: EffectivePlanck) -> WaveState:
    """One unit of free flight: ladder value q picks up exp(-i*hbar_eff*q^2/2)."""
    spectrum = np.fft.fft(state.amplitudes)
    spectrum *= _flight_factor(_ladder_values(state.grid, state.beta), hbar)
    return replace(state, amplitudes=np.fft.ifft(spectrum))


def momentum_spectrum(state: WaveState, hbar: EffectivePlanck | None = None) -> MomentumLadder:
    """Ladder probabilities |c_n|^2 from the discrete Fourier coefficients, scaled as the core's taps."""
    probs = np.empty(state.grid.n)
    probs *= 1.0 / _class_power(np.abs(np.fft.fft(state.amplitudes))[None] ** 2, probs)
    return MomentumLadder(state.beta, _orders(state.grid), probs, hbar, state.grid.periods)


def _class_power(squares: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Fill `power` with the fftshifted window power of class squares, zero order at column
    n//2, and return its sums along the last axis: the core's default tap, and the one fftshift.

    squares is (rows, P, S) for (rows, n = P*S) rows, or (P, S) for one row. Class r's line m is
    window line k = r + P*m, so the squares with their last two axes swapped are the window
    lines in FFT order; two slice copies fftshift them, line k to column (k + n//2) mod n.
    """
    n = power.shape[-1]
    h = n // 2  # the last h lines move to the front
    lines = squares.swapaxes(-1, -2).reshape(power.shape)
    power[..., :h] = lines[..., n - h:]
    power[..., h:] = lines[..., :n - h]
    return power.sum(axis=-1)


def _split_step(start: np.ndarray, runs: Sequence[_Run], kick: Callable[[_Run], np.ndarray],
                flight: np.ndarray | Callable[[_Run], np.ndarray], kicks: range, dx: float, norm: float,
                drift_message: str, name: Callable[[_Run], str],
                tap: Callable[[np.ndarray, np.ndarray], np.ndarray] = _class_power,
                width: int | None = None) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Kick/flight periods of every run from the field `start`, one batch row per run.

    `start` is one run's field: an (n,) vector, or P quasimomentum classes of
    S samples as a (P, S) array, n = P*S. A vector is one class (P = 1). Each
    period multiplies by the run's position-space factor `kick(run)`, S
    samples broadcast over the classes, takes the forward FFT along the last
    axis, taps, multiplies by the momentum-space factor and takes the inverse
    FFT, all in place. `flight` is one factor of `start`'s shape shared by
    every run or, like `kick`, built per run. The runs propagate in chunks of
    at most BATCH_CELLS rows x n samples, and the buffers are built once and
    reused by every chunk.

    At each tap the core squares the chunk's spectrum once, into a real
    (rows, P, S) buffer (class r's line m is the window's line r + P*m).
    `tap(squares, rows)` reduces them into `rows`, one row of `width`
    columns (n by default) per run, and returns each row's total: the run's
    whole tapped power. Each row is then scaled in place by the reciprocal
    of its total, and the core yields (index of the chunk's first run, kick,
    spectrum, rows), one spectrum row of `start`'s shape per run. The
    buffers are reused, so the consumer copies what it keeps. Control
    returns at every tap, so no chunk's results pile up. The flight after
    the last tap is skipped: the last yielded spectrum is still the last
    kick's once the generator ends.

    Before the scaling, a row whose power, its total * dx / n by Parseval,
    drifts from `norm` by more than NORM_TOL relative, or is not finite,
    raises NumericalFailure with text name(run) +
    drift_message.format(relative drift, kick).
    """
    n = start.size
    classes, s = (1, n) if start.ndim == 1 else start.shape
    size = min(len(runs), max(1, BATCH_CELLS // n))
    field = np.empty((size, classes, s), dtype=complex)
    squares = np.empty(field.shape)
    position = np.empty((size, 1, s), dtype=complex)
    momentum = (np.empty_like(field) if callable(flight)
                else np.broadcast_to(np.reshape(flight, (classes, s)), field.shape))
    rows = np.empty((size, n if width is None else width))
    tol = NORM_TOL * norm
    for lo in range(0, len(runs), size):
        chunk = runs[lo:lo + size]
        for i, run in enumerate(chunk):
            position[i, 0] = kick(run)
            if callable(flight):
                momentum[i] = np.reshape(flight(run), (classes, s))
        u, sq, pos, mom, p = (buffer[:len(chunk)] for buffer in (field, squares, position, momentum, rows))
        u[:] = np.reshape(start, (classes, s))
        spectrum = u.reshape(len(chunk), *start.shape)
        for k in kicks:
            # u stays the left operand: complex SIMD multiply is not bitwise commutative
            np.multiply(u, pos, out=u)
            np.fft.fft(u, out=u)
            np.abs(u, out=sq)
            np.square(sq, out=sq)
            totals = tap(sq, p)
            drift = np.abs(totals * dx / n - norm)
            bad = np.flatnonzero(~(drift <= tol))  # NaN fails too
            if bad.size:
                raise NumericalFailure(name(chunk[bad[0]]) + drift_message.format(drift[bad[0]] / norm, k))
            p *= (1.0 / totals)[:, None]
            yield lo, k, spectrum, p
            if k != kicks[-1]:
                np.multiply(u, mom, out=u)
                np.fft.ifft(u, out=u)


def evolve(
    state: WaveState,
    params: KickedRunParams,
    record: Callable[[int, MomentumLadder], None] | None = None,
) -> WaveState:
    """Apply n_kicks flashing periods (kick then free flight).

    After each kick the momentum spectrum is handed to `record(kick, ladder)`,
    matching a far-field tap right after each mirror encounter; the free
    flight that completes the period does not change the spectrum. The core
    stops at the last tap, so `evolve` finishes the last period itself. Aborts
    with NumericalFailure if the norm drifts beyond 1e-8 after a kick; the
    returned state validates the final norm.
    """
    grid = state.grid
    orders = _orders(grid)
    flight = _flight_factor(_ladder_values(grid, state.beta), params.hbar)
    kicks = range(state.kick_count + 1, state.kick_count + params.n_kicks + 1)
    for _lo, k, spectrum, probs in _split_step(
            state.amplitudes, [params], lambda run: _kick_factor(run.potential, run.hbar, grid.x),
            flight, kicks, grid.dx, 1.0, _NORM_DRIFT, lambda _run: ""):
        if record is not None:
            record(k, MomentumLadder(state.beta, orders, probs[0].copy(), params.hbar, grid.periods))
    # the spectrum stays the left operand, as in the core's flights
    return replace(state, amplitudes=np.fft.ifft(spectrum[0] * flight), kick_count=kicks[-1])


def scan_probabilities(grid: SpatialGrid, beta: float,
                       runs: Sequence[tuple[RatchetPotential, EffectivePlanck]],
                       kicks_at: Iterable[int]) -> Iterator[tuple[int, int, np.ndarray]]:
    """(index of the chunk's first run, kick, probabilities) of (potential, hbar) runs from the plane wave.

    The runs propagate as the rows of one batch, in chunks of at most
    BATCH_CELLS rows x grid points. At each kick of kicks_at the chunk's
    ladder probabilities are yielded as one (rows, n) array, one row per run,
    with ladder order j - n//2 in column j (the ascending orders of a
    MomentumLadder). Each row is bitwise the ladder `evolve` records for that
    run alone and passes MomentumLadder's checks. The array is the core's
    reused probability buffer: the consumer copies what it keeps and may
    overwrite it. A drifting row raises NumericalFailure naming its hbar_eff,
    K and the kick.
    """
    wanted = set(kicks_at)
    x = grid.x
    q = _ladder_values(grid, beta)
    for lo, k, _spectrum, probs in _split_step(
            plane_wave(grid, beta).amplitudes, runs, lambda run: _kick_factor(*run, x),
            lambda run: _flight_factor(q, run[1]), range(1, max(wanted) + 1), grid.dx, 1.0,
            _NORM_DRIFT, lambda run: f"scan run hbar_eff={run[1].hbar_eff!r} K={run[0].K!r}: "):
        if k in wanted:
            _check_probabilities(probs)
            yield lo, k, probs


def ladder_record(kick: int, ladder: MomentumLadder) -> dict:
    """One NDJSON-ready record of a per-kick spectrum."""
    return {
        "kick": int(kick),
        "beta": float(ladder.beta),
        "hbar": None if ladder.hbar is None else float(ladder.hbar.hbar_eff),
        "orders": ladder.orders.tolist(),
        "prob": ladder.probabilities.tolist(),
    }
