"""Split-operator propagation of the kicked wave on a periodic grid.

One flashing period is a position-space phase kick followed by a
momentum-space free flight. The state stores the periodic part
u(x) = psi(x) * exp(-i*beta*x), so the quasimomentum beta enters the free
flight as an exact diagonal parameter instead of a grid offset.

`_split_step` is the one propagation core of both engines. Every run hands it
a window's samples and the P periods they span; a periodic kick or mirror
couples only spectral lines P apart, so the core splits the window into P
quasimomentum classes of S samples, keeps the K classes that carry all but at
most CLASS_DROP_TOL of the weight, and runs batches of runs in place, in
chunks, as (rows, K, S) fields through the kick/FFT/tap/flight/IFFT loop. At
every tap it squares the spectrum once, a tap function reduces the squares
into the consumer's rows and returns their totals, and the core guards the
totals (naming a failing run) and scales the rows to unit sum, the one place
a tap becomes probabilities. `evolve` and `scan_probabilities` use the
default tap `_class_power`, the one fftshift into full rows; `optics` sums
the squares into diffraction orders. A driver's run is one `MomentumLadder`,
the run's checked (kicks, orders) stack (a quantum run is a
`scan_probabilities` batch of one), and `evolve` the single-run API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Container, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .model import EffectivePlanck, RatchetPotential, _kick_phase, eval_potential, kick_phase_profile

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
# Largest share of a run's weight the core may leave in the classes it does not propagate.
CLASS_DROP_TOL = 1e-15
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
    """Probabilities over the discrete momentum ladder q_n = orders/periods + beta: one row
    over `orders`, or a run's (kicks, orders) stack, row k-1 after kick k, each row checked."""

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
        if probs.shape[-1:] != orders.shape:
            raise ValueError("orders and each row of probabilities must have matching shapes")
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


def _class_power(squares: np.ndarray, power: np.ndarray, columns: np.ndarray | None = None) -> np.ndarray:
    """Fill `power` with the fftshifted window power of class squares, zero order at column
    n//2, and return its sums along the last axis: the core's default tap, and the one fftshift.

    squares is (rows, K, S) for (rows, n = P*S) rows, or (K, S) for one row, of K of the P = n/S
    classes: all, in order, by default, or those whose line m goes to column columns[i, m].
    Class r's line m is window line k = r + P*m, which the fftshift moves to column
    (k + n//2) mod n. With every class, the squares with their last two axes swapped are the
    window lines in FFT order, and two slice copies shift them. With fewer, each row's squares
    go straight into its columns, and every other column of `power` must hold zero already, as
    a row zeroed once per run does; each sum still runs over the full row.
    """
    n = power.shape[-1]
    if columns is None or columns.size == n:
        h = n // 2  # the last h lines move to the front
        lines = squares.swapaxes(-1, -2).reshape(power.shape)
        power[..., :h] = lines[..., n - h:]
        power[..., h:] = lines[..., :n - h]
    else:
        flat = columns.reshape(-1)
        # one flat index per row: numpy scatters it 2-3 times faster than a (K, S) index
        for row, kept in zip(power.reshape(-1, n), squares.reshape(-1, flat.size)):
            row[flat] = kept
    return power.sum(axis=-1)


def _spectrum_power(spectrum: np.ndarray) -> np.ndarray:
    """Each row's sum of |spectrum|^2, one pass over its float view: an untapped kick's total."""
    w = spectrum.view(float).reshape(len(spectrum), -1)
    return np.einsum("ij,ij->i", w, w)


def _period_spectrum(samples: np.ndarray, periods: int) -> np.ndarray:
    """F[r, s], the FFT over the period axis of samples.reshape(periods, S): row r is class r
    before its phase (`_class_field`), and sum_s |F[r, s]|^2 is class r's weight."""
    return np.fft.fft(samples.reshape(periods, -1), axis=0)


def _class_field(spectrum: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The window's quasimomentum classes `classes`, as rows W[i, s] = exp(-2*pi*i*r*s/n) * F[r, s]
    for r = classes[i], with F = `spectrum` the window's `_period_spectrum` and n = P*S.

    The FFT of row r along s is the window spectrum's lines r + P*m, m = 0..S-1, and an
    S-periodic factor multiplies every row alike, so the classes propagate independently. The
    phase is unimodular, so each class's weight is already F's; only the given rows get it.
    """
    periods, s = spectrum.shape
    field = spectrum[classes]
    # in place, so the spectrum stays the left operand: complex SIMD multiply is not bitwise commutative
    field *= np.exp((-2j * math.pi / (periods * s)) * np.outer(classes, np.arange(s)))
    return field


def _kept_classes(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The sorted classes a run propagates, from the class weights sum_s |W[r, s]|^2, and the
    relative weight delta of the classes it drops.

    The kick (or mirror) factor and the flight are unimodular, so every class keeps its weight
    at every period. The lightest classes are dropped, the lower index first among equal
    weights, while their summed weight stays within CLASS_DROP_TOL of the whole; at least one
    class is kept. Each unit-sum ladder entry of the kept classes then lies within
    delta/(1 - delta) of the one all classes give, beyond rounding, at every period.
    """
    by_weight = np.argsort(weights, kind="stable")
    dropped = np.cumsum(weights[by_weight])
    total = weights.sum()
    count = min(int(np.count_nonzero(dropped <= CLASS_DROP_TOL * total)), weights.size - 1)
    return np.sort(by_weight[count:]), float(dropped[count - 1] / total) if count else 0.0


def _split_step(samples: np.ndarray, periods: int, runs: Sequence[_Run], kick: Callable[[_Run], np.ndarray],
                flight: Callable[[np.ndarray], np.ndarray | Callable[[_Run], np.ndarray]], kicks: range,
                drift_message: str, name: Callable[[_Run], str],
                tap: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] = _class_power,
                width: int | None = None, tapped: Container[int] | None = None
                ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Kick/flight periods of every run from the window `samples`, one batch row per run.

    The n samples span `periods` P periods of S = n/P samples. They split once into P
    quasimomentum classes (`_period_spectrum`, `_class_field`; class r's line m is window line
    r + P*m), of which the K sorted classes `keep` that carry all but at most CLASS_DROP_TOL of
    the weight run (`_kept_classes`), a (K, S) field per run. Each period multiplies by the
    run's position-space factor `kick(run)`, S samples broadcast over the classes, takes the
    forward FFT along S, taps, multiplies by the momentum-space factor and takes the inverse
    FFT, all in place. `flight(lines)`, called once with the kept classes' (K, S) window lines,
    returns their factor, shared by every run, or a function of the run that builds it. The
    runs propagate in chunks of at most BATCH_CELLS rows x max(K*S, row width) cells, in run
    order, on buffers built once.

    At each tap, a kick in `tapped` (all by default), the core squares the chunk's spectrum
    into a real (rows, K, S) buffer, `tap(squares, rows, columns)` reduces them into `rows`,
    one row of `width` columns (n by default) per run, zeroed once, and returns each row's
    total power; `columns` (K, S), built once, is the fftshifted column (line + n//2) mod n of
    each kept line. Each row is scaled in place by the reciprocal of its total, and the core
    yields (index of the chunk's first run, kick, (rows, K, S) spectrum, rows). The buffers
    are reused, so the consumer copies what it keeps. The default tap writes only the kept
    lines' columns, so a consumer that overwrites the rows must leave their zeros zero (a
    product with finite values does). The flight after the last kick is skipped: the last
    yielded spectrum is still the last kick's once the generator ends.

    A row whose total drifts from the kept classes' power (S times their weight, by Parseval
    over the n window lines) by more than NORM_TOL relative, or is not finite, raises
    NumericalFailure with text name(run) + drift_message.format(relative drift, kick); at an
    untapped kick, the total is `_spectrum_power`'s.
    """
    n = samples.size
    spectrum = _period_spectrum(samples, periods)
    weights = np.sum(np.abs(spectrum) ** 2, axis=1)
    keep, dropped = _kept_classes(weights)
    start = _class_field(spectrum, keep)
    width = n if width is None else width
    del spectrum, samples  # the kept classes are all the runs read
    s = start.shape[1]
    kept_power = s * weights.sum() * (1.0 - dropped)
    lines = keep[:, None] + periods * np.arange(s)
    factor = flight(lines)
    columns = (lines + n // 2) % n
    size = min(len(runs), max(1, BATCH_CELLS // max(start.size, width)))
    field = np.empty((size, *start.shape), dtype=complex)
    squares = np.empty(field.shape)
    position = np.empty((size, 1, s), dtype=complex)
    momentum = np.empty_like(field) if callable(factor) else np.broadcast_to(factor, field.shape)
    rows = np.zeros((size, width))
    tapped = kicks if tapped is None else tapped
    for lo in range(0, len(runs), size):
        chunk = runs[lo:lo + size]
        for i, run in enumerate(chunk):
            position[i, 0] = kick(run)
            if callable(factor):
                momentum[i] = factor(run)
        u, sq, pos, mom, p = (buffer[:len(chunk)] for buffer in (field, squares, position, momentum, rows))
        u[:] = start
        for k in kicks:
            # u stays the left operand: complex SIMD multiply is not bitwise commutative
            np.multiply(u, pos, out=u)
            np.fft.fft(u, out=u)
            if k in tapped:
                np.abs(u, out=sq)
                np.square(sq, out=sq)
                totals = tap(sq, p, columns)
            else:
                totals = _spectrum_power(u)
            drift = np.abs(totals * (1.0 / kept_power) - 1.0)
            bad = np.flatnonzero(~(drift <= NORM_TOL))  # NaN fails too
            if bad.size:
                raise NumericalFailure(name(chunk[bad[0]]) + drift_message.format(drift[bad[0]], k))
            if k in tapped:
                p *= (1.0 / totals)[:, None]
                yield lo, k, u, p
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
    runs the state's kept classes and stops at the last tap, so `evolve`
    scatters their lines back into the window spectrum (zero on the dropped
    classes' lines) and finishes the last period there. Aborts with
    NumericalFailure if the norm drifts beyond 1e-8 after a kick; the
    returned state validates the final norm.
    """
    grid = state.grid
    orders = _orders(grid)
    q = _ladder_values(grid, state.beta)
    kept: list[np.ndarray] = []  # the kept window lines and their flight, built once by the core

    def flight(lines: np.ndarray) -> np.ndarray:
        kept[:] = lines, _flight_factor(q[lines], params.hbar)
        return kept[1]

    x = grid.x[:grid.points_per_period]
    kicks = range(state.kick_count + 1, state.kick_count + params.n_kicks + 1)
    for _lo, k, spectrum, probs in _split_step(
            state.amplitudes, grid.periods, [params], lambda run: _kick_factor(run.potential, run.hbar, x),
            flight, kicks, _NORM_DRIFT, lambda _run: ""):
        if record is not None:
            record(k, MomentumLadder(state.beta, orders, probs[0].copy(), params.hbar, grid.periods))
    lines, factor = kept
    window = np.zeros(grid.n, dtype=complex)
    # the spectrum stays the left operand, as in the core's flights
    window[lines] = spectrum[0] * factor
    return replace(state, amplitudes=np.fft.ifft(window), kick_count=kicks[-1])


def scan_probabilities(grid: SpatialGrid, beta: float,
                       runs: Sequence[tuple[RatchetPotential, EffectivePlanck]],
                       kicks_at: Iterable[int]) -> Iterator[tuple[int, int, np.ndarray]]:
    """(index of the chunk's first run, kick, probabilities) of (potential, hbar) runs from the plane wave.

    The runs propagate as the rows of one batch, in chunks of at most
    BATCH_CELLS rows x grid points. At each kick of kicks_at the chunk's
    ladder probabilities are yielded as one (rows, n) array, one row per run,
    with ladder order j - n//2 in column j (the ascending orders of a
    MomentumLadder). Each row is bitwise the ladder `evolve` records for that
    run alone, unchecked: a consumer that builds no ladder checks the rows
    itself. Only those kicks are tapped. The array is the core's reused
    probability buffer: the consumer copies what it keeps and may overwrite
    it as `_split_step` allows. The potential v(x) is built once per (alpha,
    phi) of the runs, and each run's kick phase scales it by -K/hbar_eff. A
    drifting row, at any kick, raises NumericalFailure naming its hbar_eff, K
    and the kick; an empty kicks_at raises ValueError.
    """
    wanted = set(kicks_at)
    if not wanted:
        raise ValueError("kicks_at must name at least one kick")
    x = grid.x[:grid.points_per_period]
    profiles: dict[tuple[float, float], np.ndarray] = {}

    def kick(run: tuple[RatchetPotential, EffectivePlanck]) -> np.ndarray:
        pot, hbar = run
        v = profiles.get((pot.alpha, pot.phi))
        if v is None:
            v = profiles[pot.alpha, pot.phi] = eval_potential(pot, x)
        return np.exp(1j * _kick_phase(pot, hbar, v))

    def flight(lines: np.ndarray) -> Callable[[tuple[RatchetPotential, EffectivePlanck]], np.ndarray]:
        q = _ladder_values(grid, beta)[lines]
        return lambda run: _flight_factor(q, run[1])

    for lo, k, _spectrum, probs in _split_step(
            plane_wave(grid, beta).amplitudes, grid.periods, runs, kick, flight,
            range(1, max(wanted) + 1), _NORM_DRIFT,
            lambda run: f"scan run hbar_eff={run[1].hbar_eff!r} K={run[0].K!r}: ", tapped=wanted):
        yield lo, k, probs


def ladder_record(kick: int, ladder: MomentumLadder) -> dict:
    """One NDJSON-ready record of the spectrum after `kick`: a one-row ladder, or a stack's row kick-1."""
    probs = ladder.probabilities
    return {
        "kick": int(kick),
        "beta": float(ladder.beta),
        "hbar": None if ladder.hbar is None else float(ladder.hbar.hbar_eff),
        "orders": ladder.orders.tolist(),
        "prob": (probs if probs.ndim == 1 else probs[kick - 1]).tolist(),
    }
