"""Momentum statistics and regression fits for per-kick spectra."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import MomentumLadder

__all__ = [
    "StepStats",
    "FitResult",
    "mean_momentum",
    "mean_square_momentum",
    "participation_ratio",
    "stats_from_ladder",
    "polynomial_fit",
    "distribution_distance",
    "distribution_linf",
]


@dataclass(frozen=True)
class StepStats:
    """First two ladder moments and participation ratio after one kick."""

    kick: int
    mean_p: float
    mean_p2: float
    participation: float

    def __post_init__(self) -> None:
        if self.mean_p**2 > self.mean_p2 * (1.0 + 1e-9) + 1e-12:
            raise ValueError(f"mean_p^2={self.mean_p**2!r} exceeds mean_p2={self.mean_p2!r}")
        if self.participation < 1.0 - 1e-9:
            raise ValueError(f"participation must be >= 1, got {self.participation!r}")


@dataclass(frozen=True)
class FitResult:
    """Least-squares polynomial fit, coefficients low order first."""

    coefficients: tuple[float, ...]
    r_squared: float
    residual_rms: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared!r}")


def _first_moment(values: np.ndarray, probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum(values * probs) along the last axis, per row of probs; the products go to `out`,
    which may be probs itself."""
    return np.multiply(values, probs, out=out).sum(axis=-1)


def mean_momentum(ladder: MomentumLadder) -> float:
    """Ladder-order mean sum((n/periods + beta) * P(n))."""
    return float(_first_moment(ladder.ladder_values, ladder.probabilities))


def mean_square_momentum(ladder: MomentumLadder) -> float:
    """Ladder-order second moment sum((n/periods + beta)^2 * P(n))."""
    return float(np.sum(ladder.ladder_values**2 * ladder.probabilities))


def participation_ratio(ladder: MomentumLadder) -> float:
    """Inverse collision probability 1/sum(P^2): ~number of occupied rungs."""
    return float(1.0 / np.sum(ladder.probabilities**2))


def stats_from_ladder(kick: int, ladder: MomentumLadder) -> StepStats:
    return StepStats(
        kick=kick,
        mean_p=mean_momentum(ladder),
        mean_p2=mean_square_momentum(ladder),
        participation=participation_ratio(ladder),
    )


def _kick_stats(stack: MomentumLadder) -> list[StepStats]:
    """Each row's StepStats of a run's (kicks, orders) stack, kick 1 first, bitwise `stats_from_ladder`'s."""
    q, probs = stack.ladder_values, stack.probabilities
    moments = np.empty((3, len(probs)))
    step = max(1, (1 << 16) // q.size)  # rows a chunk: each product temporary stays within 512 KiB
    for lo in range(0, len(probs), step):
        p = probs[lo:lo + step]
        moments[:, lo:lo + step] = _first_moment(q, p), np.sum(q**2 * p, axis=-1), 1.0 / np.sum(p**2, axis=-1)
    return [StepStats(k, *row) for k, row in enumerate(moments.T.tolist(), start=1)]


def polynomial_fit(xs, ys, degree: int) -> FitResult:
    """Degree-1 or degree-2 least squares through numpy's `polyfit`, always degree + 1 coefficients.

    numpy.polynomial loads at the first fit, not with the package. An abscissa
    whose design matrix has rank at most `degree` (fewer than degree + 1
    distinct x values) raises ValueError.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d with matching length")
    if x.size < degree + 2:
        raise ValueError(f"need at least {degree + 2} points for degree {degree}, got {x.size}")
    poly = np.polynomial.polynomial
    coeffs, (_resid, rank, _sv, _rcond) = poly.polyfit(x, y, degree, full=True)
    if rank <= degree:
        raise ValueError(f"degenerate abscissa: rank {rank} for degree {degree}")
    residuals = y - poly.polyval(x, coeffs)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return FitResult(
        coefficients=tuple(coeffs.tolist()),
        r_squared=r_squared,
        residual_rms=math.sqrt(ss_res / x.size),
    )


def _difference(p_orders, p_probs, q_orders, q_probs) -> np.ndarray:
    """Per-order P - Q over the sorted union of the orders, a missing order counting as zero.

    Each side is one orders array and a stack of probability rows over it, (rows, orders) or a
    single (orders,) row; a single row is compared with every row of the other side. The result
    has one row per row of the stacks, each bitwise the one its pair alone gives. Raises
    ValueError unless each side's orders are strictly ascending.
    """
    p_orders = np.asarray(p_orders, dtype=int)
    q_orders = np.asarray(q_orders, dtype=int)
    for orders in (p_orders, q_orders):
        if orders.ndim != 1 or np.any(orders[1:] <= orders[:-1]):
            raise ValueError(f"orders must be strictly ascending, got {orders.tolist()!r}")
    p_probs = np.asarray(p_probs, dtype=float)
    q_probs = np.asarray(q_probs, dtype=float)
    support = np.union1d(p_orders, q_orders)
    diff = np.zeros((*np.broadcast_shapes(p_probs.shape[:-1], q_probs.shape[:-1]), support.size))
    diff[..., np.searchsorted(support, p_orders)] = p_probs
    diff[..., np.searchsorted(support, q_orders)] -= q_probs
    return diff


def _total_variation(diff: np.ndarray) -> list[float]:
    """Total variation of each row of a `_difference`, its |P - Q| summed in ascending order."""
    return [0.5 * sum(row) for row in np.abs(np.atleast_2d(diff)).tolist()]


def _linf(diff: np.ndarray) -> list[float]:
    """Largest |P - Q| of each row of a `_difference`."""
    return np.max(np.abs(np.atleast_2d(diff)), axis=1).tolist()


def distribution_distance(p_orders, p_probs, q_orders, q_probs) -> float:
    """Total variation distance between two order distributions, summed in ascending order.

    The one-row case of `_difference`: each side's orders must be strictly ascending.
    """
    (tv,) = _total_variation(_difference(p_orders, p_probs, q_orders, q_probs))
    return tv


def distribution_linf(p_orders, p_probs, q_orders, q_probs) -> float:
    """Largest per-order probability difference between two order distributions.

    Both distributions are aligned on the union of their orders, an order
    missing from one side counting as probability zero; each side's orders
    must be strictly ascending.
    """
    (linf,) = _linf(_difference(p_orders, p_probs, q_orders, q_probs))
    return linf
