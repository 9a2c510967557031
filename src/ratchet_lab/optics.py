"""Physical-units simulation of the mirror-bounce apparatus.

A laser field bounces between an etched phase mirror and the coated flat of a
cylindrical lens; each mirror encounter imprints the kick phase and a small
tap of the field is imaged at the lens focal plane. Geometry arithmetic maps
the mirror-lens distance to the effective Planck constant and back.

The mirror is periodic, so a beam P mirror periods wide splits exactly into P
quasimomentum classes of one period each, and the mirror factor and the
Fresnel kernel are unimodular, so each class keeps its weight at every
bounce. Every bounce run picks once, from the class weights, the K classes
that carry all but at most CLASS_DROP_TOL of the beam (`_kept_classes`), and
propagates only those, side by side on the split-step core, each bounce
transforming (K, S) fields along their S samples per period instead of the
whole window at once. The mirror is looked up once, on the window's first
period, so a window must hold a whole number of samples per period
(ValueError otherwise). Every bounce tap sums the kept class squares the core
makes at each bounce straight into diffraction orders (`_order_sums`), the
one order binning of every optical ladder; `bounce_simulation`'s tap also
fftshifts them into the full focal-plane row of the CCD image
(`evolution._class_power`), with exact zeros on the dropped classes' lines,
so an image carries the ladders of the very squares its rows show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import evolution
from .evolution import MomentumLadder
from .model import (
    EffectivePlanck,
    MirrorProfile,
    RatchetPotential,
    depth_from_phase,
    kick_phase_profile,
    phase_from_depth,
    quantize_profile,
)

__all__ = [
    "OpticalGeometry",
    "BeamField",
    "FarFieldImage",
    "DeflectionRegion",
    "hbar_from_geometry",
    "distance_for_hbar",
    "lau_distance",
    "ratchet_mirror",
    "gaussian_beam",
    "plane_wave_beam",
    "apply_mirror",
    "propagate_fresnel",
    "far_field",
    "order_probabilities",
    "bounce_simulation",
    "bounce_ladders",
    "row_order_probabilities",
    "row_order_ladder",
    "deflection_check",
    "render_ccd",
]

MIN_REGION_SAMPLES = 64  # narrowest constant-gradient region deflection_check probes
# Largest share of the beam's weight a bounce may leave in the classes it does not transform.
CLASS_DROP_TOL = 1e-15


@dataclass(frozen=True)
class OpticalGeometry:
    """Wavelength, mirror period and mirror-lens gap, the lengths that set hbar_eff.

    A focal length only scales the focal plane; `far_field` and `deflection_check` take it.
    """

    wavelength_m: float
    period_m: float
    distance_m: float

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "period_m", "distance_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value!r}")


def hbar_from_geometry(geom: OpticalGeometry) -> EffectivePlanck:
    """Effective Planck constant 2*pi*lambda*L/l^2 set by the bounce geometry."""
    return EffectivePlanck(2.0 * math.pi * geom.wavelength_m * geom.distance_m / geom.period_m**2)


def distance_for_hbar(hbar: EffectivePlanck, wavelength_m: float, period_m: float) -> float:
    """Mirror-lens gap realizing a target hbar_eff: L = hbar_eff*l^2/(2*pi*lambda)."""
    return hbar.hbar_eff / (2.0 * math.pi) * period_m**2 / wavelength_m


def lau_distance(a: int, b: int, wavelength_m: float, period_m: float) -> float:
    """Grating separation (a/b)*l^2/(2*lambda) for white-light fringe revival.

    Delegates to distance_for_hbar so the rational-resonance identity
    lau_distance(4r, s) == distance_for_hbar(4*pi*r/s) holds bitwise.
    """
    if a < 1 or b < 1:
        raise ValueError(f"a and b must be >= 1, got ({a}, {b})")
    return distance_for_hbar(EffectivePlanck((4.0 * math.pi) * a / (4 * b)), wavelength_m, period_m)


def ratchet_mirror(
    pot: RatchetPotential,
    hbar: EffectivePlanck,
    wavelength_m: float,
    period_m: float,
    samples_per_period: int = 1024,
    n_levels: int | str = "continuous",
) -> MirrorProfile:
    """Mirror profile whose reflection realizes one kick of strength K at hbar_eff.

    The kick phase is offset by a constant (a global phase on the beam) so the
    etch relief is one contiguous band starting at zero depth; quantization
    then spreads its levels over the physically used range. A kick phase
    K*v(x)/hbar_eff that overflows raises NumericalFailure, as it does in the
    quantum engine's first kick.
    """
    xs = 2.0 * math.pi * np.arange(samples_per_period) / samples_per_period
    phase = kick_phase_profile(pot, hbar, xs)
    if not np.isfinite(phase).all():
        raise evolution.NumericalFailure(
            f"mirror kick phase is not finite for K={pot.K!r}, hbar_eff={hbar.hbar_eff!r}")
    phase = phase - phase.min()
    profile = depth_from_phase(phase, wavelength_m, period_m)
    if n_levels == "continuous":
        return profile
    return quantize_profile(profile.depth_samples, int(n_levels), period_m)


@dataclass(frozen=True, eq=False)
class BeamField:
    """Sampled complex field over a periodic window, x from -window/2 to window/2."""

    samples: np.ndarray
    dx: float
    window_m: float
    power: float
    wavelength_m: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("field needs a 1-d sample vector")
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if abs(samples.size * self.dx - self.window_m) > 1e-9 * self.window_m:
            raise ValueError("window_m must equal n_samples * dx")
        if not (math.isfinite(self.wavelength_m) and self.wavelength_m > 0):
            raise ValueError(f"wavelength_m must be positive, got {self.wavelength_m!r}")

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.samples.size) - self.samples.size // 2) * self.dx

    def measured_power(self) -> float:
        return evolution._norm(self.samples, self.dx)


def _make_field(amplitudes: np.ndarray, period_m: float, window_periods: int,
                samples_per_period: int, wavelength_m: float, power: float) -> BeamField:
    if window_periods < 8:
        raise ValueError(f"window must span >= 8 mirror periods, got {window_periods}")
    if samples_per_period < 64:
        raise ValueError(f"need >= 64 samples per period, got {samples_per_period}")
    dx = period_m / samples_per_period
    window = window_periods * period_m
    amplitudes = amplitudes * math.sqrt(power / evolution._norm(amplitudes, dx))
    return BeamField(samples=amplitudes, dx=dx, window_m=window, power=power,
                     wavelength_m=wavelength_m)


def gaussian_beam(period_m: float, window_periods: int, samples_per_period: int,
                  width_m: float, wavelength_m: float, power: float = 1.0) -> BeamField:
    """Gaussian beam of 1/e^2 intensity half-width width_m, centered on the window."""
    n = window_periods * samples_per_period
    x = (np.arange(n) - n // 2) * (period_m / samples_per_period)
    amp = np.exp(-(x**2) / width_m**2).astype(complex)
    return _make_field(amp, period_m, window_periods, samples_per_period, wavelength_m, power)


def plane_wave_beam(period_m: float, window_periods: int, samples_per_period: int,
                    wavelength_m: float, power: float = 1.0) -> BeamField:
    n = window_periods * samples_per_period
    return _make_field(np.ones(n, dtype=complex), period_m, window_periods,
                       samples_per_period, wavelength_m, power)


def window_periods_of(field: BeamField, period_m: float) -> int:
    """Number P of mirror periods spanned; raises unless P is a whole number and the n samples
    split into P periods of whole samples."""
    ratio = field.window_m / period_m
    periods = round(ratio)
    if periods < 1 or abs(ratio - periods) > 1e-9:
        raise ValueError(f"window {field.window_m!r} m is not an integer number of periods {period_m!r} m")
    if field.samples.size % periods:
        raise ValueError(f"{field.samples.size} samples do not split into {periods} periods of whole samples")
    return periods


def _reflection_factor(field: BeamField, mirror: MirrorProfile) -> np.ndarray:
    """One period of the mirror factor exp(i*4*pi*d(x)/lambda) on the field grid: the profile
    looked up at the nearest sample of the window's first S = n/P samples.

    The factor is computed once per mirror sample, then gathered onto the period's samples.
    """
    n = field.samples.size
    n_mirror = mirror.depth_samples.size
    step = mirror.period_m / n_mirror
    x = (np.arange(n // window_periods_of(field, mirror.period_m)) - n // 2) * field.dx  # field.x[:S]
    idx = np.mod(np.rint(x / step).astype(int), n_mirror)
    return np.exp(1j * phase_from_depth(mirror, field.wavelength_m))[idx]


def _fresnel_kernel(field: BeamField, distance: float) -> np.ndarray:
    """Angular-spectrum factor exp(-i*pi*lambda*z*f_x^2) per FFT-ordered f_x."""
    fx = np.fft.fftfreq(field.samples.size, d=field.dx)
    return np.exp(-1j * math.pi * field.wavelength_m * distance * fx * fx)


def apply_mirror(field: BeamField, mirror: MirrorProfile) -> BeamField:
    """Reflect off the etched mirror: multiply by exp(i*4*pi*d(x)/lambda).

    The staircase profile is resampled onto the window's first period by
    nearest-sample lookup and repeated over every period. Power is unchanged
    (unimodular factor).
    """
    factor = _reflection_factor(field, mirror)
    return replace(field, samples=field.samples * np.tile(factor, field.samples.size // factor.size))


def propagate_fresnel(field: BeamField, distance: float) -> BeamField:
    """Paraxial angular-spectrum step over `distance` on the periodic window.

    Spatial frequency f_x picks up exp(-i*pi*lambda*z*f_x^2); the constant
    piston phase is dropped. Power is conserved.
    """
    if not (math.isfinite(distance) and distance >= 0):
        raise ValueError(f"distance must be finite and >= 0, got {distance!r}")
    if distance == 0.0:
        return field
    spectrum = np.fft.fft(field.samples) * _fresnel_kernel(field, distance)
    return replace(field, samples=np.fft.ifft(spectrum))


def far_field(field: BeamField, focal_m: float) -> tuple[np.ndarray, float]:
    """Focal-plane intensity profile and its pixel pitch.

    The lens maps spatial frequency f_x to the focal-plane coordinate
    X = lambda*focal*f_x, so grating orders land at spacing lambda*focal/l.
    Returns (intensity, pixel pitch in meters) with the zero order at index n//2.
    """
    if not (math.isfinite(focal_m) and focal_m > 0):
        raise ValueError(f"focal_m must be finite and positive, got {focal_m!r}")
    intensity = np.empty(field.samples.size)
    evolution._class_power(np.abs(np.fft.fft(field.samples))[None] ** 2, intensity)
    return intensity, field.wavelength_m * focal_m / field.window_m


def _window_orders(n: int, periods: int) -> np.ndarray:
    """Ascending diffraction orders rint(k/periods) of the lines k = -(n//2)..n-1-n//2 of an
    n-line window `periods` mirror periods wide (rint rounds half to even)."""
    return np.arange(round(-(n // 2) / periods), round((n - 1 - n // 2) / periods) + 1)


def _order_sums(squares: np.ndarray, sums: np.ndarray, classes: np.ndarray | None = None,
                periods: int | None = None) -> np.ndarray:
    """Sum (rows, K, S) class-layout line powers into the (rows, orders) buffer `sums`, orders
    `_window_orders(P*S, P)`, and return each row's total. squares[:, i, m] is line m of class
    classes[i] of the beam's P = `periods`; by default squares holds all P classes in order.
    `classes` is sorted, and a class it leaves out adds nothing.

    Class r's line m is window line r + P*m: counted from the zero order, signed line m, or
    m - S once the window wraps to negative frequencies, in order rint(m + r/P). So order o
    sums, in this order:
    - the classes r < P/2 at signed line o, one sum over the class axis (they wrap at
      m = S - S//2);
    - the classes r > P/2 at signed line o - 1, another sum (they wrap at S//2);
    - for even P, the tie class r = P/2 (it wraps at S//2), whose signed line m goes to
      rint(m + 0.5) = m + m mod 2, half to even: its lines o - 1, then o.
    """
    rows, kept, s = squares.shape
    p = kept if periods is None else periods
    below, above = np.searchsorted(np.arange(p) if classes is None else classes, ((p + 1) // 2, p // 2 + 1))
    lo = _window_orders(p * s, p)[0]

    def signed(lines: np.ndarray, wrap: int) -> np.ndarray:
        """(rows, S) lines of a class group in signed order, from signed line wrap - S up."""
        start = wrap % s
        return np.concatenate((lines[:, start:], lines[:, :start]), axis=1)

    sums[:] = 0.0
    if below:
        sums[:, -(s // 2) - lo:s - s // 2 - lo] += signed(squares[:, :below].sum(axis=1), s - s // 2)
    if above < kept:
        sums[:, s // 2 - s + 1 - lo:s // 2 + 1 - lo] += signed(squares[:, above:].sum(axis=1), s // 2)
    if above > below:  # even P, and its tie class is among `classes`
        m = np.arange(s // 2 - s, s // 2)
        np.add.at(sums, (slice(None), m + m % 2 - lo), signed(squares[:, below], s // 2))
    return sums.sum(axis=1)


def _class_field(samples: np.ndarray, periods: int) -> np.ndarray:
    """The beam's quasimomentum classes W[r, s] = exp(-2*pi*i*r*s/n) * F[r, s], with F the FFT
    over the period axis of samples.reshape(periods, S).

    The FFT of row r along s is the window spectrum's lines r + periods*m, m = 0..S-1, and an
    S-periodic factor multiplies every row alike, so the classes propagate independently.
    """
    n = samples.size
    field = np.fft.fft(samples.reshape(periods, -1), axis=0)
    field *= np.exp((-2j * math.pi / n) * np.outer(np.arange(periods), np.arange(n // periods)))
    return field


def _kept_classes(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The sorted classes a bounce transforms, from the class weights sum_s |W[r, s]|^2, and the
    relative weight delta of the classes it drops.

    The mirror factor and the Fresnel kernel are unimodular, so every class keeps its weight
    at every bounce. The lightest classes are dropped, the lower index first among equal
    weights, while their summed weight stays within CLASS_DROP_TOL of the whole; at least one
    class is kept. Each unit-sum ladder entry of the kept classes then lies within
    delta/(1 - delta) of the one all classes give, beyond rounding, at every bounce.
    """
    by_weight = np.argsort(weights, kind="stable")
    dropped = np.cumsum(weights[by_weight])
    total = weights.sum()
    count = min(int(np.count_nonzero(dropped <= CLASS_DROP_TOL * total)), weights.size - 1)
    return np.sort(by_weight[count:]), float(dropped[count - 1] / total) if count else 0.0


def order_probabilities(field: BeamField, period_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Far-field probability per grating order: the field's class squares summed into orders
    as the bounce tap sums them (`_order_sums`)."""
    periods = window_periods_of(field, period_m)
    orders = _window_orders(field.samples.size, periods)
    sums = np.empty((1, orders.size))
    total = _order_sums(np.abs(np.fft.fft(_class_field(field.samples, periods)))[None] ** 2, sums)
    return orders, sums[0] * (1.0 / total[0])


@dataclass(frozen=True, eq=False)
class FarFieldImage:
    """Per-kick far-field intensity rows tapped at the lens focal plane, and their order ladders."""

    rows: np.ndarray
    """(kicks, n) intensities; row k-1 is the tap after kick k, zero order at column n//2."""
    window_periods: int
    """Mirror periods across the window, i.e. fine columns per diffraction order."""
    ladders: list[MomentumLadder]
    """Order ladder of every row, in kick order; a bounce image's are what its tap summed."""


def _bounce(geom: OpticalGeometry, mirrors: Sequence[MirrorProfile], beam: BeamField, n_kicks: int,
            name: Callable[[MirrorProfile], str], image: np.ndarray | None = None) -> list[list[MomentumLadder]]:
    """Per-kick order ladders of one bounce run per mirror, in mirror order, one batch row each.

    The mirror is periodic, so the beam of P mirror periods runs as P
    independent quasimomentum classes of S = n/P samples (`_class_field`):
    each reflects off the mirror's factor on one period, and each bounce
    transforms (K, S) fields along S. The classes to run are picked once,
    before any bounce, from the class weights (`_kept_classes`): the K
    classes that carry all but at most CLASS_DROP_TOL of the beam. The
    split-step core bounces them n_kicks times off each mirror, and its
    Parseval guard takes their power as its norm. At each bounce the tap sums the chunk's
    (rows, K, S) kept class squares into orders (`_order_sums`, given the
    kept classes), one row per mirror, and the core scales the sums to unit
    sum. All ladders share one read-only orders array. The Fresnel kernel,
    gathered into class layout, is built once, and the focal-plane transform
    is also the forward transform of the flight.

    `image`, given for a batch of one mirror, is an (n_kicks, n) buffer the
    tap fills with each bounce's fftshifted focal-plane row
    (`evolution._class_power`): the kept squares on their lines, exact zeros
    on the dropped classes' lines, scaled by its own total to unit sum.

    Before any transform, raises ValueError unless n_kicks >= 1, the beam's
    wavelength is the geometry's, every mirror's period is the geometry's,
    and the window holds P periods of whole samples. A row whose tapped power
    (by Parseval) drifts from the kept power by more than 1e-8 relative, or
    is not finite, raises NumericalFailure with text name(mirror) + the
    drift and the bounce.
    """
    if n_kicks < 1:
        raise ValueError(f"n_kicks must be >= 1, got {n_kicks}")
    if beam.wavelength_m != geom.wavelength_m:
        raise ValueError(f"beam wavelength_m {beam.wavelength_m!r} is not the geometry's "
                         f"{geom.wavelength_m!r}")
    for mirror in mirrors:
        if mirror.period_m != geom.period_m:
            raise ValueError(f"mirror period_m {mirror.period_m!r} is not the geometry's {geom.period_m!r}")
    periods = window_periods_of(beam, geom.period_m)
    orders = _window_orders(beam.samples.size, periods)
    orders.flags.writeable = False
    hbar = hbar_from_geometry(geom)
    field = _class_field(beam.samples, periods)
    keep, dropped = _kept_classes(np.sum(np.abs(field) ** 2, axis=1))
    kernel = _fresnel_kernel(beam, geom.distance_m).reshape(-1, periods).T[keep]
    lines = None if image is None else np.zeros((1, *field.shape))  # dropped classes' lines stay 0
    rows = iter(() if image is None else image[:, None])  # bounce k fills row k-1

    def tap(squares: np.ndarray, sums: np.ndarray) -> np.ndarray:
        if lines is not None:
            row = next(rows)
            lines[:, keep] = squares
            row *= 1.0 / evolution._class_power(lines, row)
        return _order_sums(squares, sums, keep, periods)

    ladders: list[list[MomentumLadder]] = [[] for _ in mirrors]
    # Parseval over the window's P*S lines: the core divides by the K*S it runs, so dx scales by K/P
    for lo, _k, _spectrum, probs in evolution._split_step(
            field[keep], mirrors, lambda mirror: _reflection_factor(beam, mirror), kernel,
            range(1, n_kicks + 1), beam.dx * (keep.size / periods), beam.power * (1.0 - dropped),
            "beam power drifted by {:.3e} (relative) at bounce {}", name, tap, orders.size):
        for i, row in enumerate(probs.copy(), start=lo):
            ladders[i].append(MomentumLadder(beta=0.0, orders=orders, probabilities=row, hbar=hbar,
                                             grid_periods=1))
    return ladders


def bounce_simulation(geom: OpticalGeometry, mirror: MirrorProfile, beam: BeamField,
                      n_kicks: int) -> FarFieldImage:
    """Bounce the beam n_kicks times, tapping the far field after each mirror hit.

    Each cycle is: mirror reflection, focal-plane tap, then the kick-to-kick
    flight over the geometry's gap `distance_m`, which gives the kinetic
    ladder phase exp(-i*hbar_eff*q^2/2) of the matched quantum run, with
    hbar_eff read from the geometry. The tap reduces each bounce's kept class
    squares twice: into the full fftshifted focal-plane row
    (`evolution._class_power`), with exact zeros on the lines of the classes
    the bounce drops, scaled by its own total to unit sum as the core scales
    its rows, from which the CCD images are drawn; and into order sums
    (`_order_sums`), which the core scales into the image's ladders, bitwise
    `bounce_ladders`' for the same mirror.

    This is the batch of one of the bounce loop (`_bounce`): one FFT over the
    period axis splits the beam into its quasimomentum classes, and each
    bounce then takes one FFT pair along the kept classes' samples (none
    after the last tap). Raises as `_bounce`: ValueError on inputs that
    disagree, and NumericalFailure when the tapped power drifts.
    """
    image = np.empty((n_kicks, beam.samples.size))
    (ladders,) = _bounce(geom, [mirror], beam, n_kicks, lambda _mirror: "", image)
    return FarFieldImage(rows=image, window_periods=window_periods_of(beam, geom.period_m), ladders=ladders)


def bounce_ladders(geom: OpticalGeometry, mirrors: Sequence[MirrorProfile], beam: BeamField,
                   n_kicks: int) -> list[list[MomentumLadder]]:
    """Per-kick order ladders of one bounce run per mirror, in mirror order.

    Only the quasimomentum classes that carry the beam run (`_bounce`), and
    the tap sums each bounce's kept class squares straight into diffraction
    orders (`_order_sums`), so no focal-plane row of n columns is built. The
    runs propagate as the rows of one batch, in chunks of at most
    BATCH_CELLS rows x kept samples, and each mirror's ladders are bitwise
    the ones its run alone gives, and so bitwise the ladders of
    `bounce_simulation(...)`'s image. All of them share one read-only orders
    array. Raises ValueError on inputs that disagree (`_bounce`); a drifting
    row raises NumericalFailure naming its mirror's n_levels and the bounce.
    """
    return _bounce(geom, mirrors, beam, n_kicks, lambda mirror: f"bounce run n_levels={mirror.n_levels}: ")


def row_order_ladder(image: FarFieldImage, kick: int) -> MomentumLadder:
    """Order ladder of row `kick` (1-based, matching kick count); raises ValueError outside
    1..kicks."""
    if not 1 <= kick <= len(image.ladders):
        raise ValueError(f"kick must lie in 1..{len(image.ladders)}, got {kick}")
    return image.ladders[kick - 1]


def row_order_probabilities(image: FarFieldImage, kick: int) -> tuple[np.ndarray, np.ndarray]:
    """Order distribution of row `kick` (1-based, matching kick count)."""
    ladder = row_order_ladder(image, kick)
    return ladder.orders, ladder.probabilities


@dataclass(frozen=True)
class DeflectionRegion:
    """One constant-gradient stretch of the mirror and its probe result."""

    x_start_m: float
    x_end_m: float
    grad_phase: float  # rad per meter
    predicted_shift_m: float
    measured_shift_m: float


def deflection_check(mirror: MirrorProfile, wavelength_m: float, focal_m: float) -> list[DeflectionRegion]:
    """Probe each constant-gradient region and compare the far-field centroid
    shift against (lambda*focal/(2*pi)) * dphi/dx.

    Regions are maximal runs of constant slope in the unwrapped reflection
    phase. A narrow Gaussian probe (1/e^2 half-width one sixth of the region)
    is centered on each region of at least MIN_REGION_SAMPLES samples; raises
    if there is none.
    """
    n = mirror.depth_samples.size
    step = mirror.period_m / n
    phase = np.unwrap(phase_from_depth(mirror, wavelength_m))
    slopes = np.diff(phase) / step
    scale = np.max(np.abs(slopes)) + 1.0 / mirror.period_m
    regions: list[tuple[int, int]] = []
    start = 0
    for i in range(1, slopes.size):
        if abs(slopes[i] - slopes[start]) > 1e-6 * scale:
            regions.append((start, i))
            start = i
    regions.append((start, slopes.size))
    x = np.arange(n) * step
    pos = wavelength_m * focal_m * np.fft.fftshift(np.fft.fftfreq(n, d=step))
    intensity = np.empty(n)
    results = []
    for lo, hi in regions:
        if hi - lo < MIN_REGION_SAMPLES:
            continue
        length = (hi - lo) * step
        width = length / 6.0
        center = (x[lo] + x[hi - 1]) / 2.0
        probe = np.exp(-((x - center) ** 2) / width**2) * np.exp(1j * phase[: n])
        evolution._class_power(np.abs(np.fft.fft(probe))[None] ** 2, intensity)
        centroid = float(np.sum(pos * intensity) / np.sum(intensity))
        grad = float(slopes[lo])
        predicted = wavelength_m * focal_m / (2.0 * math.pi) * grad
        results.append(DeflectionRegion(
            x_start_m=float(x[lo]), x_end_m=float(x[hi - 1]) + step,
            grad_phase=grad, predicted_shift_m=predicted, measured_shift_m=centroid,
        ))
    if not results:
        raise ValueError(f"no constant-gradient region with >= {MIN_REGION_SAMPLES} samples")
    return results


def render_ccd(image: FarFieldImage, gamma: float = 1.0) -> np.ndarray:
    """8-bit grayscale raster, one row per kick, per-row max mapped to 255."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    peak = image.rows.max(axis=1, keepdims=True)
    # rows without a positive peak stay 0, and are never divided; one buffer, scaled in place
    scaled = np.divide(image.rows, peak, out=np.zeros(image.rows.shape), where=peak > 0)
    scaled **= gamma
    scaled *= 255.0
    return np.rint(scaled, out=scaled).astype(np.uint8)
