"""Physical-units simulation of the mirror-bounce apparatus.

A laser field bounces between an etched phase mirror and the coated flat of a
cylindrical lens; each mirror encounter imprints the kick phase and a small
tap of the field is imaged at the lens focal plane. Geometry arithmetic maps
the mirror-lens distance to the effective Planck constant and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import NORM_TOL, MomentumLadder, NumericalFailure
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
    "row_order_probabilities",
    "row_order_ladder",
    "image_ladders",
    "deflection_check",
    "render_ccd",
]

MIN_REGION_SAMPLES = 64  # narrowest constant-gradient region deflection_check probes


@dataclass(frozen=True)
class OpticalGeometry:
    """Wavelength, mirror period, mirror-lens gap, focal length, reflectivity."""

    wavelength_m: float
    period_m: float
    distance_m: float
    focal_m: float
    reflectivity: float

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "period_m", "distance_m", "focal_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not 0.0 < self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity must lie in (0, 1], got {self.reflectivity!r}")


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
    then spreads its levels over the physically used range.
    """
    xs = 2.0 * math.pi * np.arange(samples_per_period) / samples_per_period
    phase = kick_phase_profile(pot, hbar, xs)
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
        return float(np.sum(np.abs(self.samples) ** 2) * self.dx)


def _make_field(amplitudes: np.ndarray, period_m: float, window_periods: int,
                samples_per_period: int, wavelength_m: float, power: float) -> BeamField:
    if window_periods < 8:
        raise ValueError(f"window must span >= 8 mirror periods, got {window_periods}")
    if samples_per_period < 64:
        raise ValueError(f"need >= 64 samples per period, got {samples_per_period}")
    dx = period_m / samples_per_period
    window = window_periods * period_m
    raw = float(np.sum(np.abs(amplitudes) ** 2) * dx)
    amplitudes = amplitudes * math.sqrt(power / raw)
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
    """Number of mirror periods spanned; raises if not commensurate."""
    ratio = field.window_m / period_m
    periods = round(ratio)
    if periods < 1 or abs(ratio - periods) > 1e-9:
        raise ValueError(f"window {field.window_m!r} m is not an integer number of periods {period_m!r} m")
    return periods


def _reflection_factor(field: BeamField, mirror: MirrorProfile) -> np.ndarray:
    """Mirror factor exp(i*4*pi*d(x)/lambda), the profile looked up at the nearest sample."""
    window_periods_of(field, mirror.period_m)
    n_mirror = mirror.depth_samples.size
    step = mirror.period_m / n_mirror
    idx = np.mod(np.rint(field.x / step).astype(int), n_mirror)
    return np.exp(1j * phase_from_depth(mirror, field.wavelength_m)[idx])


def _fresnel_kernel(field: BeamField, distance: float) -> np.ndarray:
    """Angular-spectrum factor exp(-i*pi*lambda*z*f_x^2) per FFT-ordered f_x."""
    fx = np.fft.fftfreq(field.samples.size, d=field.dx)
    return np.exp(-1j * math.pi * field.wavelength_m * distance * fx * fx)


def _focal_plane(spectrum: np.ndarray) -> np.ndarray:
    """Focal-plane intensity of a field's spectrum, zero order at index n//2."""
    return np.abs(np.fft.fftshift(spectrum)) ** 2


def apply_mirror(field: BeamField, mirror: MirrorProfile) -> BeamField:
    """Reflect off the etched mirror: multiply by exp(i*4*pi*d(x)/lambda).

    The staircase profile is resampled onto the field grid by nearest-sample
    lookup. Power is unchanged (unimodular factor).
    """
    return replace(field, samples=field.samples * _reflection_factor(field, mirror))


def propagate_fresnel(field: BeamField, distance: float) -> BeamField:
    """Paraxial angular-spectrum step over `distance` on the periodic window.

    Spatial frequency f_x picks up exp(-i*pi*lambda*z*f_x^2); the constant
    piston phase is dropped. Power is conserved.
    """
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance!r}")
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
    if focal_m <= 0:
        raise ValueError(f"focal_m must be positive, got {focal_m!r}")
    return _focal_plane(np.fft.fft(field.samples)), field.wavelength_m * focal_m / field.window_m


def _bin_orders(rows: np.ndarray, window_periods: int) -> tuple[np.ndarray, np.ndarray]:
    """Orders and per-row probabilities of (kicks, n) focal-plane rows, through one fine-bin -> order map."""
    n = rows.shape[1]
    orders = np.rint((np.arange(n) - n // 2) / window_periods).astype(int)
    idx = orders - orders[0]
    sums = np.stack([np.bincount(idx, weights=row) for row in rows])
    return np.arange(orders[0], orders[0] + sums.shape[1]), sums / sums.sum(axis=1, keepdims=True)


def order_probabilities(field: BeamField, period_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Far-field probability per grating order (fine bins summed to nearest order)."""
    intensity, _ = far_field(field, 1.0)
    orders, probs = _bin_orders(intensity[None], window_periods_of(field, period_m))
    return orders, probs[0]


@dataclass(frozen=True, eq=False)
class FarFieldImage:
    """Per-kick far-field intensity rows tapped at the lens focal plane."""

    rows: np.ndarray
    """(kicks, n) intensities; row k-1 is the tap after kick k, zero order at column n//2."""
    window_periods: int
    """Mirror periods across the window, i.e. fine columns per diffraction order."""
    hbar_eff: float
    """Effective Planck constant of the run, carried into the order ladders."""


def bounce_simulation(geom: OpticalGeometry, mirror: MirrorProfile, beam: BeamField,
                      n_kicks: int, loss_accounting: bool = False) -> FarFieldImage:
    """Bounce the beam n_kicks times, tapping the far field after each mirror hit.

    Each cycle is: mirror reflection, focal-plane tap, then the kick-to-kick
    flight. The flight distance is calibrated so one flight reproduces the
    kinetic ladder phase exp(-i*hbar_eff*q^2/2) of the matched quantum run,
    with hbar_eff read from the geometry. Rows are normalized to unit sum by
    default; with loss_accounting the k-th row integrates to
    reflectivity^k * 0.05 * input power.

    The reflection factor and the Fresnel kernel are built once per run, and
    the focal-plane transform is also the forward transform of the flight.
    Raises NumericalFailure when the tapped power (by Parseval) drifts from
    the input power by more than 1e-8 relative, or is not finite.
    """
    if n_kicks < 1:
        raise ValueError(f"n_kicks must be >= 1, got {n_kicks}")
    hbar = hbar_from_geometry(geom)
    flight = distance_for_hbar(hbar, geom.wavelength_m, geom.period_m)
    reflect = _reflection_factor(beam, mirror)
    kernel = _fresnel_kernel(beam, flight)
    samples = beam.samples
    rows = []
    for k in range(1, n_kicks + 1):
        samples = samples * reflect
        spectrum = np.fft.fft(samples)
        intensity = _focal_plane(spectrum)
        total = intensity.sum()
        drift = abs(total * beam.dx / samples.size - beam.power)
        if not drift <= NORM_TOL * beam.power:  # NaN fails too
            raise NumericalFailure(f"beam power drifted by {drift / beam.power:.3e} (relative) at bounce {k}")
        if loss_accounting:
            scale = geom.reflectivity**k * 0.05 * beam.power / total
        else:
            scale = 1.0 / total
        rows.append(intensity * scale)
        if k < n_kicks:  # no output reads the field after the last tap
            samples = np.fft.ifft(spectrum * kernel)
    return FarFieldImage(rows=np.stack(rows), window_periods=window_periods_of(beam, geom.period_m),
                         hbar_eff=hbar.hbar_eff)


def image_ladders(image: FarFieldImage) -> list[MomentumLadder]:
    """Order ladder of every row, in kick order; the ladders share one orders array."""
    orders, probs = _bin_orders(image.rows, image.window_periods)
    orders.flags.writeable = False
    probs /= probs.sum(axis=1, keepdims=True)
    hbar = EffectivePlanck(image.hbar_eff)
    return [MomentumLadder(beta=0.0, orders=orders, probabilities=row, hbar=hbar, grid_periods=1)
            for row in probs]


def row_order_probabilities(image: FarFieldImage, kick: int) -> tuple[np.ndarray, np.ndarray]:
    """Order distribution of row `kick` (1-based, matching kick count)."""
    orders, probs = _bin_orders(image.rows[kick - 1:kick], image.window_periods)
    return orders, probs[0]


def row_order_ladder(image: FarFieldImage, kick: int) -> MomentumLadder:
    return image_ladders(replace(image, rows=image.rows[kick - 1:kick]))[0]


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
    results = []
    for lo, hi in regions:
        if hi - lo < MIN_REGION_SAMPLES:
            continue
        length = (hi - lo) * step
        width = length / 6.0
        center = (x[lo] + x[hi - 1]) / 2.0
        probe = np.exp(-((x - center) ** 2) / width**2) * np.exp(1j * phase[: n])
        spectrum = np.fft.fftshift(np.fft.fft(probe))
        intensity = np.abs(spectrum) ** 2
        fx = np.fft.fftshift(np.fft.fftfreq(n, d=step))
        pos = wavelength_m * focal_m * fx
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
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    out = np.zeros(image.rows.shape, dtype=np.uint8)
    for i, row in enumerate(image.rows):
        peak = row.max()
        if peak > 0:
            out[i] = np.rint(255.0 * (row / peak) ** gamma).astype(np.uint8)
    return out
