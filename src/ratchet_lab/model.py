"""Domain types and pure functions for the flashing two-harmonic ratchet.

Covers the dimensionless potential and the kick phase it imprints, the
rational-resonance arithmetic of the effective Planck constant, and the
etched-mirror depth profile (phase encoding, level quantization, text
serialization). Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "RatchetPotential",
    "EffectivePlanck",
    "ResonanceOrder",
    "MirrorProfile",
    "eval_potential",
    "kick_phase_profile",
    "resonance_check",
    "depth_from_phase",
    "phase_from_depth",
    "quantize_profile",
    "save_mirror_profile",
    "load_mirror_profile",
]


@dataclass(frozen=True)
class RatchetPotential:
    """Flashing potential v(x) = sin(x) + alpha*sin(2x + phi).

    K is the kick strength multiplying v in the flash term; v itself is
    2*pi-periodic by construction and dimensionless.
    """

    K: float = 1.0
    alpha: float = 0.3
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("K", "alpha", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")


@dataclass(frozen=True)
class EffectivePlanck:
    """Dimensionless effective Planck constant of the kicked system."""

    hbar_eff: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hbar_eff) and self.hbar_eff > 0):
            raise ValueError(f"hbar_eff must be positive and finite, got {self.hbar_eff!r}")


@dataclass(frozen=True)
class ResonanceOrder:
    """Coprime pair (r, s) labelling the rational resonance hbar_eff = 4*pi*r/s."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 1:
            raise ValueError(f"r and s must be >= 1, got ({self.r}, {self.s})")
        if math.gcd(self.r, self.s) != 1:
            raise ValueError(f"r and s must be coprime, got ({self.r}, {self.s})")

    @property
    def hbar_eff(self) -> float:
        return 4.0 * math.pi * self.r / self.s


@dataclass(frozen=True, eq=False)
class MirrorProfile:
    """Sampled etched-depth map of one spatial period of the phase mirror.

    depth_samples[j] is the depth (meters) of the staircase flat centered at
    x = j * period_m / len(depth_samples). n_levels records how the profile
    was produced: a positive level count, or "continuous" for an unquantized
    profile. The profile is treated as periodic.
    """

    period_m: float
    depth_samples: np.ndarray
    n_levels: int | str = "continuous"

    def __post_init__(self) -> None:
        samples = np.asarray(self.depth_samples, dtype=float)
        object.__setattr__(self, "depth_samples", samples)
        if not (math.isfinite(self.period_m) and self.period_m > 0):
            raise ValueError(f"period_m must be positive, got {self.period_m!r}")
        if samples.ndim != 1 or samples.size < 16:
            raise ValueError(f"need >= 16 depth samples over one period, got {samples.size}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("depth samples must be finite")
        if np.any(samples < 0):
            raise ValueError("depth samples must be non-negative (wrapped)")
        if isinstance(self.n_levels, str):
            if self.n_levels != "continuous":
                raise ValueError(f"n_levels must be an integer >= 2 or 'continuous', got {self.n_levels!r}")
        elif int(self.n_levels) < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")

    @property
    def sample_positions_m(self) -> np.ndarray:
        return np.arange(self.depth_samples.size) * (self.period_m / self.depth_samples.size)


def eval_potential(pot: RatchetPotential, x) -> np.ndarray | float:
    """Evaluate v(x) = sin(x) + alpha*sin(2x + phi) at x (radians)."""
    return np.sin(x) + pot.alpha * np.sin(2.0 * np.asarray(x, dtype=float) + pot.phi)


def kick_phase_profile(pot: RatchetPotential, hbar: EffectivePlanck, x_samples) -> np.ndarray:
    """Phase -K*v(x)/hbar_eff imprinted on the wave by a single flash.

    The kick multiplies the wave by exp(i * result), i.e. exp(-i*K*v(x)/hbar_eff).
    """
    x = np.asarray(x_samples, dtype=float)
    return _kick_phase(pot, hbar, np.asarray(eval_potential(pot, x)))


def _kick_phase(pot: RatchetPotential, hbar: EffectivePlanck, v: np.ndarray) -> np.ndarray:
    """`kick_phase_profile` from the potential's samples v = v(x), which depend on alpha and phi
    alone, so runs that share them can share v."""
    return -(pot.K / hbar.hbar_eff) * v


def _simplest_fraction_in(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator fraction in the closed interval [lo, hi], 0 < lo <= hi."""
    a = lo.numerator // lo.denominator
    if lo.denominator == 1:
        return lo
    if a + 1 <= hi:
        return Fraction(a + 1)
    inner = _simplest_fraction_in(1 / (hi - a), 1 / (lo - a))
    return a + 1 / inner


def resonance_check(hbar: EffectivePlanck, s_max: int, tol: float) -> ResonanceOrder | None:
    """Smallest-s coprime (r, s) with s <= s_max and |hbar_eff/(4*pi) - r/s| <= tol.

    The search walks continued-fraction intervals of y = hbar_eff/(4*pi), so the
    returned s is provably minimal; among candidates at that s the closest r is
    chosen (ties toward the lower r). Returns None when no pair qualifies.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    y = Fraction(hbar.hbar_eff / (4.0 * math.pi))
    lo = y - Fraction(tol)
    hi = y + Fraction(tol)
    # Valid values r/s with 1 <= r and s <= s_max are never below 1/s_max.
    floor_positive = Fraction(1, s_max)
    if hi < floor_positive:
        return None
    lo = max(lo, floor_positive)
    best = _simplest_fraction_in(lo, hi)
    s = best.denominator
    if s > s_max:
        return None
    # Re-derive r at the minimal s by closeness to y, ties toward the lower r.
    candidates = []
    base = (y.numerator * s) // y.denominator
    for r in (base, base + 1):
        if r >= 1 and lo <= Fraction(r, s) <= hi:
            candidates.append(r)
    if not candidates:  # pragma: no cover - minimal s guarantees a candidate
        candidates = [best.numerator]
    r = min(candidates, key=lambda rr: (abs(y - Fraction(rr, s)), rr))
    return ResonanceOrder(int(r), int(s))


def depth_from_phase(phase_samples, lam: float, period_m: float) -> MirrorProfile:
    """Etch depth realizing a reflection phase profile, d = phase*lam/(4*pi).

    Normal-incidence double-pass convention: a flat of depth d adds round-trip
    phase 4*pi*d/lam, so depths wrap into [0, lam/2). Inverse of
    phase_from_depth up to whole 2*pi wraps.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"wavelength must be positive, got {lam!r}")
    phase = np.asarray(phase_samples, dtype=float)
    if not np.all(np.isfinite(phase)):
        raise ValueError("phase samples must be finite")
    half = lam / 2.0
    # Dividing by 4*pi before scaling lets pi-multiple phases cancel exactly.
    depth = np.mod((phase / (4.0 * math.pi)) * lam, half)
    depth[depth >= half] = 0.0  # guard float wrap landing on the modulus
    return MirrorProfile(period_m=period_m, depth_samples=depth)


def phase_from_depth(profile: MirrorProfile, lam: float) -> np.ndarray:
    """Round-trip reflection phase 4*pi*d(x)/lam of the etched profile."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"wavelength must be positive, got {lam!r}")
    return (profile.depth_samples / lam) * (4.0 * math.pi)


def quantize_profile(depth_samples, n_levels: int, period_m: float) -> MirrorProfile:
    """Snap depths to n_levels uniform levels spanning [min, max] inclusive.

    Each sample rounds to the nearest level, exact half-way ties toward the
    lower level. Idempotent: requantizing the output reproduces it bitwise.
    """
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    depth = np.asarray(depth_samples, dtype=float)
    if depth.size == 0:
        raise ValueError("empty depth profile")
    if not np.all(np.isfinite(depth)):
        raise ValueError("depth samples must be finite")
    lo = float(depth.min())
    hi = float(depth.max())
    if hi == lo:
        quantized = depth.copy()
    else:
        levels = np.linspace(lo, hi, n_levels)
        t = (depth - lo) / (hi - lo) * (n_levels - 1)
        idx = np.ceil(t - 0.5).astype(int)  # round half down
        np.clip(idx, 0, n_levels - 1, out=idx)
        quantized = levels[idx]
    return MirrorProfile(period_m=period_m, depth_samples=quantized, n_levels=n_levels)


def save_mirror_profile(profile: MirrorProfile, path: str | Path) -> None:
    """Write `x_meters,depth_meters` lines with a `# period_m=... n_levels=...` header."""
    lines = [f"# period_m={profile.period_m!r} n_levels={profile.n_levels}"]
    for x, d in zip(profile.sample_positions_m, profile.depth_samples):
        lines.append(f"{float(x)!r},{float(d)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_mirror_profile(path: str | Path) -> MirrorProfile:
    """Parse a profile written by save_mirror_profile.

    A missing or malformed header or data line raises ValueError naming the path and the line.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise ValueError(f"{path}: missing '# period_m=... n_levels=...' header")
    number, header = lines[0]
    try:
        fields = dict(item.split("=", 1) for item in header.lstrip("#").split())
        period_m = float(fields["period_m"])
        raw_levels = fields["n_levels"]
        n_levels: int | str = raw_levels if raw_levels == "continuous" else int(raw_levels)
    except (KeyError, ValueError):
        raise ValueError(f"{path}:{number}: expected '# period_m=... n_levels=...', got {header!r}") from None
    depths = []
    for number, ln in lines[1:]:
        try:
            _x, d = ln.split(",")
            depths.append(float(d))
        except ValueError:
            raise ValueError(f"{path}:{number}: expected 'x_meters,depth_meters', got {ln!r}") from None
    return MirrorProfile(period_m=period_m, depth_samples=np.array(depths), n_levels=n_levels)
