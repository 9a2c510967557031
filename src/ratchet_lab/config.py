"""Flat key=value run configuration with CLI overrides.

Every key is declared once, as a `RunConfig` field whose metadata holds its
parser (which also validates) and, where it differs from the attribute, its
file name. Exactly one of `hbar` / `distance` is supplied; the other is
derived through the geometry relation hbar_eff = 2*pi*lambda*L/l^2. Values of
hbar-like keys accept `0.5pi`-style literals so resonant settings carry no
transcription rounding. Unknown keys and non-finite numbers are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .model import EffectivePlanck, RatchetPotential
from .evolution import SpatialGrid
from .optics import OpticalGeometry, distance_for_hbar, hbar_from_geometry

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file", "serialize_config"]

ENGINES = ("quantum", "optical", "both")
SCAN_MODES = ("fixed-k", "fixed-kick-phase", "both")

# Largest hbar_eff scan accepted; the default scan has 100 points.
MAX_SCAN_POINTS = 10_000

# Most propagation work a config may ask of one batch, in sample-kicks (kicks x samples
# per run x runs). The largest documented run, a 10,000-point `scan --scan_mode=both`,
# needs 1.1e8; 2e9 is about a minute of bouncing a beam whose quasimomentum classes all
# carry weight (one narrower than a mirror period), at the 2e-8 to 4e-8 s per sample-kick
# that such a `compare` takes on a 2-vCPU x86-64 machine. A beam that drops classes costs
# less: the 64-period-wide `compare` benchmark beam runs 21 of its 512 classes.
WORK_BUDGET = 2 * 10**9
# Most bytes one large buffer may take: the beam's window-wide buffers (its samples, their
# FFT over the period axis, the class weights) at up to 80 bytes a beam sample (64.9 measured
# in `compare` at 4,096 periods), and a quantum run's (kicks, grid points) stack or a CCD
# image's (kicks, beam samples) rows at 8 bytes an entry (`longrun`'s image: 1.3e8 bytes).
BEAM_MEMORY_BUDGET = 1 << 28
WINDOW_BYTES_PER_SAMPLE = 80
# Mirror levels `compare` sweeps, and the runs in its bounce batch: the continuous mirror
# and one per sweep level.
QUANTIZATION_SWEEP = (2, 4, 8, 16, 32, 64)
COMPARE_MIRRORS = 1 + len(QUANTIZATION_SWEEP)


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration key."""


def _number(rule: str = "", ok=None, pi: bool = False):
    """Parser for a finite float satisfying `ok`; `pi` also accepts `0.5pi`, `pi` and `-pi` literals."""
    def parse(text: str) -> float:
        try:
            if pi and text.endswith("pi"):
                factor = text[:-2]
                value = float(factor + "1" if factor in ("", "+", "-") else factor) * math.pi
            else:
                value = float(text)
        except ValueError:
            suffix = " (or pi-multiple)" if pi else ""
            raise ValueError(f"cannot parse {text!r} as a number{suffix}") from None
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value!r}")
        if ok is not None and not ok(value):
            raise ValueError(f"must {rule}, got {value!r}")
        return value
    return parse


def _integer(rule: str, ok):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"cannot parse {text!r} as an integer") from None
        if not ok(value):
            raise ValueError(f"must {rule}, got {value}")
        return value
    return parse


def _choice(options: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {options}, got {text!r}")
        return text
    return parse


def _levels(text: str) -> int | str:
    if text == "continuous":
        return text
    return _integer("be >= 2 or 'continuous'", lambda n: n >= 2)(text)


def _kick_counts(text: str) -> tuple[int, ...]:
    try:
        kicks = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as comma-separated integers") from None
    if not kicks or any(k < 1 for k in kicks):
        raise ValueError(f"need kick counts >= 1, got {text!r}")
    if len(set(kicks)) < len(kicks):
        raise ValueError(f"kick counts must not repeat, got {text!r}")
    return kicks


def _key(default, parse, name: str | None = None):
    """A configuration key: its default, its parser, and its file name if not the attribute's."""
    metadata = {"parse": parse} if name is None else {"parse": parse, "name": name}
    return field(default=default, metadata=metadata)


_POSITIVE = _number("be positive", lambda v: v > 0)


@dataclass(frozen=True)
class RunConfig:
    engine: str = _key("both", _choice(ENGINES))
    K: float = _key(1.0, _number("be >= 0", lambda v: v >= 0))
    alpha: float = _key(0.3, _number())
    phi: float = _key(0.0, _number(pi=True))
    # resolved values, always present; `hbar_given` records which was supplied
    hbar: float = _key(0.5 * math.pi, _number("be positive", lambda v: v > 0, pi=True))
    distance: float = _key(0.169172, _POSITIVE)
    hbar_given: bool = True
    wavelength: float = _key(532e-9, _POSITIVE, name="lambda")
    period: float = _key(600e-6, _POSITIVE)
    periods: int = _key(1, _integer("be >= 1", lambda n: n >= 1))
    points_per_period: int = _key(256, _integer("be an even integer >= 32",
                                                lambda n: n >= 32 and n % 2 == 0))
    beam_periods: int = _key(64, _integer("be >= 8", lambda n: n >= 8))
    beam_points_per_period: int = _key(128, _integer("be >= 64", lambda n: n >= 64))
    beam_width: float = _key(3e-3, _POSITIVE)
    beta: float = _key(0.0, _number("lie in [0, 1)", lambda v: 0.0 <= v < 1.0))
    n_kicks: int = _key(22, _integer("be >= 1", lambda n: n >= 1))
    n_levels: int | str = _key("continuous", _levels)
    gamma: float = _key(1.0, _POSITIVE)
    max_order: int = _key(32, _integer("be >= 8", lambda n: n >= 8))
    scan_hbar_min: float = _key(0.02 * math.pi, _number(pi=True))
    scan_hbar_max: float = _key(2.0 * math.pi, _number(pi=True))
    scan_hbar_step: float = _key(0.02 * math.pi, _number("be positive", lambda v: v > 0, pi=True))
    scan_kicks_at: tuple[int, ...] = _key((21, 5), _kick_counts)
    scan_mode: str = _key("fixed-k", _choice(SCAN_MODES))

    # Construction helpers for the engines.
    def potential(self) -> RatchetPotential:
        return RatchetPotential(K=self.K, alpha=self.alpha, phi=self.phi)

    def effective_planck(self) -> EffectivePlanck:
        return EffectivePlanck(self.hbar)

    def grid(self) -> SpatialGrid:
        return SpatialGrid(periods=self.periods, points_per_period=self.points_per_period)

    def geometry(self, distance: float | None = None) -> OpticalGeometry:
        return OpticalGeometry(
            wavelength_m=self.wavelength,
            period_m=self.period,
            distance_m=self.distance if distance is None else distance,
        )

    def scan_hbar_values(self) -> tuple[float, ...]:
        """The scan's hbar_eff grid: scan_hbar_min + i*scan_hbar_step up to scan_hbar_max."""
        n = int(round((self.scan_hbar_max - self.scan_hbar_min) / self.scan_hbar_step)) + 1
        values = (self.scan_hbar_min + i * self.scan_hbar_step for i in range(n))
        return tuple(v for v in values if v <= self.scan_hbar_max * (1 + 1e-12))


# file name -> field, in declaration order
_KEYS = {f.metadata.get("name", f.name): f for f in fields(RunConfig) if "parse" in f.metadata}


def parse_config(text: str = "", overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a validated RunConfig from key=value lines plus CLI overrides."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    for key, value in (overrides or {}).items():
        raw[key.strip()] = str(value).strip()

    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown key{'s' if len(unknown) > 1 else ''}: {', '.join(unknown)}")

    values = {}
    for key, f in _KEYS.items():
        if key in raw:
            try:
                values[f.name] = f.metadata["parse"](raw[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None

    if ("hbar" in raw) == ("distance" in raw):
        got = "both" if "hbar" in raw else "neither"
        raise ConfigError(f"exactly one of hbar / distance must be supplied, got {got}")
    cfg = RunConfig(hbar_given="hbar" in raw, **values)
    try:
        if cfg.hbar_given:
            cfg = replace(cfg, distance=distance_for_hbar(cfg.effective_planck(), cfg.wavelength, cfg.period))
        else:
            cfg = replace(cfg, hbar=hbar_from_geometry(cfg.geometry()).hbar_eff)
        cfg.geometry()  # a derived distance must be positive and finite, as a given one is
    except (ValueError, ArithmeticError) as exc:  # the derived value, or period**2, over- or underflowed
        derived = "distance" if cfg.hbar_given else "hbar"
        raise ConfigError(f"{derived}: cannot be derived from the other keys: {exc}") from None

    scan_min, scan_max = cfg.scan_hbar_min, cfg.scan_hbar_max
    if not 0 < scan_min <= scan_max:
        raise ConfigError(f"scan_hbar_min: need 0 < scan_hbar_min <= scan_hbar_max, "
                          f"got {scan_min!r}, {scan_max!r}")
    # capped before rounding, so a span too large for an int still fails cleanly
    span = (scan_max - scan_min) / cfg.scan_hbar_step
    if round(min(span, MAX_SCAN_POINTS)) + 1 > MAX_SCAN_POINTS:
        raise ConfigError(f"scan_hbar_step: must give at most {MAX_SCAN_POINTS} scan points, "
                          f"got {span + 1:.6g}")
    values = cfg.scan_hbar_values()
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"scan_hbar_step: {cfg.scan_hbar_step!r} is too small to separate "
                          f"scan points near {scan_max!r} in floating point")
    work, keys, terms = max(_batch_work(cfg, len(values)))
    if work > WORK_BUDGET:
        raise ConfigError(f"{keys}: {terms} is {work:.3g} sample-kicks, over the work budget "
                          f"of {WORK_BUDGET:.3g}")
    memory, keys, terms = max(_batch_bytes(cfg))
    if memory > BEAM_MEMORY_BUDGET:
        raise ConfigError(f"{keys}: {terms} is {memory:.3g} bytes, over the beam memory budget "
                          f"of {BEAM_MEMORY_BUDGET:.3g}")
    return cfg


def _batch_work(cfg: RunConfig, scan_points: int) -> list[tuple[int, str, str]]:
    """(sample-kicks, the keys that set them, the product spelled out) of each batch a
    subcommand may run: a quantum run, the resonance scan and `compare`'s mirror batch."""
    grid = cfg.periods * cfg.points_per_period
    beam = cfg.beam_periods * cfg.beam_points_per_period
    scan_kicks = max(cfg.scan_kicks_at)
    scan_rows = scan_points * (2 if cfg.scan_mode == "both" else 1)
    return [
        (cfg.n_kicks * grid, "n_kicks, periods, points_per_period",
         f"{cfg.n_kicks} kicks x {grid} grid points"),
        (scan_kicks * grid * scan_rows, "scan_kicks_at, periods, points_per_period, scan_hbar_step",
         f"{scan_kicks} kicks x {grid} grid points x {scan_rows} scan rows"),
        (cfg.n_kicks * beam * COMPARE_MIRRORS, "n_kicks, beam_periods, beam_points_per_period",
         f"{cfg.n_kicks} kicks x {beam} beam samples x {COMPARE_MIRRORS} mirrors"),
    ]


def _batch_bytes(cfg: RunConfig) -> list[tuple[int, str, str]]:
    """(bytes, keys, product spelled out) of each buffer BEAM_MEMORY_BUDGET bounds."""
    grid = cfg.periods * cfg.points_per_period
    beam = cfg.beam_periods * cfg.beam_points_per_period
    return [
        (beam * WINDOW_BYTES_PER_SAMPLE, "beam_periods, beam_points_per_period",
         f"{beam} beam samples x {WINDOW_BYTES_PER_SAMPLE} bytes"),
        (cfg.n_kicks * grid * 8, "n_kicks, periods, points_per_period",
         f"{cfg.n_kicks} kicks x {grid} grid points x 8 bytes"),
        (cfg.n_kicks * beam * 8, "n_kicks, beam_periods, beam_points_per_period",
         f"{cfg.n_kicks} kicks x {beam} beam samples x 8 bytes"),
    ]


def parse_config_file(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), overrides)


def _format(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Manifest form: every parameter as key=value, reparsing yields an equal config."""
    derived = "distance" if cfg.hbar_given else "hbar"
    lines = [f"{key}={_format(getattr(cfg, f.name))}" for key, f in _KEYS.items() if key != derived]
    lines += [f"# derived {derived}={getattr(cfg, derived)!r}",
              f"# derived hbar_over_pi={cfg.hbar / math.pi!r}"]
    return "\n".join(lines) + "\n"
