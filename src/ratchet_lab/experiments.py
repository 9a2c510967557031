"""Scenario drivers wiring the engines and observables into figure-style runs.

Every driver writes deterministic CSV/PGM artifacts into an output directory
and returns its in-memory results for programmatic use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import observables as obs
from .config import QUANTIZATION_SWEEP, ConfigError, RunConfig, serialize_config
from .evolution import KickedRunParams, MomentumLadder, SpatialGrid, _check_probabilities, _orders, scan_probabilities
from .fileio import write_csv, write_pgm
from .model import EffectivePlanck, MirrorProfile, RatchetPotential
from .optics import (
    BeamField,
    FarFieldImage,
    OpticalGeometry,
    _bounce_images,
    bounce_ladders,
    bounce_simulation,
    distance_for_hbar,
    gaussian_beam,
    ratchet_mirror,
    render_ccd,
)

__all__ = [
    "ScanPoint",
    "quantum_kick_ladders",
    "optical_kick_ladders",
    "bounce_image",
    "crop_image",
    "ladder_csv_rows",
    "write_panel",
    "write_stats",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "compare_engines",
    "run_figs",
    "write_manifest",
]

FIG2_HBARS = ((0.5, "a"), (0.35, "b"))  # hbar_eff in units of pi, panel label
FIG3_TAGS = ("res", "offres")  # fig 3's runs, at fig 2's two hbar_eff values in order
# fig 3 fits mean_p over kicks 2..n (degree 1) and mean_p2 over 1..n (degree 2),
# each on at least degree + 2 points
FIG3_MIN_KICKS = 4


def _quantum_stacks(cfg: RunConfig, hbar_effs: Sequence[float], n_kicks: int) -> list[MomentumLadder]:
    """The split-step engine's (n_kicks, n) spectrum stack from the standard plane wave per
    hbar_eff: one `scan_probabilities` batch tapped at every kick into one (runs, n_kicks, n)
    stack, whose run slices are the ladders, each row bitwise the ladder `evolve` records."""
    grid = cfg.grid()
    pot = cfg.potential()
    runs = [KickedRunParams(pot, EffectivePlanck(hbar_eff), n_kicks) for hbar_eff in hbar_effs]
    stacks = np.empty((len(runs), n_kicks, grid.n))
    for lo, k, probs in scan_probabilities(grid, cfg.beta, [(run.potential, run.hbar) for run in runs],
                                           range(1, n_kicks + 1)):
        stacks[lo:lo + len(probs), k - 1] = probs
    orders = _orders(grid)
    return [MomentumLadder(cfg.beta, orders, stack, run.hbar, grid.periods)
            for run, stack in zip(runs, stacks)]


def quantum_kick_ladders(cfg: RunConfig, hbar_eff: float, n_kicks: int) -> MomentumLadder:
    """The split-step engine's (n_kicks, n) spectrum stack from the standard plane wave: a
    `scan_probabilities` batch of one run, each row bitwise the ladder `evolve` records."""
    (ladders,) = _quantum_stacks(cfg, [hbar_eff], n_kicks)
    return ladders


def _ratchet_mirrors(cfg: RunConfig, hbar_eff: float, levels: Sequence[int | str]
                     ) -> tuple[OpticalGeometry, list[MirrorProfile]]:
    """Geometry at the distance realizing hbar_eff, and one ratchet mirror cut for hbar_eff per
    entry of `levels`."""
    hbar = EffectivePlanck(hbar_eff)
    geom = cfg.geometry(distance=distance_for_hbar(hbar, cfg.wavelength, cfg.period))
    pot = cfg.potential()
    return geom, [ratchet_mirror(pot, hbar, cfg.wavelength, cfg.period,
                                 samples_per_period=cfg.beam_points_per_period, n_levels=n_levels)
                  for n_levels in levels]


def _standard_beam(cfg: RunConfig) -> BeamField:
    """The configured Gaussian beam every driver bounces."""
    return gaussian_beam(cfg.period, cfg.beam_periods, cfg.beam_points_per_period, cfg.beam_width,
                         cfg.wavelength)


def _bounce_setup(cfg: RunConfig, hbar_eff: float, levels: Sequence[int | str]
                  ) -> tuple[OpticalGeometry, list[MirrorProfile], BeamField]:
    """`_ratchet_mirrors`' geometry and mirrors, and the standard Gaussian beam."""
    return (*_ratchet_mirrors(cfg, hbar_eff, levels), _standard_beam(cfg))


def bounce_image(cfg: RunConfig, hbar_eff: float, n_kicks: int,
                 n_levels: int | str | None = None) -> FarFieldImage:
    """Beam-bounce run at the distance realizing hbar_eff, standard Gaussian beam."""
    geom, (mirror,), beam = _bounce_setup(cfg, hbar_eff, [cfg.n_levels if n_levels is None else n_levels])
    return bounce_simulation(geom, mirror, beam, n_kicks)


def optical_kick_ladders(cfg: RunConfig, hbar_eff: float, n_kicks: int,
                         n_levels: int | str | None = None) -> MomentumLadder:
    """The (n_kicks, orders) order distribution stack of the beam-bounce engine."""
    return bounce_image(cfg, hbar_eff, n_kicks, n_levels).ladders


def ladder_csv_rows(ladders: MomentumLadder, max_order: int):
    """(kick, order, probability) of each kick's orders within max_order, from a (kicks, orders) stack."""
    keep = np.abs(ladders.orders) <= max_order
    orders = ladders.orders[keep].tolist()
    for k, row in enumerate(ladders.probabilities[:, keep].tolist(), start=1):
        yield from ((k, n, p) for n, p in zip(orders, row))


def crop_image(image: FarFieldImage, max_order: int) -> FarFieldImage:
    """Columns of orders -max_order..max_order, clipped to the image."""
    w = image.window_periods
    n = image.rows.shape[1]
    center = n // 2
    lo = max(0, center - max_order * w)
    hi = min(n, center + max_order * w + 1)
    return replace(image, rows=image.rows[:, lo:hi])


def write_panel(csv_path: Path, pgm_path: Path, image: FarFieldImage, cfg: RunConfig,
                comments: list[str]) -> None:
    """One CCD panel: the image's per-kick orders within max_order as CSV, the cropped image as PGM."""
    write_csv(csv_path, ["kick", "order", "probability"], ladder_csv_rows(image.ladders, cfg.max_order),
              comments=comments)
    write_pgm(pgm_path, render_ccd(crop_image(image, cfg.max_order), cfg.gamma))


def write_stats(path: Path, ladders: MomentumLadder, comments: list[str]) -> list[obs.StepStats]:
    """Write a stack's per-kick moments as a kick,mean_p,mean_p2,participation CSV, and return them."""
    stats = obs._kick_stats(ladders)
    write_csv(path, ["kick", "mean_p", "mean_p2", "participation"],
              [(s.kick, s.mean_p, s.mean_p2, s.participation) for s in stats], comments=comments)
    return stats


def _quantum_runs(cfg: RunConfig) -> list[MomentumLadder]:
    """Quantum ladder stacks at fig 2's two hbar_eff values, the runs fig 3 also reads: one
    `_quantum_stacks` batch of both."""
    return _quantum_stacks(cfg, [hpi * math.pi for hpi, _label in FIG2_HBARS], cfg.n_kicks)


def _optical_runs(cfg: RunConfig) -> list[FarFieldImage]:
    """Bounce images at fig 2's two hbar_eff values, each at its own distance and mirror: one
    `_bounce_images` batch of both runs on the standard Gaussian beam."""
    runs = []
    for hpi, _label in FIG2_HBARS:
        geom, (mirror,) = _ratchet_mirrors(cfg, hpi * math.pi, [cfg.n_levels])
        runs.append((geom, mirror))
    return _bounce_images(runs, _standard_beam(cfg), cfg.n_kicks)


def run_fig2(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Per-kick far-field panels at hbar_eff = 0.5*pi and 0.35*pi.

    Writes fig2_{a,b}.pgm and fig2_{a,b}.csv from the quantum engine and
    fig2_{a,b}_optical.{pgm,csv} from the beam engine when it is enabled.
    Each engine runs both panels as one batch (`_quantum_runs`,
    `_optical_runs`), each panel bitwise its run alone.
    """
    return _fig2(cfg, out_dir, _quantum_runs(cfg) if cfg.engine in ("quantum", "both") else [])


def _fig2(cfg: RunConfig, out_dir: str | Path, quantum: list[MomentumLadder]) -> dict:
    """`run_fig2` with its quantum runs given; they are read only when the quantum engine is on."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    comments = ["columns kick,order,probability", f"n_kicks={cfg.n_kicks}"]
    optical = _optical_runs(cfg) if cfg.engine in ("optical", "both") else []
    for i, (hpi, label) in enumerate(FIG2_HBARS):
        hbar_eff = hpi * math.pi
        panel: dict = {"hbar_eff": hbar_eff}
        if cfg.engine in ("quantum", "both"):
            ladders = quantum[i]
            panel["quantum"] = ladders
            # one column per ladder rung, rung 0 at the centre column like a focal-plane image
            image = FarFieldImage(rows=ladders.probabilities, window_periods=1, ladders=ladders)
            write_panel(out / f"fig2_{label}.csv", out / f"fig2_{label}.pgm", image, cfg,
                        [f"engine=quantum hbar={hbar_eff!r}"] + comments)
        if cfg.engine in ("optical", "both"):
            image = optical[i]
            panel["optical"] = image.ladders
            stem = f"fig2_{label}_optical" if cfg.engine == "both" else f"fig2_{label}"
            write_panel(out / f"{stem}.csv", out / f"{stem}.pgm", image, cfg,
                        [f"engine=optical hbar={hbar_eff!r}"] + comments)
        results[label] = panel
    return results


def run_fig3(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Per-kick moment series and fits at the resonant and off-resonant settings.

    Writes fig3_stats_{res,offres}.csv, fig3_fits.csv, and the kick-n_kicks
    distributions fig3_dist22_{res,offres}.csv.
    """
    _check_fig3_kicks(cfg)
    return _fig3(cfg, out_dir, _quantum_runs(cfg))


def _check_fig3_kicks(cfg: RunConfig) -> None:
    if cfg.n_kicks < FIG3_MIN_KICKS:
        raise ConfigError(f"n_kicks: fig 3's fits need n_kicks >= {FIG3_MIN_KICKS}, got {cfg.n_kicks}")


def _fig3(cfg: RunConfig, out_dir: str | Path, quantum: list[MomentumLadder]) -> dict:
    """`run_fig3` with its two quantum runs given."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_comments = [ln for ln in serialize_config(cfg).splitlines() if not ln.startswith("#")]
    results: dict = {}
    fit_rows = []
    for (hpi, _label), tag, ladders in zip(FIG2_HBARS, FIG3_TAGS, quantum):
        hbar_eff = hpi * math.pi
        stats = write_stats(out / f"fig3_stats_{tag}.csv", ladders,
                            [f"hbar={hbar_eff!r}"] + manifest_comments)
        kicks = [s.kick for s in stats]
        p_fit = obs.polynomial_fit(kicks[1:], [s.mean_p for s in stats[1:]], 1)
        p2_fit = obs.polynomial_fit(kicks, [s.mean_p2 for s in stats], 2)
        for name, fit in ((f"{tag}_mean_p_linear", p_fit), (f"{tag}_mean_p2_quadratic", p2_fit)):
            coeffs = list(fit.coefficients) + [0.0] * (3 - len(fit.coefficients))
            fit_rows.append((name, len(fit.coefficients) - 1, *coeffs, fit.r_squared, fit.residual_rms))
        keep = np.abs(ladders.orders) <= cfg.max_order
        write_csv(out / f"fig3_dist22_{tag}.csv", ["order", "probability"],
                  zip(ladders.orders[keep].tolist(), ladders.probabilities[-1, keep].tolist()),
                  comments=[f"hbar={hbar_eff!r} kick={cfg.n_kicks}"])
        results[tag] = {"hbar_eff": hbar_eff, "ladders": ladders, "stats": stats,
                        "p_fit": p_fit, "p2_fit": p2_fit}
    write_csv(out / "fig3_fits.csv",
              ["series", "degree", "c0", "c1", "c2", "r_squared", "residual_rms"],
              fit_rows, comments=["mean_p fitted over kicks 2..n, mean_p2 over 1..n"])
    return results


@dataclass(frozen=True)
class ScanPoint:
    mode: str
    hbar_eff: float
    kicks: int
    abs_mean_p: float
    is_local_max: bool = False


def _scan_abs_mean_p(grid: SpatialGrid, beta: float, runs: Sequence[tuple[RatchetPotential, EffectivePlanck]],
                     kicks_at: Sequence[int]) -> Iterator[tuple[int, int, float]]:
    """(run index, kick, |<p>|) of every scan run, each chunk's |<p>| taken in one reduction.

    Each chunk's rows get MomentumLadder's checks first (ValueError), as no ladder is built,
    and each value is bitwise abs(mean_momentum(ladder)) of the run's ladder.
    """
    # the ladder value n/periods + beta of each probability column: the orders of the run's
    # MomentumLadder, through its ladder_values formula
    ladder_values = _orders(grid) / grid.periods + beta
    for lo, kick, probs in scan_probabilities(grid, beta, runs, kicks_at):
        _check_probabilities(probs)
        means = np.abs(obs._first_moment(ladder_values, probs, out=probs)).tolist()
        for run, value in enumerate(means, start=lo):
            yield run, kick, value


def run_fig4(cfg: RunConfig, out_dir: str | Path) -> list[ScanPoint]:
    """|mean momentum| scan over the hbar_eff grid at the configured kick counts.

    fixed-k mode holds the kick strength K constant across the scan;
    fixed-kick-phase holds K/hbar_eff constant (a fixed etched mirror);
    mode `both` emits both. Local maxima are flagged per (mode, kicks) series.
    Every (mode, hbar_eff) run is one row of a batched propagation, and each
    chunk's |<p>| is taken in one reduction over its probabilities.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hbars = cfg.scan_hbar_values()
    modes = ("fixed-k", "fixed-kick-phase") if cfg.scan_mode == "both" else (cfg.scan_mode,)
    anchor = cfg.K / cfg.hbar  # K/hbar_eff held fixed in fixed-kick-phase mode
    runs = [(RatchetPotential(K=anchor * h, alpha=cfg.alpha, phi=cfg.phi)
             if mode == "fixed-kick-phase" else cfg.potential(), EffectivePlanck(h))
            for mode in modes for h in hbars]
    values = {(*divmod(run, len(hbars)), kick): value
              for run, kick, value in _scan_abs_mean_p(cfg.grid(), cfg.beta, runs, cfg.scan_kicks_at)}
    # keys (mode, hbar, kicks) sort as the CSV rows, since `modes` is in name order;
    # local maxima (plateau-tolerant) are flagged within each (mode, kicks) series
    points: list[ScanPoint] = []
    for (m, i, kicks), value in sorted(values.items()):
        left, right = (values.get((m, j, kicks), -math.inf) for j in (i - 1, i + 1))
        points.append(ScanPoint(mode=modes[m], hbar_eff=hbars[i], kicks=kicks, abs_mean_p=value,
                                is_local_max=value >= left and value >= right))
    write_csv(out / "fig4_scan.csv", ["mode", "hbar", "kicks", "mean_p_final", "is_local_max"],
              [(p.mode, p.hbar_eff, p.kicks, p.abs_mean_p, int(p.is_local_max)) for p in points],
              comments=["mean_p_final is |<p>| at the stated kick count",
                        f"K={cfg.K!r} alpha={cfg.alpha!r} phi={cfg.phi!r} beta={cfg.beta!r}"])
    return points


def compare_engines(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Quantum-ladder vs beam-bounce distributions, plus mirror quantization study.

    Rows of compare_engines.csv:
      quantum_vs_optical      per-kick L_inf and TV, ideal continuous mirror
      quantized_vs_continuous per-kick TV of the 16-level mirror bounce
      quantization_sweep      final-kick TV for n_levels in {2,4,8,16,32,64}

    Each comparison is one aligned difference of two runs' probability stacks
    (`observables._difference`; the bounce batch's mirrors share one orders
    array), and every row's L_inf and TV are bitwise what `distribution_linf`
    and `distribution_distance` give for its pair of rows.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_kicks = cfg.n_kicks
    quantum = quantum_kick_ladders(cfg, cfg.hbar, n_kicks)
    geom, mirrors, beam = _bounce_setup(cfg, cfg.hbar, ("continuous", *QUANTIZATION_SWEEP))
    optical, *quantized = bounce_ladders(geom, mirrors, beam, n_kicks)
    kicks = range(1, n_kicks + 1)
    orders, continuous = optical.orders, optical.probabilities
    engines = obs._difference(quantum.orders, quantum.probabilities, orders, continuous)
    per_kick_linf = obs._linf(engines)
    per_kick_tv = obs._total_variation(engines)
    rows = [("quantum_vs_optical", k, "continuous", linf, tv)
            for k, linf, tv in zip(kicks, per_kick_linf, per_kick_tv)]
    sixteen = quantized[QUANTIZATION_SWEEP.index(16)]
    sixteen_tv = obs._total_variation(
        obs._difference(sixteen.orders, sixteen.probabilities, orders, continuous))
    rows += [("quantized_vs_continuous", k, 16, "", tv) for k, tv in zip(kicks, sixteen_tv)]
    finals = obs._difference(orders, np.stack([quant.probabilities[-1] for quant in quantized]),
                             orders, continuous[-1])
    sweep_tv = dict(zip(QUANTIZATION_SWEEP, obs._total_variation(finals)))
    rows += [("quantization_sweep", n_kicks, n_levels, "", tv) for n_levels, tv in sweep_tv.items()]
    write_csv(out / "compare_engines.csv", ["comparison", "kick", "n_levels", "l_inf", "tv"],
              rows, comments=[f"hbar={cfg.hbar!r} n_kicks={n_kicks}",
                              f"beam_width={cfg.beam_width!r} beam_periods={cfg.beam_periods}"])
    return {"per_kick_linf": per_kick_linf, "per_kick_tv": per_kick_tv, "sweep_tv": sweep_tv}


def write_manifest(cfg: RunConfig, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_manifest").write_text(serialize_config(cfg), encoding="utf-8")


def run_figs(cfg: RunConfig, out_dir: str | Path) -> dict:
    """End-to-end figure pipeline: fig2 + fig3 + fig4 artifacts plus manifest.

    Fig 2 and fig 3 share one batch of two quantum runs; fig 2's two bounce
    runs are one batch too.
    """
    _check_fig3_kicks(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out)
    quantum = _quantum_runs(cfg)
    return {
        "fig2": _fig2(cfg, out, quantum),
        "fig3": _fig3(cfg, out, quantum),
        "fig4": run_fig4(cfg, out),
    }
