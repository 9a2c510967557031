"""Scenario drivers wiring the engines and observables into figure-style runs.

Every driver writes deterministic CSV/PGM artifacts into an output directory
and returns its in-memory results for programmatic use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import observables as obs
from .config import RunConfig, serialize_config
from .evolution import (
    EffectivePlanck,
    KickedRunParams,
    MomentumLadder,
    evolve,
    plane_wave,
    scan_ladders,
)
from .fileio import write_csv, write_pgm
from .model import RatchetPotential
from .optics import (
    FarFieldImage,
    bounce_simulation,
    distance_for_hbar,
    gaussian_beam,
    hbar_from_geometry,
    image_ladders,
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
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "compare_engines",
    "run_figs",
    "write_manifest",
]

FIG2_HBARS = ((0.5, "a"), (0.35, "b"))  # hbar_eff in units of pi, panel label


def quantum_kick_ladders(cfg: RunConfig, hbar_eff: float, n_kicks: int) -> list[MomentumLadder]:
    """Per-kick spectra of the split-step engine from the standard plane wave."""
    ladders: list[MomentumLadder] = []
    params = KickedRunParams(potential=cfg.potential(), hbar=EffectivePlanck(hbar_eff), n_kicks=n_kicks)
    evolve(plane_wave(cfg.grid(), beta=cfg.beta), params, lambda _k, lad: ladders.append(lad))
    return ladders


def bounce_image(cfg: RunConfig, hbar_eff: float, n_kicks: int,
                 n_levels: int | str | None = None) -> FarFieldImage:
    """Beam-bounce run at the distance realizing hbar_eff, standard Gaussian beam."""
    hbar = EffectivePlanck(hbar_eff)
    distance = distance_for_hbar(hbar, cfg.wavelength, cfg.period)
    geom = cfg.geometry(distance=distance)
    mirror = ratchet_mirror(cfg.potential(), hbar_from_geometry(geom), cfg.wavelength,
                            cfg.period, samples_per_period=cfg.beam_points_per_period,
                            n_levels=cfg.n_levels if n_levels is None else n_levels)
    beam = gaussian_beam(cfg.period, cfg.beam_periods, cfg.beam_points_per_period,
                         cfg.beam_width, cfg.wavelength)
    return bounce_simulation(geom, mirror, beam, n_kicks,
                             loss_accounting=cfg.normalization == "loss")


def optical_kick_ladders(cfg: RunConfig, hbar_eff: float, n_kicks: int,
                         n_levels: int | str | None = None) -> list[MomentumLadder]:
    """Per-kick order distributions of the beam-bounce engine."""
    return image_ladders(bounce_image(cfg, hbar_eff, n_kicks, n_levels))


def ladder_csv_rows(ladders: list[MomentumLadder], max_order: int):
    for k, lad in enumerate(ladders, start=1):
        keep = np.abs(lad.orders) <= max_order
        for n, p in zip(lad.orders[keep], lad.probabilities[keep]):
            yield (k, int(n), float(p))


def crop_image(image: FarFieldImage, max_order: int) -> FarFieldImage:
    """Columns of orders -max_order..max_order, clipped to the image."""
    w = image.window_periods
    n = image.rows.shape[1]
    center = n // 2
    lo = max(0, center - max_order * w)
    hi = min(n, center + max_order * w + 1)
    return replace(image, rows=image.rows[:, lo:hi])


def write_panel(csv_path: Path, pgm_path: Path, image: FarFieldImage, ladders: list[MomentumLadder],
                cfg: RunConfig, comments: list[str]) -> None:
    """One CCD panel: the per-kick orders within max_order as CSV, the cropped image as PGM."""
    write_csv(csv_path, ["kick", "order", "probability"], ladder_csv_rows(ladders, cfg.max_order),
              comments=comments)
    write_pgm(pgm_path, render_ccd(crop_image(image, cfg.max_order), cfg.gamma))


def run_fig2(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Per-kick far-field panels at hbar_eff = 0.5*pi and 0.35*pi.

    Writes fig2_{a,b}.pgm and fig2_{a,b}.csv from the quantum engine and
    fig2_{a,b}_optical.{pgm,csv} from the beam engine when it is enabled.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    comments = ["columns kick,order,probability", f"n_kicks={cfg.n_kicks}"]
    for hpi, label in FIG2_HBARS:
        hbar_eff = hpi * math.pi
        panel: dict = {"hbar_eff": hbar_eff}
        if cfg.engine in ("quantum", "both"):
            ladders = quantum_kick_ladders(cfg, hbar_eff, cfg.n_kicks)
            panel["quantum"] = ladders
            # one column per ladder rung, rung 0 at the centre column like a focal-plane image
            image = FarFieldImage(rows=np.stack([lad.probabilities for lad in ladders]),
                                  window_periods=1, hbar_eff=hbar_eff)
            write_panel(out / f"fig2_{label}.csv", out / f"fig2_{label}.pgm", image, ladders, cfg,
                        [f"engine=quantum hbar={hbar_eff!r}"] + comments)
        if cfg.engine in ("optical", "both"):
            image = bounce_image(cfg, hbar_eff, cfg.n_kicks)
            ladders = image_ladders(image)
            panel["optical"] = ladders
            stem = f"fig2_{label}_optical" if cfg.engine == "both" else f"fig2_{label}"
            write_panel(out / f"{stem}.csv", out / f"{stem}.pgm", image, ladders, cfg,
                        [f"engine=optical hbar={hbar_eff!r}"] + comments)
        results[label] = panel
    return results


def run_fig3(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Per-kick moment series and fits at the resonant and off-resonant settings.

    Writes fig3_stats_{res,offres}.csv, fig3_fits.csv, and the kick-n_kicks
    distributions fig3_dist22_{res,offres}.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_comments = [ln for ln in serialize_config(cfg).splitlines() if not ln.startswith("#")]
    results: dict = {}
    fit_rows = []
    for hpi, tag in ((0.5, "res"), (0.35, "offres")):
        hbar_eff = hpi * math.pi
        ladders = quantum_kick_ladders(cfg, hbar_eff, cfg.n_kicks)
        stats = [obs.stats_from_ladder(k, lad) for k, lad in enumerate(ladders, start=1)]
        write_csv(out / f"fig3_stats_{tag}.csv",
                  ["kick", "mean_p", "mean_p2", "participation"],
                  [(s.kick, s.mean_p, s.mean_p2, s.participation) for s in stats],
                  comments=[f"hbar={hbar_eff!r}"] + manifest_comments)
        kicks = [s.kick for s in stats]
        p_fit = obs.polynomial_fit(kicks[1:], [s.mean_p for s in stats[1:]], 1)
        p2_fit = obs.polynomial_fit(kicks, [s.mean_p2 for s in stats], 2)
        for name, fit in ((f"{tag}_mean_p_linear", p_fit), (f"{tag}_mean_p2_quadratic", p2_fit)):
            coeffs = list(fit.coefficients) + [0.0] * (3 - len(fit.coefficients))
            fit_rows.append((name, len(fit.coefficients) - 1, *coeffs, fit.r_squared, fit.residual_rms))
        final = ladders[-1]
        keep = np.abs(final.orders) <= cfg.max_order
        write_csv(out / f"fig3_dist22_{tag}.csv", ["order", "probability"],
                  zip(final.orders[keep], final.probabilities[keep]),
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


def run_fig4(cfg: RunConfig, out_dir: str | Path) -> list[ScanPoint]:
    """|mean momentum| scan over the hbar_eff grid at the configured kick counts.

    fixed-k mode holds the kick strength K constant across the scan;
    fixed-kick-phase holds K/hbar_eff constant (a fixed etched mirror);
    mode `both` emits both. Local maxima are flagged per (mode, kicks) series.
    Every (mode, hbar_eff) run is one row of a batched propagation.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hbars = cfg.scan_hbar_values()
    modes = ("fixed-k", "fixed-kick-phase") if cfg.scan_mode == "both" else (cfg.scan_mode,)
    anchor = cfg.K / cfg.hbar  # K/hbar_eff held fixed in fixed-kick-phase mode
    runs = [(RatchetPotential(K=anchor * h, alpha=cfg.alpha, phi=cfg.phi)
             if mode == "fixed-kick-phase" else cfg.potential(), EffectivePlanck(h))
            for mode in modes for h in hbars]
    values = {(*divmod(run, len(hbars)), kick): abs(obs.mean_momentum(ladder))
              for run, kick, ladder in scan_ladders(cfg.grid(), cfg.beta, runs, cfg.scan_kicks_at)}
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


QUANTIZATION_SWEEP = (2, 4, 8, 16, 32, 64)


def compare_engines(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Quantum-ladder vs beam-bounce distributions, plus mirror quantization study.

    Rows of compare_engines.csv:
      quantum_vs_optical      per-kick L_inf and TV, ideal continuous mirror
      quantized_vs_continuous per-kick TV of the 16-level mirror bounce
      quantization_sweep      final-kick TV for n_levels in {2,4,8,16,32,64}
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_kicks = cfg.n_kicks
    quantum = quantum_kick_ladders(cfg, cfg.hbar, n_kicks)
    optical = optical_kick_ladders(cfg, cfg.hbar, n_kicks, n_levels="continuous")
    rows = []
    per_kick_linf = []
    per_kick_tv = []
    for k in range(1, n_kicks + 1):
        q, o = quantum[k - 1], optical[k - 1]
        linf = obs.distribution_linf(q.orders, q.probabilities, o.orders, o.probabilities)
        tv = obs.distribution_distance(q.orders, q.probabilities, o.orders, o.probabilities)
        per_kick_linf.append(linf)
        per_kick_tv.append(tv)
        rows.append(("quantum_vs_optical", k, "continuous", linf, tv))
    sweep = {n_levels: optical_kick_ladders(cfg, cfg.hbar, n_kicks, n_levels=n_levels)
             for n_levels in QUANTIZATION_SWEEP}
    sixteen = sweep[16]
    for k in range(1, n_kicks + 1):
        tv = obs.distribution_distance(sixteen[k - 1].orders, sixteen[k - 1].probabilities,
                                       optical[k - 1].orders, optical[k - 1].probabilities)
        rows.append(("quantized_vs_continuous", k, 16, "", tv))
    sweep_tv: dict[int, float] = {}
    for n_levels, quant in sweep.items():
        tv = obs.distribution_distance(quant[-1].orders, quant[-1].probabilities,
                                       optical[-1].orders, optical[-1].probabilities)
        sweep_tv[n_levels] = tv
        rows.append(("quantization_sweep", n_kicks, n_levels, "", tv))
    write_csv(out / "compare_engines.csv", ["comparison", "kick", "n_levels", "l_inf", "tv"],
              rows, comments=[f"hbar={cfg.hbar!r} n_kicks={n_kicks}",
                              f"beam_width={cfg.beam_width!r} beam_periods={cfg.beam_periods}"])
    return {"per_kick_linf": per_kick_linf, "per_kick_tv": per_kick_tv, "sweep_tv": sweep_tv}


def write_manifest(cfg: RunConfig, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_manifest").write_text(serialize_config(cfg), encoding="utf-8")


def run_figs(cfg: RunConfig, out_dir: str | Path) -> dict:
    """End-to-end figure pipeline: fig2 + fig3 + fig4 artifacts plus manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out)
    return {
        "fig2": run_fig2(cfg, out),
        "fig3": run_fig3(cfg, out),
        "fig4": run_fig4(cfg, out),
    }
