import math

import numpy as np
import pytest

from ratchet_lab.config import parse_config
from ratchet_lab.experiments import (
    QUANTIZATION_SWEEP,
    bounce_image,
    compare_engines,
    crop_image,
    optical_kick_ladders,
    quantum_kick_ladders,
    run_fig2,
    run_fig3,
    run_fig4,
    run_figs,
)
from ratchet_lab.cli import main
from ratchet_lab.fileio import read_pgm
from ratchet_lab.optics import FarFieldImage, render_ccd
from ratchet_lab.observables import mean_momentum, mean_square_momentum


def cfg_with(**overrides):
    defaults = {"hbar": "0.5pi"}
    defaults.update({k: str(v) for k, v in overrides.items()})
    return parse_config("", defaults)


# --- fig2 -------------------------------------------------------------------

def test_fig2_zero_strength_rows_identical(tmp_path):
    cfg = cfg_with(K=0, engine="quantum")
    result = run_fig2(cfg, tmp_path)
    for panel in result.values():
        ladders = panel["quantum"]
        for lad in ladders[1:]:
            assert np.array_equal(lad.probabilities, ladders[0].probabilities)
    raster = read_pgm(tmp_path / "fig2_a.pgm")
    assert raster.shape == (22, 65)
    assert np.all(raster == raster[0])


def test_fig2_resonant_drift_direction_and_offres_bound(tmp_path):
    # thresholds frozen from the cross-validated trajectories: the resonant
    # centroid drifts to +0.39 ladder orders by kick 22 with transient
    # oscillation; the off-resonant centroid oscillates about zero
    cfg = cfg_with(engine="quantum")
    result = run_fig2(cfg, tmp_path)
    res = [mean_momentum(lad) for lad in result["a"]["quantum"]]
    off = [mean_momentum(lad) for lad in result["b"]["quantum"]]
    assert res[-1] > 0.3
    assert np.mean(res[-10:]) > 0.3
    assert abs(np.mean(off[-10:])) < 0.15
    assert (tmp_path / "fig2_b.csv").exists()


def test_fig2_optical_panels_written(tmp_path):
    cfg = cfg_with(engine="both", beam_periods=16, beam_points_per_period=64, n_kicks=4)
    result = run_fig2(cfg, tmp_path)
    for label in ("a", "b"):
        assert (tmp_path / f"fig2_{label}.pgm").exists()
        assert (tmp_path / f"fig2_{label}_optical.pgm").exists()
        assert len(result[label]["optical"]) == 4
    raster = read_pgm(tmp_path / "fig2_a_optical.pgm")
    assert raster.shape[0] == 4


def old_quantum_panel_rows(ladders, max_order):
    """Reference: the quantum CCD rows as the orders |n| <= max_order of each ladder."""
    return np.stack([lad.probabilities[np.abs(lad.orders) <= max_order] for lad in ladders])


@pytest.mark.parametrize("periods", [1, 2, 3])
def test_quantum_panel_crop_matches_order_cut(tmp_path, periods):
    cfg = cfg_with(engine="quantum", periods=periods, points_per_period=64, n_kicks=5, gamma=0.5)
    ladders = quantum_kick_ladders(cfg, 0.5 * math.pi, cfg.n_kicks)
    image = FarFieldImage(rows=np.stack([lad.probabilities for lad in ladders]), window_periods=1,
                          hbar_eff=0.5 * math.pi)
    for max_order in (0, 5, 40, 200):  # 40 and 200 reach past the edge of a 64-point grid
        cropped = crop_image(image, max_order).rows
        assert cropped.tobytes() == old_quantum_panel_rows(ladders, max_order).tobytes()
    run_fig2(cfg, tmp_path)
    expected = render_ccd(FarFieldImage(rows=old_quantum_panel_rows(ladders, cfg.max_order),
                                        window_periods=1, hbar_eff=0.5 * math.pi), cfg.gamma)
    assert read_pgm(tmp_path / "fig2_a.pgm").tobytes() == expected.tobytes()


def test_optical_subcommand_writes_the_fig2_optical_panel(tmp_path):
    small = ["--n_kicks=4", "--beam_periods=16", "--beam_points_per_period=64"]
    assert main(["optical", "--hbar=0.35pi", *small, "--out", str(tmp_path / "opt")]) == 0
    assert main(["figs", "--hbar=0.5pi", "--engine=both", *small, "--out", str(tmp_path / "figs")]) == 0

    def data_rows(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    assert data_rows(tmp_path / "opt" / "orders.csv") == data_rows(tmp_path / "figs" / "fig2_b_optical.csv")
    assert len(data_rows(tmp_path / "opt" / "orders.csv")) > 4 * 2 * 32
    pgm = (tmp_path / "opt" / "ccd.pgm").read_bytes()
    assert pgm == (tmp_path / "figs" / "fig2_b_optical.pgm").read_bytes()


def test_fig2_csv_schema(tmp_path):
    cfg = cfg_with(engine="quantum", n_kicks=3)
    run_fig2(cfg, tmp_path)
    lines = [ln for ln in (tmp_path / "fig2_a.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0] == "kick,order,probability"
    kicks = {int(ln.split(",")[0]) for ln in lines[1:]}
    assert kicks == {1, 2, 3}
    probs = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(0.0 <= p <= 1.0 for p in probs)


# --- fig3 -------------------------------------------------------------------

def test_fig3_outputs_and_fits(tmp_path):
    cfg = cfg_with(engine="quantum")
    result = run_fig3(cfg, tmp_path)
    for tag in ("res", "offres"):
        assert (tmp_path / f"fig3_stats_{tag}.csv").exists()
        assert (tmp_path / f"fig3_dist22_{tag}.csv").exists()
    assert (tmp_path / "fig3_fits.csv").exists()
    p2_fit = result["res"]["p2_fit"]
    # frozen from the oracle run: ballistic resonant energy growth
    assert p2_fit.r_squared >= 0.98
    assert p2_fit.coefficients[2] > 0
    res_p2_final = result["res"]["stats"][-1].mean_p2
    off_p2_final = result["offres"]["stats"][-1].mean_p2
    assert res_p2_final > 5.0 * off_p2_final


def test_fig3_stats_csv_parses_back(tmp_path):
    cfg = cfg_with(engine="quantum", n_kicks=6)
    result = run_fig3(cfg, tmp_path)
    lines = [ln for ln in (tmp_path / "fig3_stats_res.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0] == "kick,mean_p,mean_p2,participation"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 6
    for row, stats in zip(rows, result["res"]["stats"]):
        assert int(row[0]) == stats.kick
        assert float(row[1]) == stats.mean_p
        assert float(row[2]) == stats.mean_p2


# --- fig4 -------------------------------------------------------------------

def test_fig4_zero_strength_scan_is_zero(tmp_path):
    cfg = cfg_with(K=0, scan_hbar_min="0.1pi", scan_hbar_max="0.5pi", scan_hbar_step="0.1pi",
                   scan_kicks_at="3,5")
    points = run_fig4(cfg, tmp_path)
    assert all(p.abs_mean_p < 1e-12 for p in points)


def test_fig4_symmetry_probe_pure_sine(tmp_path):
    cfg = cfg_with(alpha=0, scan_hbar_min="0.1pi", scan_hbar_max="1.0pi", scan_hbar_step="0.1pi",
                   scan_kicks_at="5,21")
    points = run_fig4(cfg, tmp_path)
    assert all(p.abs_mean_p < 1e-10 for p in points)


def test_fig4_resonant_peak_at_half_pi(tmp_path):
    cfg = cfg_with(engine="quantum")
    points = run_fig4(cfg, tmp_path)
    at21 = {round(p.hbar_eff / math.pi, 4): p for p in points if p.kicks == 21}
    at5 = {round(p.hbar_eff / math.pi, 4): p for p in points if p.kicks == 5}
    peak = at21[0.5]
    assert peak.is_local_max
    assert peak.abs_mean_p > at5[0.5].abs_mean_p
    assert peak.abs_mean_p > 0.3  # frozen from oracle: 0.405


def test_fig4_fixed_kick_phase_mode(tmp_path):
    cfg = cfg_with(scan_mode="both", scan_hbar_min="0.4pi", scan_hbar_max="0.6pi",
                   scan_hbar_step="0.1pi", scan_kicks_at="3")
    points = run_fig4(cfg, tmp_path)
    modes = {p.mode for p in points}
    assert modes == {"fixed-k", "fixed-kick-phase"}
    # at the anchor hbar (0.5pi) both modes evolve the same system
    fk = next(p for p in points if p.mode == "fixed-k" and abs(p.hbar_eff - 0.5 * math.pi) < 1e-12)
    fp = next(p for p in points if p.mode == "fixed-kick-phase" and abs(p.hbar_eff - 0.5 * math.pi) < 1e-12)
    assert fk.abs_mean_p == pytest.approx(fp.abs_mean_p, rel=1e-12)


@pytest.mark.parametrize("rows", [1, 3])
def test_fig4_csv_independent_of_chunking(tmp_path, monkeypatch, fft_calls, rows):
    import ratchet_lab.evolution as evolution

    # 2 modes x 11 hbar values = 22 rows: one batch, then chunks of 1 or 3 (7 x 3 + 1)
    cfg = cfg_with(scan_mode="both", scan_hbar_min="0.1pi", scan_hbar_max="1.1pi",
                   scan_hbar_step="0.1pi", scan_kicks_at="5,2")
    run_fig4(cfg, tmp_path / "batch")
    assert fft_calls["fft"] == 5
    monkeypatch.setattr(evolution, "SCAN_BATCH_CELLS", rows * cfg.grid().n)
    run_fig4(cfg, tmp_path / "chunked")
    assert fft_calls["fft"] == 5 + 5 * math.ceil(22 / rows)
    batch = (tmp_path / "batch" / "fig4_scan.csv").read_bytes()
    assert (tmp_path / "chunked" / "fig4_scan.csv").read_bytes() == batch


# --- engine comparison ---------------------------------------------------------

def test_compare_engines_report(tmp_path, monkeypatch):
    import ratchet_lab.experiments as experiments

    bounces = []

    def counted(*args, **kwargs):
        bounces.append(args)
        return bounce_image(*args, **kwargs)

    monkeypatch.setattr(experiments, "bounce_image", counted)
    cfg = cfg_with(beam_periods=256, beam_width=32 * 600e-6, n_kicks=22)
    report = compare_engines(cfg, tmp_path)
    assert len(bounces) == 1 + len(QUANTIZATION_SWEEP)  # continuous mirror, then one per level
    assert max(report["per_kick_linf"]) < 1e-2
    sweep = report["sweep_tv"]
    values = [sweep[n] for n in (2, 4, 8, 16, 32, 64)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    text = (tmp_path / "compare_engines.csv").read_text()
    assert "quantization_sweep,22,16," in text
    assert "quantum_vs_optical,1," in text
    rows = [ln.split(",")[0] for ln in text.splitlines()[3:]]
    assert rows == (["quantum_vs_optical"] * 22 + ["quantized_vs_continuous"] * 22
                    + ["quantization_sweep"] * len(QUANTIZATION_SWEEP))


def test_engines_identical_before_evolution():
    # pre-evolution: both engines start as a pure zero-order state
    from ratchet_lab.evolution import SpatialGrid, momentum_spectrum, plane_wave
    from ratchet_lab.observables import distribution_distance
    from ratchet_lab.optics import gaussian_beam, order_probabilities

    quantum = momentum_spectrum(plane_wave(SpatialGrid(1, 256)))
    beam = gaussian_beam(600e-6, 256, 128, 32 * 600e-6, 532e-9)
    orders, probs = order_probabilities(beam, 600e-6)
    tv = distribution_distance(quantum.orders, quantum.probabilities, orders, probs)
    assert tv < 1e-9


def test_engines_agree_kick_by_kick(tmp_path):
    cfg = cfg_with(beam_periods=256, beam_width=32 * 600e-6, n_kicks=8)
    quantum = quantum_kick_ladders(cfg, cfg.hbar, 8)
    optical = optical_kick_ladders(cfg, cfg.hbar, 8)
    for q, o in zip(quantum, optical):
        assert abs(mean_momentum(q) - mean_momentum(o)) < 5e-3
        assert abs(mean_square_momentum(q) - mean_square_momentum(o)) < 5e-2


# --- determinism ----------------------------------------------------------------

def test_figs_determinism(tmp_path):
    cfg = cfg_with(engine="quantum", n_kicks=5, scan_hbar_min="0.2pi", scan_hbar_max="1.0pi",
                   scan_hbar_step="0.2pi", scan_kicks_at="2,5")
    a, b = tmp_path / "a", tmp_path / "b"
    run_figs(cfg, a)
    run_figs(cfg, b)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
