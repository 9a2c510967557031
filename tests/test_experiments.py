import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratchet_lab.config import COMPARE_MIRRORS, parse_config
from ratchet_lab.experiments import (
    QUANTIZATION_SWEEP,
    compare_engines,
    crop_image,
    optical_kick_ladders,
    quantum_kick_ladders,
    run_fig2,
    run_fig3,
    run_fig4,
    run_figs,
    write_stats,
)
from ratchet_lab.cli import main
from ratchet_lab.evolution import scan_probabilities
from ratchet_lab.fileio import read_pgm
from ratchet_lab.optics import FarFieldImage, bounce_ladders, bounce_simulation, render_ccd
from ratchet_lab.observables import _kick_stats


def cfg_with(**overrides):
    defaults = {"hbar": "0.5pi"}
    defaults.update({k: str(v) for k, v in overrides.items()})
    return parse_config("", defaults)


# --- fig2 -------------------------------------------------------------------

def test_fig2_zero_strength_rows_identical(tmp_path):
    cfg = cfg_with(K=0, engine="quantum")
    result = run_fig2(cfg, tmp_path)
    for panel in result.values():
        probs = panel["quantum"].probabilities
        assert probs.shape == (22, 256)
        assert np.array_equal(probs, np.broadcast_to(probs[0], probs.shape))
    raster = read_pgm(tmp_path / "fig2_a.pgm")
    assert raster.shape == (22, 65)
    assert np.all(raster == raster[0])


def test_fig2_resonant_drift_direction_and_offres_bound(tmp_path):
    # thresholds frozen from the cross-validated trajectories: the resonant
    # centroid drifts to +0.39 ladder orders by kick 22 with transient
    # oscillation; the off-resonant centroid oscillates about zero
    cfg = cfg_with(engine="quantum")
    result = run_fig2(cfg, tmp_path)
    res = [s.mean_p for s in _kick_stats(result["a"]["quantum"])]
    off = [s.mean_p for s in _kick_stats(result["b"]["quantum"])]
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
        assert len(result[label]["optical"].probabilities) == 4
    raster = read_pgm(tmp_path / "fig2_a_optical.pgm")
    assert raster.shape[0] == 4


def old_quantum_panel_rows(ladders, max_order):
    """Reference: the quantum CCD rows as the orders |n| <= max_order of each row of the stack."""
    return np.stack([row[np.abs(ladders.orders) <= max_order] for row in ladders.probabilities])


@pytest.mark.parametrize("periods", [1, 2, 3])
def test_quantum_panel_crop_matches_order_cut(tmp_path, periods):
    cfg = cfg_with(engine="quantum", periods=periods, points_per_period=64, n_kicks=5, gamma=0.5)
    ladders = quantum_kick_ladders(cfg, 0.5 * math.pi, cfg.n_kicks)
    image = FarFieldImage(rows=ladders.probabilities, window_periods=1, ladders=ladders)
    for max_order in (0, 5, 40, 200):  # 40 and 200 reach past the edge of a 64-point grid
        cropped = crop_image(image, max_order).rows
        assert cropped.tobytes() == old_quantum_panel_rows(ladders, max_order).tobytes()
    run_fig2(cfg, tmp_path)
    expected = render_ccd(FarFieldImage(rows=old_quantum_panel_rows(ladders, cfg.max_order),
                                        window_periods=1, ladders=ladders), cfg.gamma)
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


def test_figs_optical_engine_writes_the_optical_panels_as_fig2(tmp_path):
    # with the beam engine alone, fig 2's panels take the plain fig2_{a,b} names
    small = ["--hbar=0.5pi", "--n_kicks=4", "--beam_periods=16", "--beam_points_per_period=64",
             "--scan_hbar_min=0.2pi", "--scan_hbar_max=1.0pi", "--scan_hbar_step=0.2pi", "--scan_kicks_at=2,4"]
    assert main(["figs", "--engine=optical", *small, "--out", str(tmp_path / "optical")]) == 0
    assert main(["figs", "--engine=both", *small, "--out", str(tmp_path / "both")]) == 0
    assert not list((tmp_path / "optical").glob("*_optical.*"))

    def data_rows(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    for label in ("a", "b"):
        optical, both = tmp_path / "optical" / f"fig2_{label}", tmp_path / "both" / f"fig2_{label}_optical"
        assert data_rows(optical.with_suffix(".csv")) == data_rows(both.with_suffix(".csv"))
        assert len(data_rows(optical.with_suffix(".csv"))) > 4 * 2 * 32
        assert optical.with_suffix(".pgm").read_bytes() == both.with_suffix(".pgm").read_bytes()


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


def test_figs_zero_strength_fits_keep_their_degree(tmp_path):
    # with K=0 every moment is exactly 0; each fit still reports degree + 1 coefficients
    assert main(["figs", "--hbar=0.5pi", "--K=0", "--engine=quantum", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fig3_fits.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [(row[0], row[1]) for row in rows] == [
        ("res_mean_p_linear", "1"), ("res_mean_p2_quadratic", "2"),
        ("offres_mean_p_linear", "1"), ("offres_mean_p2_quadratic", "2")]
    assert all(row[2:5] == ["0.0", "0.0", "0.0"] for row in rows)


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
    # each scan takes one forward transform over the period axis that splits the plane wave
    run_fig4(cfg, tmp_path / "batch")
    assert fft_calls["fft"] == 1 + 5
    monkeypatch.setattr(evolution, "BATCH_CELLS", rows * cfg.grid().n)
    run_fig4(cfg, tmp_path / "chunked")
    assert fft_calls["fft"] == 1 + 5 + 1 + 5 * math.ceil(22 / rows)
    batch = (tmp_path / "batch" / "fig4_scan.csv").read_bytes()
    assert (tmp_path / "chunked" / "fig4_scan.csv").read_bytes() == batch


@settings(max_examples=12, deadline=None)
@given(K=st.floats(min_value=0.0, max_value=1.5), alpha=st.floats(min_value=0.0, max_value=0.6),
       phi=st.floats(min_value=-math.pi, max_value=math.pi),
       hbars=st.lists(st.floats(min_value=0.3, max_value=2.0), min_size=2, max_size=2),
       beam_periods=st.sampled_from([16, 64]), apart=st.booleans())
def test_fig2_batches_equal_their_solo_runs_bitwise(K, alpha, phi, hbars, beam_periods, apart):
    # fig 2 bounces its two panels, each at its own distance and mirror, as one batch, and runs
    # its two quantum panels as another; `apart` puts each run in a chunk of its own
    from unittest import mock

    from ratchet_lab.experiments import _bounce_images, _quantum_stacks, _ratchet_mirrors, _standard_beam

    cfg = cfg_with(K=K, alpha=alpha, phi=phi, n_kicks=5, beam_periods=beam_periods, beam_points_per_period=64)
    runs = [(geom, mirror) for geom, (mirror,) in (_ratchet_mirrors(cfg, h, [cfg.n_levels]) for h in hbars)]
    with mock.patch("ratchet_lab.evolution.BATCH_CELLS", 1 if apart else 1 << 19):
        images = _bounce_images(runs, _standard_beam(cfg), cfg.n_kicks)
        quantum = _quantum_stacks(cfg, hbars, cfg.n_kicks)
    for (geom, mirror), image, stack, h in zip(runs, images, quantum, hbars):
        solo = bounce_simulation(geom, mirror, _standard_beam(cfg), cfg.n_kicks)
        assert image.rows.tobytes() == solo.rows.tobytes()
        assert image.ladders.probabilities.tobytes() == solo.ladders.probabilities.tobytes()
        assert image.ladders.orders.tobytes() == solo.ladders.orders.tobytes()
        assert (image.window_periods, image.ladders.hbar) == (solo.window_periods, solo.ladders.hbar)
        alone = quantum_kick_ladders(cfg, h, cfg.n_kicks)
        assert stack.probabilities.tobytes() == alone.probabilities.tobytes()
        assert stack.orders.tobytes() == alone.orders.tobytes()
        assert (stack.hbar, stack.beta) == (alone.hbar, alone.beta)


def test_fig2_runs_each_engine_as_one_batch(tmp_path, monkeypatch):
    import ratchet_lab.evolution as evolution

    split_step = evolution._split_step
    batches = []

    def recorded(samples, periods, runs, *args, **kwargs):
        batches.append(len(runs))
        return split_step(samples, periods, runs, *args, **kwargs)

    monkeypatch.setattr(evolution, "_split_step", recorded)
    run_fig2(cfg_with(engine="both", n_kicks=3), tmp_path)
    assert batches == [2, 2]  # the quantum pair, then the bounce pair


# --- figs pipeline ---------------------------------------------------------------

def test_figs_shares_the_quantum_runs_of_fig2_and_fig3(tmp_path, monkeypatch):
    import ratchet_lab.experiments as experiments

    batches = []

    def counted(grid, beta, runs, kicks_at):
        batches.append([hbar.hbar_eff for _pot, hbar in runs])
        return scan_probabilities(grid, beta, runs, kicks_at)

    monkeypatch.setattr(experiments, "scan_probabilities", counted)
    cfg = cfg_with()
    run_figs(cfg, tmp_path)
    # fig 2's and fig 3's runs at 0.5pi and 0.35pi are one batch; the fig 4 scan runs as another
    assert batches == [[0.5 * math.pi, 0.35 * math.pi], list(cfg.scan_hbar_values())]


@pytest.mark.parametrize("engine", ["both", "optical"])
def test_figs_fig3_artifacts_equal_run_fig3_alone(tmp_path, engine):
    cfg = cfg_with(engine=engine)
    run_figs(cfg, tmp_path / "figs")
    run_fig3(cfg, tmp_path / "fig3")
    names = sorted(path.name for path in (tmp_path / "fig3").iterdir())
    assert names == ["fig3_dist22_offres.csv", "fig3_dist22_res.csv", "fig3_fits.csv",
                     "fig3_stats_offres.csv", "fig3_stats_res.csv"]
    for name in names:
        assert (tmp_path / "figs" / name).read_bytes() == (tmp_path / "fig3" / name).read_bytes(), name


# --- engine comparison ---------------------------------------------------------

def test_compare_engines_report(tmp_path, monkeypatch, fft_calls):
    import ratchet_lab.experiments as experiments

    batches = []

    def counted(geom, mirrors, *args, **kwargs):
        batches.append([mirror.n_levels for mirror in mirrors])
        return bounce_ladders(geom, mirrors, *args, **kwargs)

    monkeypatch.setattr(experiments, "bounce_ladders", counted)
    cfg = cfg_with(beam_periods=256, beam_width=32 * 600e-6, n_kicks=22)
    report = compare_engines(cfg, tmp_path)
    # one batch: the continuous mirror, then one row per level, as the work budget counts it
    assert batches == [["continuous", *QUANTIZATION_SWEEP]]
    assert len(batches[0]) == COMPARE_MIRRORS
    # 22 kicks of the quantum run and 22 bounces of the batch (22 + 21 each: no flight after
    # the last tap), and per run one forward transform that splits the quantum state or the
    # beam into its quasimomentum classes
    assert (fft_calls["fft"], fft_calls["ifft"]) == (46, 42)
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


def test_compare_engines_report_equals_the_per_pair_distances(tmp_path):
    # the three stacked comparisons give, value for value, the dict the per-pair calls give
    from ratchet_lab.experiments import _bounce_setup
    from ratchet_lab.observables import distribution_distance, distribution_linf

    cfg = cfg_with(n_kicks=6)
    report = compare_engines(cfg, tmp_path)
    quantum = quantum_kick_ladders(cfg, cfg.hbar, 6)
    geom, mirrors, beam = _bounce_setup(cfg, cfg.hbar, ("continuous", *QUANTIZATION_SWEEP))
    optical, *quantized = bounce_ladders(geom, mirrors, beam, 6)
    pairs = list(zip(quantum.probabilities, optical.probabilities))
    sixteen = quantized[QUANTIZATION_SWEEP.index(16)]
    want = {
        "per_kick_linf": [distribution_linf(quantum.orders, q, optical.orders, o) for q, o in pairs],
        "per_kick_tv": [distribution_distance(quantum.orders, q, optical.orders, o) for q, o in pairs],
        "sweep_tv": {n_levels: distribution_distance(quant.orders, quant.probabilities[-1],
                                                     optical.orders, optical.probabilities[-1])
                     for n_levels, quant in zip(QUANTIZATION_SWEEP, quantized)},
    }
    assert report == want
    assert [type(v) for v in report["per_kick_linf"] + report["per_kick_tv"]] == [float] * 12
    text = (tmp_path / "compare_engines.csv").read_text()
    for k, (q, o) in enumerate(zip(sixteen.probabilities, optical.probabilities), start=1):
        tv = distribution_distance(sixteen.orders, q, optical.orders, o)
        assert f"quantized_vs_continuous,{k},16,,{tv!r}\n" in text


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
    quantum = _kick_stats(quantum_kick_ladders(cfg, cfg.hbar, 8))
    optical = _kick_stats(optical_kick_ladders(cfg, cfg.hbar, 8))
    assert len(quantum) == len(optical) == 8
    for q, o in zip(quantum, optical):
        assert abs(q.mean_p - o.mean_p) < 5e-3
        assert abs(q.mean_p2 - o.mean_p2) < 5e-2


# --- probability stacks -----------------------------------------------------------

def test_compare_builds_one_ladder_per_run(tmp_path, monkeypatch):
    # every engine run hands out one (kicks, orders) stack, checked once: the quantum run and
    # the 7 mirrors of the bounce batch, not one ladder per run and kick
    from ratchet_lab.evolution import MomentumLadder

    built = []
    check = MomentumLadder.__post_init__

    def counted(ladder):
        check(ladder)
        built.append(ladder.probabilities.shape)

    monkeypatch.setattr(MomentumLadder, "__post_init__", counted)
    compare_engines(cfg_with(), tmp_path)
    assert built == [(22, 256)] + [(22, 129)] * COMPARE_MIRRORS


def test_quantum_kick_ladders_refuses_a_kick_count_below_one():
    cfg = cfg_with()
    for n_kicks in (0, -1):
        with pytest.raises(ValueError, match=f"^n_kicks must be >= 1, got {n_kicks}$"):
            quantum_kick_ladders(cfg, cfg.hbar, n_kicks)


def corrupt_taps(monkeypatch, value):
    """Wrap the tap of every split-step run so that each row's first entry becomes `value`
    once scaled, and its second entry takes the difference, leaving each row's total, and so
    the drift guard, unchanged."""
    import inspect

    import ratchet_lab.evolution as evolution

    split_step = evolution._split_step
    signature = inspect.signature(split_step)

    def corrupted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tap = bound.arguments["tap"]

        def bad_tap(squares, rows, classes):
            totals = tap(squares, rows, classes)
            rows[:, 1] += rows[:, 0] - value * totals
            rows[:, 0] = value * totals
            return totals

        bound.arguments["tap"] = bad_tap
        return split_step(*bound.args, **bound.kwargs)

    monkeypatch.setattr(evolution, "_split_step", corrupted)


STACK_RUNS = {
    "quantum_kick_ladders": lambda cfg: quantum_kick_ladders(cfg, cfg.hbar, 3),
    "bounce_ladders": lambda cfg: bounce_ladders(*bounce_setup(cfg, ["continuous", 16]), 3),
    "bounce_simulation": lambda cfg: bounce_simulation(*bounce_setup(cfg, ["continuous"]), 3),
}


def bounce_setup(cfg, levels):
    from ratchet_lab.experiments import _bounce_setup

    geom, mirrors, beam = _bounce_setup(cfg, cfg.hbar, levels)
    return geom, mirrors if len(mirrors) > 1 else mirrors[0], beam


@pytest.mark.parametrize("value", [-1e-3, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("run", sorted(STACK_RUNS))
def test_a_tapped_row_that_is_negative_or_nan_raises_where_the_stack_is_built(monkeypatch, run, value):
    cfg = cfg_with(n_kicks=3, beam_periods=16, beam_points_per_period=64)
    STACK_RUNS[run](cfg)  # the runs pass unpatched
    corrupt_taps(monkeypatch, value)
    with pytest.raises(ValueError, match="^probabilities must be non-negative$"):
        STACK_RUNS[run](cfg)


@pytest.mark.parametrize("value", [-1e-3, math.nan], ids=["negative", "nan"])
def test_a_tapped_scan_row_that_is_negative_or_nan_raises_from_run_fig4(tmp_path, monkeypatch, value):
    # the scan builds no ladder, so its statistics check each tapped block themselves
    cfg = cfg_with(scan_hbar_min="0.2pi", scan_hbar_max="1.0pi", scan_hbar_step="0.2pi", scan_kicks_at="2,5")
    run_fig4(cfg, tmp_path / "clean")  # the scan passes unpatched
    corrupt_taps(monkeypatch, value)
    with pytest.raises(ValueError, match="^probabilities must be non-negative$"):
        run_fig4(cfg, tmp_path / "corrupt")
    assert not (tmp_path / "corrupt" / "fig4_scan.csv").exists()


def assert_rows_are_the_single_row_stats_bitwise(stats, stack):
    from dataclasses import replace

    from ratchet_lab.observables import stats_from_ladder

    assert len(stats) == len(stack.probabilities)
    for k, (got, row) in enumerate(zip(stats, stack.probabilities), start=1):
        want = stats_from_ladder(k, replace(stack, probabilities=row))
        assert got.kick == want.kick == k
        for name in ("mean_p", "mean_p2", "participation"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), (k, name)


@settings(max_examples=40, deadline=None)
@given(hbar_over_pi=st.floats(min_value=0.05, max_value=2.0),
       K=st.floats(min_value=0.0, max_value=3.0),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       beta=st.floats(min_value=0.0, max_value=0.99),
       periods=st.integers(min_value=1, max_value=3),
       points_per_period=st.sampled_from([32, 34, 66, 256, 2048]),  # 2048: several row chunks
       n_kicks=st.integers(min_value=1, max_value=40))
def test_write_stats_rows_are_the_single_row_stats_bitwise(hbar_over_pi, K, alpha, beta, periods,
                                                           points_per_period, n_kicks):
    import tempfile
    from pathlib import Path

    cfg = cfg_with(K=repr(K), alpha=repr(alpha), beta=repr(beta), periods=periods,
                   points_per_period=points_per_period)
    stack = quantum_kick_ladders(cfg, hbar_over_pi * math.pi, n_kicks)
    with tempfile.TemporaryDirectory() as tmp:
        stats = write_stats(Path(tmp) / "stats.csv", stack, [])
    assert_rows_are_the_single_row_stats_bitwise(stats, stack)


def test_long_run_stats_rows_are_the_single_row_stats_bitwise(tmp_path):
    cfg = cfg_with(hbar="0.8123pi")
    stack = quantum_kick_ladders(cfg, cfg.hbar, 2000)
    assert_rows_are_the_single_row_stats_bitwise(write_stats(tmp_path / "stats.csv", stack, []), stack)


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
