import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratchet_lab.cli import main
from ratchet_lab.config import ConfigError, parse_config, serialize_config
from ratchet_lab.fileio import read_pgm
from ratchet_lab.model import load_mirror_profile


# --- parsing ---------------------------------------------------------------

def test_minimal_file_with_paper_defaults():
    cfg = parse_config("distance=0.169172\n")
    assert cfg.hbar == pytest.approx(0.5 * math.pi, rel=1e-4)
    assert not cfg.hbar_given
    assert cfg.alpha == 0.3
    assert cfg.K == 1.0
    assert cfg.wavelength == 532e-9
    assert cfg.period == 600e-6
    assert cfg.reflectivity == 0.95
    assert cfg.focal == 0.3


def test_exactly_one_of_hbar_distance():
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config("hbar=0.5pi\ndistance=0.169172\n")
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config("K=1\n")


def test_pi_literals():
    cfg = parse_config("hbar=0.5pi\nphi=pi\n")
    assert cfg.hbar == 0.5 * math.pi
    assert cfg.phi == math.pi
    cfg = parse_config("hbar=2pi\n")
    assert cfg.hbar == 2 * math.pi


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="hbarr"):
        parse_config("hbar=1\nhbarr=2\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nhbar=1.0\nK=2  \n")
    assert cfg.K == 2.0


def test_invalid_values_name_the_key():
    with pytest.raises(ConfigError, match="points_per_period"):
        parse_config("hbar=1\npoints_per_period=2\n")
    with pytest.raises(ConfigError, match="reflectivity"):
        parse_config("hbar=1\nreflectivity=1.5\n")
    with pytest.raises(ConfigError, match="engine"):
        parse_config("hbar=1\nengine=warp\n")
    with pytest.raises(ConfigError, match="n_levels"):
        parse_config("hbar=1\nn_levels=1\n")
    with pytest.raises(ConfigError, match="beta"):
        parse_config("hbar=1\nbeta=1.5\n")
    with pytest.raises(ConfigError, match="scan_hbar_step: must be finite"):
        parse_config("hbar=1\nscan_hbar_step=nan\n")
    with pytest.raises(ConfigError, match="scan_hbar_step: must be finite"):
        parse_config("hbar=1\nscan_hbar_step=inf\n")
    for kicks in ("0", "5,0", ""):
        with pytest.raises(ConfigError, match="scan_kicks_at"):
            parse_config(f"hbar=1\nscan_kicks_at={kicks}\n")
    with pytest.raises(ConfigError, match="^scan_hbar_min: need 0 < scan_hbar_min <= scan_hbar_max"):
        parse_config("hbar=1\nscan_hbar_min=1.0\nscan_hbar_max=0.5\n")


@pytest.mark.parametrize("key", ["K", "alpha", "phi", "hbar", "lambda", "period", "focal",
                                 "reflectivity", "beam_width", "beta", "gamma",
                                 "scan_hbar_min", "scan_hbar_max", "scan_hbar_step"])
def test_non_finite_values_rejected(key):
    base = "" if key == "hbar" else "hbar=1\n"
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
            parse_config(f"{base}{key}={value}\n")


def test_oversized_scan_rejected():
    with pytest.raises(ConfigError, match="^scan_hbar_step: must give at most"):
        parse_config("hbar=1\nscan_hbar_step=1e-9pi\n")
    with pytest.raises(ConfigError, match="^scan_hbar_step: must give at most"):
        parse_config("hbar=1\nscan_hbar_step=5e-324\n")
    cfg = parse_config("hbar=1\nscan_hbar_min=1\nscan_hbar_max=10000\nscan_hbar_step=1\n")
    assert cfg.scan_hbar_max == 10000.0


def test_overrides_take_precedence():
    cfg = parse_config("hbar=1.0\nK=1\n", {"K": "2.5"})
    assert cfg.K == 2.5


def test_derived_distance_round_trips():
    cfg = parse_config("hbar=0.5pi\n")
    from ratchet_lab.optics import hbar_from_geometry

    assert hbar_from_geometry(cfg.geometry()).hbar_eff == pytest.approx(cfg.hbar, rel=1e-15)


def test_manifest_round_trip_targeted():
    for text in ("hbar=0.5pi\nK=2\nalpha=0.1\nn_levels=16\nscan_kicks_at=7,3\n",
                 "distance=0.2\nengine=optical\nnormalization=loss\nbeam_periods=32\n"):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg


GOLDEN_MANIFEST = """\
engine=both
K=1.0
alpha=0.3
phi=0.0
hbar=1.5707963267948966
lambda=5.32e-07
period=0.0006
focal=0.3
reflectivity=0.95
periods=1
points_per_period=256
beam_periods=64
beam_points_per_period=128
beam_width=0.003
beta=0.0
n_kicks=22
n_levels=continuous
normalization=per_row
gamma=1.0
max_order=32
scan_hbar_min=0.06283185307179587
scan_hbar_max=6.283185307179586
scan_hbar_step=0.06283185307179587
scan_kicks_at=21,5
scan_mode=fixed-k
# derived distance=0.16917293233082703
# derived hbar_over_pi=0.5
"""


def test_manifest_golden_text():
    assert serialize_config(parse_config("hbar=0.5pi\n")) == GOLDEN_MANIFEST


def test_readme_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys = re.findall(r"^(\w+)=", serialize_config(parse_config("hbar=0.5pi\n")), re.M)
    assert len(keys) == 25
    missing = [key for key in keys + ["distance"] if f"`{key}`" not in readme]
    assert not missing


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(min_value=0.0, max_value=10.0),
    alpha=st.floats(min_value=-1.0, max_value=1.0),
    hbar=st.floats(min_value=1e-3, max_value=4 * math.pi),
    n_kicks=st.integers(min_value=1, max_value=50),
    use_distance=st.booleans(),
)
def test_manifest_round_trip_hypothesis(k, alpha, hbar, n_kicks, use_distance):
    overrides = {"K": repr(k), "alpha": repr(alpha), "n_kicks": str(n_kicks)}
    if use_distance:
        overrides["distance"] = repr(hbar)  # any positive length works
    else:
        overrides["hbar"] = repr(hbar)
    cfg = parse_config("", overrides)
    assert parse_config(serialize_config(cfg)) == cfg


# --- CLI -------------------------------------------------------------------

def test_cli_figs_end_to_end(tmp_path):
    out = tmp_path / "figs"
    code = main(["figs", "--hbar=0.5pi", "--engine=quantum", "--n_kicks=5",
                 "--scan_hbar_min=0.2pi", "--scan_hbar_max=1.0pi", "--scan_hbar_step=0.2pi",
                 "--scan_kicks_at=2,5", "--out", str(out)])
    assert code == 0
    expected = {"fig2_a.csv", "fig2_a.pgm", "fig2_b.csv", "fig2_b.pgm",
                "fig3_stats_res.csv", "fig3_stats_offres.csv", "fig3_fits.csv",
                "fig3_dist22_res.csv", "fig3_dist22_offres.csv",
                "fig4_scan.csv", "run_manifest"}
    assert expected <= {p.name for p in out.iterdir()}
    raster = read_pgm(out / "fig2_a.pgm")
    assert raster.dtype == np.uint8


def test_cli_bad_flag_exits_2(tmp_path, capsys):
    assert main(["figs", "--bogus-flag", "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_conflicting_hbar_distance_exits_2(tmp_path, capsys):
    code = main(["evolve", "--hbar=0.5pi", "--distance=0.169172", "--out", str(tmp_path)])
    assert code == 2
    assert "exactly one of" in capsys.readouterr().err


def test_cli_absurd_grid_rejected_at_parse(tmp_path):
    assert main(["evolve", "--hbar=0.5pi", "--points_per_period=2", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "spectra.ndjson").exists()


# At 1e12 a step of 6e-5 is below half an ulp, so every grid point rounds to the first.
COLLAPSED = ["--scan_hbar_min=1e12", "--scan_hbar_max=1000000000000.4"]


@pytest.mark.parametrize("step, extra", [("nan", []), ("1e-9pi", []), ("6e-5", COLLAPSED)],
                         ids=["nan", "1e-9pi", "collapsed"])
def test_cli_bad_scan_step_exits_2_before_output(tmp_path, monkeypatch, capsys, step, extra):
    import ratchet_lab.experiments as experiments

    def no_scan(*args, **kwargs):
        raise AssertionError("scan started for a rejected config")

    monkeypatch.setattr(experiments, "scan_ladders", no_scan)
    out = tmp_path / "scan"
    assert main(["scan", "--hbar=0.5pi", *extra, f"--scan_hbar_step={step}", "--out", str(out)]) == 2
    assert "scan_hbar_step" in capsys.readouterr().err
    assert not (out / "run_manifest").exists()


def test_scan_grid_separable_at_parse():
    with pytest.raises(ConfigError, match="^scan_hbar_step: .* too small to separate"):
        parse_config("hbar=1\nscan_hbar_min=1e12\nscan_hbar_max=1000000000000.4\nscan_hbar_step=6e-5\n")
    cfg = parse_config("hbar=1\nscan_hbar_min=1e12\nscan_hbar_max=1000000000000.4\nscan_hbar_step=2e-4\n")
    values = cfg.scan_hbar_values()
    assert all(b > a for a, b in zip(values, values[1:]))


def test_cli_missing_subcommand_exits_2():
    assert main([]) == 2


def test_cli_evolve_ndjson_stream(tmp_path):
    out = tmp_path / "run"
    code = main(["evolve", "--hbar=0.5pi", "--n_kicks=3", "--out", str(out)])
    assert code == 0
    lines = (out / "spectra.ndjson").read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"kick", "beta", "hbar", "orders", "prob"}
    assert rec["kick"] == 1
    assert abs(sum(rec["prob"]) - 1.0) < 1e-9
    assert (out / "stats.csv").exists()
    assert (out / "run_manifest").exists()


def test_cli_config_file_plus_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("hbar=0.5pi\nn_kicks=2\n")
    out = tmp_path / "out"
    code = main(["evolve", "--config", str(config), "--n_kicks=4", "--out", str(out)])
    assert code == 0
    assert len((out / "spectra.ndjson").read_text().splitlines()) == 4


def test_cli_mirror_subcommand_round_trip(tmp_path):
    out = tmp_path / "mirror"
    code = main(["mirror", "--hbar=0.5pi", "--n_levels=16", "--out", str(out)])
    assert code == 0
    profile = load_mirror_profile(out / "mirror.txt")
    assert profile.n_levels == 16
    assert len(np.unique(profile.depth_samples)) <= 16


def test_cli_optical_subcommand(tmp_path):
    out = tmp_path / "opt"
    code = main(["optical", "--hbar=0.5pi", "--n_kicks=3", "--beam_periods=16",
                 "--beam_points_per_period=64", "--out", str(out)])
    assert code == 0
    raster = read_pgm(out / "ccd.pgm")
    assert raster.shape[0] == 3
    lines = [ln for ln in (out / "orders.csv").read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "kick,order,probability"


def test_cli_scan_and_compare(tmp_path):
    out = tmp_path / "scan"
    code = main(["scan", "--hbar=0.5pi", "--scan_hbar_min=0.3pi", "--scan_hbar_max=0.7pi",
                 "--scan_hbar_step=0.2pi", "--scan_kicks_at=2", "--out", str(out)])
    assert code == 0
    assert (out / "fig4_scan.csv").exists()
    out2 = tmp_path / "cmp"
    code = main(["compare", "--hbar=0.5pi", "--n_kicks=4", "--beam_periods=32",
                 "--beam_width=0.0048", "--out", str(out2)])
    assert code == 0
    assert (out2 / "compare_engines.csv").exists()


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import ratchet_lab.cli as cli
    from ratchet_lab.evolution import NumericalFailure

    def boom(cfg, out):
        raise NumericalFailure("synthetic drift")

    monkeypatch.setattr(cli, "run_fig4", boom)
    assert cli.main(["scan", "--hbar=0.5pi", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


# K/hbar_eff overflows the kick phase to inf, so the state turns NaN at the first kick
NAN_OVERRIDES = ["--hbar=0.01", "--K=1e307"]


def test_cli_nan_norm_exits_3_before_output(tmp_path, capsys):
    with pytest.warns(RuntimeWarning):
        code = main(["evolve", *NAN_OVERRIDES, "--n_kicks=2", "--out", str(tmp_path)])
    assert code == 3
    assert "norm drifted by nan at kick 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_manifest"]


def test_cli_scan_nan_norm_names_the_row(tmp_path, capsys):
    with pytest.warns(RuntimeWarning):
        code = main(["scan", *NAN_OVERRIDES, "--out", str(tmp_path)])
    assert code == 3
    first = parse_config("", {"hbar": "0.01", "K": "1e307"}).scan_hbar_values()[0]
    assert f"scan run hbar_eff={first!r} K=1e+307: norm drifted by nan at kick 1" in capsys.readouterr().err
    assert not (tmp_path / "fig4_scan.csv").exists()


def test_cli_fixed_kick_phase_flag(tmp_path):
    out = tmp_path / "fkp"
    code = main(["scan", "--hbar=0.5pi", "--fixed-kick-phase", "--scan_hbar_min=0.4pi",
                 "--scan_hbar_max=0.6pi", "--scan_hbar_step=0.2pi", "--scan_kicks_at=2",
                 "--out", str(out)])
    assert code == 0
    text = (out / "fig4_scan.csv").read_text()
    assert "fixed-kick-phase" in text
