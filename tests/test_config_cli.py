import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratchet_lab.cli import SUBCOMMANDS, main
from ratchet_lab.config import _KEYS, ConfigError, parse_config, serialize_config
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
    # a bare sign in front of pi stands for +-1
    assert parse_config("hbar=1\nphi=-pi\n").phi == -math.pi
    assert parse_config("hbar=1\nphi=+pi\n").phi == math.pi
    assert parse_config("hbar=+pi\n").hbar == math.pi
    with pytest.raises(ConfigError, match="^hbar: must be positive"):
        parse_config("hbar=-pi\n")


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="hbarr"):
        parse_config("hbar=1\nhbarr=2\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nhbar=1.0\nK=2  \n")
    assert cfg.K == 2.0


def test_invalid_values_name_the_key():
    with pytest.raises(ConfigError, match="points_per_period"):
        parse_config("hbar=1\npoints_per_period=2\n")
    with pytest.raises(ConfigError, match="^K: must be >= 0"):
        parse_config("hbar=1\nK=-1\n")
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


@pytest.mark.parametrize("key", ["K", "alpha", "phi", "hbar", "lambda", "period",
                                 "beam_width", "beta", "gamma",
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
                 "distance=0.2\nengine=optical\ngamma=0.5\nbeam_periods=32\n"):
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
periods=1
points_per_period=256
beam_periods=64
beam_points_per_period=128
beam_width=0.003
beta=0.0
n_kicks=22
n_levels=continuous
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
    assert len(keys) == 22
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


# Overrides of a tiny `figs` and `mirror` run; MOVED gives each key another valid
# value, set one key at a time (`distance` in place of `hbar`).
TINY_RUN = {"hbar": "0.5pi", "n_kicks": "4", "points_per_period": "64", "beam_periods": "8",
            "beam_points_per_period": "64", "scan_hbar_min": "0.4pi", "scan_hbar_max": "0.6pi",
            "scan_hbar_step": "0.1pi"}
MOVED = {"engine": "quantum", "K": "1.5", "alpha": "0.5", "phi": "0.3", "hbar": "0.35pi",
         "distance": "0.1", "lambda": "600e-9", "period": "500e-6", "periods": "2",
         "points_per_period": "128", "beam_periods": "16", "beam_points_per_period": "128",
         "beam_width": "1e-3", "beta": "0.25", "n_kicks": "5", "n_levels": "16", "gamma": "0.5",
         "max_order": "8", "scan_hbar_min": "0.3pi", "scan_hbar_max": "0.7pi",
         "scan_hbar_step": "0.05pi", "scan_kicks_at": "3", "scan_mode": "fixed-kick-phase"}


def _artifacts(out: Path, overrides: dict[str, str]) -> dict[str, object]:
    """Every artifact of a `figs` and a `mirror` run but run_manifest: a PGM's bytes, or
    a text file's rows without its `#` lines, each row a list of fields."""
    artifacts: dict[str, object] = {}
    for command in ("figs", "mirror"):
        flags = [f"--{key}={value}" for key, value in overrides.items()]
        assert main([command, *flags, "--out", str(out / command)]) == 0
        for path in sorted((out / command).iterdir()):
            if path.name == "run_manifest":
                continue
            if path.suffix == ".pgm":
                artifacts[f"{command}/{path.name}"] = path.read_bytes()
            else:
                lines = path.read_text(encoding="utf-8").splitlines()
                artifacts[f"{command}/{path.name}"] = [ln.split(",") for ln in lines
                                                       if not ln.startswith("#")]
    return artifacts


def _field_moved(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a != b
    return abs(x - y) > 1e-12 * max(abs(x), abs(y))


def _artifacts_moved(base: dict[str, object], other: dict[str, object]) -> bool:
    """True if a file or row appears or goes, a PGM byte differs, or a number moves by
    more than 1e-12 relative."""
    if base.keys() != other.keys():
        return True
    for name, rows in base.items():
        other_rows = other[name]
        if isinstance(rows, bytes) or len(rows) != len(other_rows):
            if rows != other_rows:
                return True
        elif any(len(row) != len(other_row) or any(map(_field_moved, row, other_row))
                 for row, other_row in zip(rows, other_rows)):
            return True
    return False


def test_every_config_key_reaches_an_artifact(tmp_path):
    keys = re.findall(r"^(\w+)=", serialize_config(parse_config("hbar=0.5pi\n")), re.M)
    assert set(MOVED) == {*keys, "distance"}
    base = _artifacts(tmp_path / "base", TINY_RUN)
    unread = []
    for key, value in MOVED.items():
        overrides = {**TINY_RUN, key: value}
        if key == "distance":
            del overrides["hbar"]
        assert parse_config("", overrides) != parse_config("", TINY_RUN), key
        if not _artifacts_moved(base, _artifacts(tmp_path / key, overrides)):
            unread.append(key)
    assert not unread, f"keys that move no artifact: {unread}"


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

    monkeypatch.setattr(experiments, "scan_probabilities", no_scan)
    out = tmp_path / "scan"
    assert main(["scan", "--hbar=0.5pi", *extra, f"--scan_hbar_step={step}", "--out", str(out)]) == 2
    assert "scan_hbar_step" in capsys.readouterr().err
    assert not (out / "run_manifest").exists()


@pytest.mark.parametrize("n_kicks", [1, 3])
def test_cli_figs_too_few_kicks_exits_2_before_output(tmp_path, monkeypatch, capsys, n_kicks):
    import ratchet_lab.experiments as experiments
    from ratchet_lab.experiments import run_fig3

    def no_run(*args, **kwargs):
        raise AssertionError("evolve started for a rejected config")

    monkeypatch.setattr(experiments, "evolve", no_run)
    out = tmp_path / "figs"
    assert main(["figs", "--hbar=0.5pi", f"--n_kicks={n_kicks}", "--out", str(out)]) == 2
    assert "n_kicks: fig 3's fits need n_kicks >= 4" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest"]
    with pytest.raises(ConfigError, match="^n_kicks: "):
        run_fig3(parse_config("", {"hbar": "0.5pi", "n_kicks": str(n_kicks)}), tmp_path / "fig3")
    assert not (tmp_path / "fig3").exists()
    monkeypatch.undo()
    assert main(["evolve", "--hbar=0.5pi", f"--n_kicks={n_kicks}", "--out", str(tmp_path / "evolve")]) == 0


# ROADMAP item 5's absurd requests, each as the key it names and the flags that set it
OVER_BUDGET = {"n_kicks": ["--n_kicks=1000000000"], "beam_periods": ["--beam_periods=10000000"],
               "points_per_period": ["--periods=4096", "--points_per_period=1048576"]}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("key", sorted(OVER_BUDGET))
def test_cli_work_over_budget_exits_2_before_output(tmp_path, monkeypatch, capsys, key, command):
    import ratchet_lab.experiments as experiments

    def no_run(*args, **kwargs):
        raise AssertionError("propagation started for a rejected config")

    for name in ("evolve", "scan_probabilities", "bounce_simulation", "bounce_ladders"):
        monkeypatch.setattr(experiments, name, no_run)
    out = tmp_path / command
    assert main([command, "--hbar=0.5pi", *OVER_BUDGET[key], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "over the work budget" in err and key in err.split(":")[2]
    assert not (out / "run_manifest").exists()


def documented_configs():
    """(label, overrides) of every run the README, the scripts, the benchmark and the
    largest tests make through a config."""
    import importlib.util
    import sys

    root = Path(__file__).resolve().parents[1]
    for line in re.findall(r"^ratchet-lab (\w+ .*) --out", (root / "README.md").read_text(), re.M):
        if "<" not in line:
            yield line, dict(token[2:].split("=", 1) for token in line.split()[1:])
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(10):
            yield f"benchmark {name} seed {seed}", workload.overrides(seed)
    # scripts/beam_width_study.py's widest window; test_criterion_06's beam
    yield "beam_width_study", {"hbar": "0.5pi", "beam_periods": "1024", "beam_points_per_period": "128"}
    yield "criterion 06", {"hbar": "0.5pi", "beam_periods": "512", "beam_points_per_period": "128"}
    yield "10,000-point scan, both modes", {"hbar": "1", "scan_hbar_min": "1", "scan_hbar_max": "10000",
                                            "scan_hbar_step": "1", "scan_mode": "both"}


def test_documented_configs_fit_the_work_budget_tenfold():
    from ratchet_lab import config

    labels = []
    for label, overrides in documented_configs():
        cfg = parse_config("", overrides)
        work, _keys, terms = max(config._batch_work(cfg, len(cfg.scan_hbar_values())))
        assert 10 * work <= config.WORK_BUDGET, (label, terms)
        labels.append(label)
    assert len(labels) == 4 + 30 + 3


def test_documented_configs_fit_the_beam_memory_budget_tenfold():
    from ratchet_lab import config

    for label, overrides in documented_configs():
        cfg = parse_config("", overrides)
        memory = cfg.beam_periods * cfg.beam_points_per_period * config.WINDOW_BYTES_PER_SAMPLE
        assert 10 * memory <= config.BEAM_MEMORY_BUDGET, label


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_cli_beam_memory_over_budget_exits_2_before_output(tmp_path, monkeypatch, capsys, command):
    # 256,000,000 beam samples in one kick: within the work budget, but 3.8 GiB per complex buffer
    import ratchet_lab.experiments as experiments

    def no_run(*args, **kwargs):
        raise AssertionError("propagation started for a rejected config")

    for name in ("evolve", "scan_probabilities", "bounce_simulation", "bounce_ladders"):
        monkeypatch.setattr(experiments, name, no_run)
    overrides = {"hbar": "0.5pi", "n_kicks": "1", "beam_periods": "2000000"}
    with pytest.raises(ConfigError, match=r"^beam_periods, beam_points_per_period: 256000000 beam samples "
                                          r"x 80 bytes is 2\.05e\+10 bytes, over the beam memory budget"):
        parse_config("", overrides)
    out = tmp_path / command
    assert main([command, *(f"--{k}={v}" for k, v in overrides.items()), "--out", str(out)]) == 2
    assert "over the beam memory budget" in capsys.readouterr().err
    assert not (out / "run_manifest").exists()
    parse_config("", {**overrides, "beam_periods": "20000"})  # a hundredth of it parses


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


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_cli_late_error_is_not_a_configuration_error(tmp_path, monkeypatch, capsys, error):
    # an error raised once the run has started is a fault of the run, not of its config
    import ratchet_lab.experiments as experiments

    def broken(*args, **kwargs):
        raise error("synthetic engine fault")

    monkeypatch.setattr(experiments, "evolve", broken)
    with pytest.raises(error, match="synthetic engine fault"):
        main(["evolve", "--hbar=0.5pi", "--n_kicks=2", "--out", str(tmp_path)])
    assert "configuration error" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_manifest"]


class _Reached(Exception):
    """Raised by a patched subcommand: the config got past parsing and the output directory."""


# values that parse for some key, fail for others, or fail everywhere
_VALUE_WORDS = ["0", "1", "-1", "2", "7", "8", "31", "32", "64", "4096", "0.3", "0.5", "1e-9", "1e12",
                "1e-300", "1e300", "1e308", "nan", "inf", "-inf", "0.5pi", "pi", "-pi", "2pi", "0.02pi",
                "continuous", "quantum", "optical", "both", "fixed-k", "fixed-kick-phase", "21,5", "3,1", ",",
                "", " 16 ", "x"]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["evolve", "optical", "scan", "mirror", "compare", "figs"]),
       start=st.sampled_from([{"hbar": "0.5pi"}, {"distance": "0.2"}, {"hbar": "pi", "distance": "0.2"}, {}]),
       drawn=st.dictionaries(st.sampled_from(sorted(_KEYS) + ["bogus"]),
                             st.sampled_from(_VALUE_WORDS) | st.integers(-10, 10**6).map(str)
                             | st.floats().map(repr) | st.text(max_size=5), max_size=6))
def test_cli_config_round_trip_property(command, start, drawn):
    # every accepted config writes a run_manifest that reparses to an equal RunConfig, and every
    # rejected one exits 2 and writes nothing; the subcommands are patched to stop at their
    # call, so no drawn config builds a grid or a beam
    import ratchet_lab.cli as cli

    def reached(cfg, out):
        raise _Reached(cfg)

    overrides = {**start, **drawn}
    argv = [command, *(f"--{key}={value}" for key, value in overrides.items())]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(cli.SUBCOMMANDS, {name: reached for name in cli.SUBCOMMANDS}):
        out = Path(tmp) / "out"
        try:
            code = cli.main([*argv, "--out", str(out)])
        except _Reached as exc:
            (cfg,) = exc.args
            assert cfg == parse_config("", overrides)
            assert sorted(p.name for p in out.iterdir()) == ["run_manifest"]
            assert parse_config((out / "run_manifest").read_text(encoding="utf-8")) == cfg
        else:
            assert code == 2
            assert not out.exists()
            with pytest.raises(ConfigError):
                parse_config("", overrides)


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import ratchet_lab.cli as cli
    from ratchet_lab.evolution import NumericalFailure

    def boom(cfg, out):
        raise NumericalFailure("synthetic drift")

    monkeypatch.setitem(cli.SUBCOMMANDS, "scan", boom)
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


@pytest.mark.parametrize("command", ["optical", "mirror"])
def test_cli_nan_mirror_phase_exits_3_before_output(tmp_path, capsys, command):
    # the mirror's kick phase overflows as the quantum engine's does, and fails as it does
    with pytest.warns(RuntimeWarning):
        code = main([command, *NAN_OVERRIDES, "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure: mirror kick phase is not finite for K=1e+307" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_manifest"]


# geometry keys whose derived distance or hbar_eff overflows (inf, or OverflowError from
# period**2) or underflows (to 0, or period**2 to 0 in a divisor)
OUT_OF_RANGE = [{"distance": "1e300", "lambda": "1e300"}, {"hbar": "1e300", "period": "1e300"},
                {"distance": "1e-300", "lambda": "1e-300"}, {"hbar": "1e-300", "lambda": "1e300"},
                {"distance": "0.2", "period": "1e-200"}]


@pytest.mark.parametrize("overrides", OUT_OF_RANGE, ids=lambda o: " ".join(f"{k}={v}" for k, v in o.items()))
def test_cli_derived_geometry_out_of_range_exits_2_before_output(tmp_path, capsys, overrides):
    with pytest.raises(ConfigError, match=r"^(distance|hbar): cannot be derived from the other keys: "):
        parse_config("", overrides)
    out = tmp_path / "out"
    assert main(["optical", *(f"--{k}={v}" for k, v in overrides.items()), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


REMOVED_KEYS = {"focal": "0.3", "reflectivity": "0.95", "normalization": "per_row"}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_removed_keys_exit_2_before_output(tmp_path, capsys, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"hbar=0.5pi\n{key}={REMOVED_KEYS[key]}\n")
    out = tmp_path / "out"
    for argv in (["--config", str(config)], ["--hbar=0.5pi", f"--{key}={REMOVED_KEYS[key]}"]):
        assert main(["figs", *argv, "--out", str(out)]) == 2
        assert f"unknown key: {key}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_cli_fixed_kick_phase_alias_exits_2_before_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--hbar=0.5pi", "--fixed-kick-phase", "--out", str(out)]) == 2
    assert "'--fixed-kick-phase'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling, message", [
    ("--o DIR", "required: --out"),
    ("--ou=DIR", "required: --out"),
    ("--conf FILE --out DIR", "unrecognized argument '--conf'"),
])
def test_cli_abbreviated_options_exit_2_before_output(tmp_path, capsys, spelling, message):
    # --config and --out have one spelling each: a prefix is neither option
    config = tmp_path / "run.cfg"
    config.write_text("hbar=0.5pi\n")
    out = tmp_path / "out"
    tokens = spelling.replace("DIR", str(out)).replace("FILE", str(config)).split()
    assert main(["evolve", "--hbar=0.5pi", "--n_kicks=2", *tokens]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_fixed_kick_phase_flag(tmp_path):
    out = tmp_path / "fkp"
    code = main(["scan", "--hbar=0.5pi", "--scan_mode=fixed-kick-phase", "--scan_hbar_min=0.4pi",
                 "--scan_hbar_max=0.6pi", "--scan_hbar_step=0.2pi", "--scan_kicks_at=2",
                 "--out", str(out)])
    assert code == 0
    text = (out / "fig4_scan.csv").read_text()
    assert "fixed-kick-phase" in text
