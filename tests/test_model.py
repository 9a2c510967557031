import math
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratchet_lab.model import (
    EffectivePlanck,
    MirrorProfile,
    RatchetPotential,
    ResonanceOrder,
    depth_from_phase,
    eval_potential,
    kick_phase_profile,
    load_mirror_profile,
    phase_from_depth,
    quantize_profile,
    resonance_check,
    save_mirror_profile,
)

LAM = 532e-9
PERIOD = 600e-6


# --- potential -------------------------------------------------------------

def test_potential_trivial_points(pot):
    assert eval_potential(pot, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert eval_potential(pot, math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_potential_quarter_pi_high_precision(pot):
    # oracle: mpmath 50-digit evaluation of sin(pi/4) + 0.3*sin(pi/2)
    import mpmath

    mpmath.mp.dps = 50
    expected = float(mpmath.sin(mpmath.pi / 4) + mpmath.mpf("0.3") * mpmath.sin(mpmath.pi / 2))
    assert eval_potential(pot, math.pi / 4) == pytest.approx(expected, abs=1e-15)


def test_potential_periodic(pot):
    rng = np.random.default_rng(42)
    x = rng.uniform(-50, 50, size=1000)
    assert np.max(np.abs(eval_potential(pot, x) - eval_potential(pot, x + 2 * math.pi))) < 1e-12


def test_potential_odd_at_phi_zero(pot):
    rng = np.random.default_rng(7)
    x = rng.uniform(-10, 10, size=500)
    assert np.max(np.abs(eval_potential(pot, -x) + eval_potential(pot, x))) < 1e-12


def test_potential_validation():
    with pytest.raises(ValueError):
        RatchetPotential(K=-0.1)
    with pytest.raises(ValueError):
        RatchetPotential(alpha=math.nan)


# --- kick phase ------------------------------------------------------------

def test_kick_phase_zero_strength(hbar_res):
    phase = kick_phase_profile(RatchetPotential(K=0.0, alpha=0.3), hbar_res, np.linspace(0, 7, 64))
    assert np.all(phase == 0.0)


def test_kick_phase_examples(pot):
    phase = kick_phase_profile(pot, EffectivePlanck(1.0), [math.pi / 2])
    assert phase[0] == pytest.approx(-1.0, abs=1e-12)
    # oracle: -(sin(pi/4) + 0.3)/(pi/2) at 50 digits
    import mpmath

    mpmath.mp.dps = 50
    expected = float(-(mpmath.sin(mpmath.pi / 4) + mpmath.mpf("0.3")) / (mpmath.pi / 2))
    phase = kick_phase_profile(pot, EffectivePlanck(0.5 * math.pi), [math.pi / 4])
    assert phase[0] == pytest.approx(expected, abs=1e-15)


def test_effective_planck_rejects_nonpositive():
    with pytest.raises(ValueError):
        EffectivePlanck(0.0)
    with pytest.raises(ValueError):
        EffectivePlanck(-1.0)


# --- resonance arithmetic ---------------------------------------------------

def test_resonance_examples():
    assert resonance_check(EffectivePlanck(2 * math.pi), 16, 1e-9) == ResonanceOrder(1, 2)
    assert resonance_check(EffectivePlanck(0.5 * math.pi), 16, 1e-9) == ResonanceOrder(1, 8)
    assert resonance_check(EffectivePlanck(0.35 * math.pi), 16, 1e-9) is None


def test_resonance_order_validation():
    with pytest.raises(ValueError):
        ResonanceOrder(2, 4)
    with pytest.raises(ValueError):
        ResonanceOrder(0, 1)


def _exhaustive_resonance(hbar_eff: float, s_max: int, tol: float):
    """Independent oracle: scan every s, closest coprime r, ties toward lower r."""
    y = Fraction(hbar_eff / (4.0 * math.pi))
    tol_f = Fraction(tol)
    for s in range(1, s_max + 1):
        base = (y.numerator * s) // y.denominator
        candidates = [
            r for r in (base - 1, base, base + 1, base + 2)
            if r >= 1 and gcd(r, s) == 1 and abs(y - Fraction(r, s)) <= tol_f
        ]
        if candidates:
            r = min(candidates, key=lambda rr: (abs(y - Fraction(rr, s)), rr))
            return ResonanceOrder(r, s)
    return None


def test_resonance_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    for _ in range(200):
        hbar_eff = rng.uniform(1e-3, 4 * math.pi)
        got = resonance_check(EffectivePlanck(hbar_eff), 16, 1e-9)
        assert got == _exhaustive_resonance(hbar_eff, 16, 1e-9)
        if got is not None:
            assert gcd(got.r, got.s) == 1


@settings(max_examples=200, deadline=None)
@given(
    hbar_eff=st.floats(min_value=1e-3, max_value=4 * math.pi),
    s_max=st.integers(min_value=1, max_value=24),
    tol=st.floats(min_value=0.0, max_value=0.05),
)
def test_resonance_matches_exhaustive_hypothesis(hbar_eff, s_max, tol):
    got = resonance_check(EffectivePlanck(hbar_eff), s_max, tol)
    assert got == _exhaustive_resonance(hbar_eff, s_max, tol)


# --- depth / phase ----------------------------------------------------------

def test_depth_from_phase_trivial():
    prof = depth_from_phase(np.zeros(32), LAM, PERIOD)
    assert np.all(prof.depth_samples == 0.0)
    prof = depth_from_phase(np.full(32, 2 * math.pi), LAM, PERIOD)
    assert np.all(prof.depth_samples == 0.0)


def test_depth_from_phase_quarter_wave():
    prof = depth_from_phase(np.full(32, math.pi), LAM, PERIOD)
    assert np.allclose(prof.depth_samples, LAM / 4, rtol=0, atol=1e-24)
    assert prof.depth_samples[0] == pytest.approx(133e-9, rel=1e-12)


def test_depth_from_phase_rejects_bad_input():
    with pytest.raises(ValueError):
        depth_from_phase(np.array([0.0, math.inf] + [0.0] * 30), LAM, PERIOD)
    with pytest.raises(ValueError):
        depth_from_phase(np.zeros(32), -1.0, PERIOD)


def test_phase_from_depth_inverse_convention():
    prof = MirrorProfile(PERIOD, np.full(32, LAM / 4))
    assert np.allclose(phase_from_depth(prof, LAM), math.pi, rtol=1e-15)
    with pytest.raises(ValueError):
        phase_from_depth(prof, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=LAM / 2, exclude_max=True), min_size=16, max_size=64))
def test_depth_phase_roundtrip(depths):
    prof = MirrorProfile(PERIOD, np.array(depths))
    back = depth_from_phase(phase_from_depth(prof, LAM), LAM, PERIOD)
    assert np.allclose(back.depth_samples, prof.depth_samples, rtol=1e-15, atol=LAM * 1e-18)


# --- quantization -----------------------------------------------------------

def test_quantize_constant_unchanged():
    depth = np.full(20, 3.7e-8)
    prof = quantize_profile(depth, 5, PERIOD)
    assert np.array_equal(prof.depth_samples, depth)


def test_quantize_uniform_ladder_fixed_point():
    levels = np.linspace(0.0, 9e-8, 4)
    depth = levels[np.array([0, 1, 2, 3, 3, 2, 1, 0] * 4)]
    prof = quantize_profile(depth, 4, PERIOD)
    assert np.array_equal(prof.depth_samples, depth)


def test_quantize_two_level_sine_brute_force():
    x = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    depth = 5e-8 * (1 + np.sin(x))
    prof = quantize_profile(depth, 2, PERIOD)
    lo, hi = depth.min(), depth.max()
    # brute-force rounding oracle: nearest of the two extremes, tie toward lo
    expected = np.where(depth - lo > hi - depth, hi, lo)
    assert np.array_equal(prof.depth_samples, expected)
    assert len(np.unique(prof.depth_samples)) == 2


def test_quantize_ties_toward_lower_level():
    # levels 0, 0.5, 1.0; sample 0.25 sits exactly between the first two
    depth = np.array([0.0, 0.25, 0.75, 1.0] * 4)
    prof = quantize_profile(depth, 3, PERIOD)
    assert prof.depth_samples[1] == 0.0
    assert prof.depth_samples[2] == 0.5


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_profile(np.array([]), 4, PERIOD)
    with pytest.raises(ValueError):
        quantize_profile(np.ones(8), 1, PERIOD)


@settings(max_examples=150, deadline=None)
@given(
    depths=st.lists(st.floats(min_value=0.0, max_value=2.6e-7), min_size=16, max_size=80),
    n_levels=st.integers(min_value=2, max_value=64),
)
def test_quantize_idempotent_bitwise(depths, n_levels):
    once = quantize_profile(np.array(depths), n_levels, PERIOD)
    twice = quantize_profile(once.depth_samples, n_levels, PERIOD)
    assert np.array_equal(once.depth_samples, twice.depth_samples)


def test_sixteen_level_ratchet_staircase(pot, hbar_res):
    from ratchet_lab.optics import ratchet_mirror

    mirror = ratchet_mirror(pot, hbar_res, LAM, PERIOD, samples_per_period=256, n_levels=16)
    phases = phase_from_depth(mirror, LAM)
    assert len(np.unique(mirror.depth_samples)) <= 16
    assert len(np.unique(phases)) <= 16


# --- profile serialization ---------------------------------------------------

def test_mirror_profile_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    depth = rng.uniform(0, LAM / 2 * 0.999, size=48)
    prof = quantize_profile(depth, 16, PERIOD)
    path = tmp_path / "mirror.txt"
    save_mirror_profile(prof, path)
    loaded = load_mirror_profile(path)
    assert loaded.period_m == prof.period_m
    assert loaded.n_levels == 16
    assert np.array_equal(loaded.depth_samples, prof.depth_samples)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# period_m=") and "n_levels=16" in header


@pytest.mark.parametrize("text, line", [
    ("# period_m=0.0006\n0.0,1e-7\n", 1),
    ("# period_m\n0.0,1e-7\n", 1),
    ("# period_m=0.0006 n_levels=sixteen\n0.0,1e-7\n", 1),
    ("# period_m=0.0006 n_levels=16\n0.0,1e-7\n\n0.0,1e-7,3\n", 4),
    ("# period_m=0.0006 n_levels=16\n0.0;1e-7\n", 2),
    ("0.0,1e-7\n", None),
])
def test_mirror_profile_load_rejects_malformed_file(tmp_path, text, line):
    path = tmp_path / "mirror.txt"
    path.write_text(text, encoding="utf-8")
    where = str(path) if line is None else f"{path}:{line}:"
    with pytest.raises(ValueError, match=re.escape(where)):
        load_mirror_profile(path)


def test_mirror_profile_validation():
    with pytest.raises(ValueError):
        MirrorProfile(PERIOD, np.zeros(8))  # too few samples
    with pytest.raises(ValueError):
        MirrorProfile(-1.0, np.zeros(32))
