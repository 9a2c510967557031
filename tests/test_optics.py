import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratchet_lab.evolution import NumericalFailure, SpatialGrid, kick_step, momentum_spectrum, plane_wave
from ratchet_lab.model import EffectivePlanck, RatchetPotential, depth_from_phase, phase_from_depth
from ratchet_lab.observables import distribution_distance
from ratchet_lab.optics import (
    BeamField,
    OpticalGeometry,
    apply_mirror,
    bounce_simulation,
    deflection_check,
    distance_for_hbar,
    far_field,
    gaussian_beam,
    hbar_from_geometry,
    image_ladders,
    lau_distance,
    order_probabilities,
    plane_wave_beam,
    propagate_fresnel,
    ratchet_mirror,
    render_ccd,
    row_order_ladder,
    row_order_probabilities,
    FarFieldImage,
)

LAM = 532e-9
PERIOD = 600e-6
PAPER_GEOM = OpticalGeometry(LAM, PERIOD, 0.169172, 0.3, 0.95)


# --- geometry arithmetic -------------------------------------------------------

def test_hbar_from_paper_geometry():
    hbar = hbar_from_geometry(PAPER_GEOM)
    assert hbar.hbar_eff == pytest.approx(0.5 * math.pi, rel=1e-4)


def test_hbar_scales_with_distance():
    near = OpticalGeometry(LAM, PERIOD, 1e-9, 0.3, 0.95)
    assert hbar_from_geometry(near).hbar_eff < 1e-4


def test_distance_examples():
    assert distance_for_hbar(EffectivePlanck(2 * math.pi), LAM, PERIOD) == pytest.approx(
        PERIOD**2 / LAM, rel=1e-14)
    assert distance_for_hbar(EffectivePlanck(2 * math.pi), LAM, PERIOD) == pytest.approx(
        0.676692, rel=1e-5)
    assert distance_for_hbar(EffectivePlanck(math.pi), LAM, PERIOD) == pytest.approx(
        PERIOD**2 / (2 * LAM), rel=1e-14)
    assert distance_for_hbar(EffectivePlanck(0.5 * math.pi), LAM, PERIOD) == pytest.approx(
        0.169172, rel=1e-4)


def test_distance_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        hbar = EffectivePlanck(rng.uniform(0.01, 4 * math.pi))
        length = distance_for_hbar(hbar, LAM, PERIOD)
        geom = OpticalGeometry(LAM, PERIOD, length, 0.3, 0.95)
        assert hbar_from_geometry(geom).hbar_eff == pytest.approx(hbar.hbar_eff, rel=1e-15)


def test_lau_identity_bitwise():
    for s in range(1, 9):
        for r in range(1, 3 * s):
            if gcd(r, s) != 1:
                continue
            via_hbar = distance_for_hbar(EffectivePlanck(4 * math.pi * r / s), LAM, PERIOD)
            assert lau_distance(4 * r, s, LAM, PERIOD) == via_hbar


def test_lau_examples_and_scaling():
    assert lau_distance(2, 1, LAM, PERIOD) == distance_for_hbar(EffectivePlanck(2 * math.pi), LAM, PERIOD)
    assert lau_distance(1, 1, LAM, PERIOD) == pytest.approx(PERIOD**2 / (2 * LAM), rel=1e-14)
    assert lau_distance(6, 5, LAM, PERIOD) == pytest.approx(2 * lau_distance(3, 5, LAM, PERIOD), rel=1e-14)
    with pytest.raises(ValueError):
        lau_distance(0, 1, LAM, PERIOD)


# --- mirror reflection -----------------------------------------------------------

def test_apply_mirror_zero_depth_identity():
    beam = plane_wave_beam(PERIOD, 16, 64, LAM)
    mirror = depth_from_phase(np.zeros(64), LAM, PERIOD)
    out = apply_mirror(beam, mirror)
    assert np.array_equal(out.samples, beam.samples)


def test_apply_mirror_constant_depth_global_phase():
    beam = gaussian_beam(PERIOD, 16, 64, 3 * PERIOD, LAM)
    mirror = depth_from_phase(np.full(64, 1.0), LAM, PERIOD)
    out = apply_mirror(beam, mirror)
    intensity_in = np.abs(beam.samples) ** 2
    assert np.allclose(np.abs(out.samples) ** 2, intensity_in, rtol=1e-12, atol=1e-20)
    assert out.power == beam.power


def test_apply_mirror_incommensurate_window():
    beam = plane_wave_beam(PERIOD, 16, 64, LAM)
    mirror = depth_from_phase(np.zeros(64), LAM, PERIOD * 1.37)
    with pytest.raises(ValueError):
        apply_mirror(beam, mirror)


def test_single_bounce_matches_quantum_kick(pot, hbar_res):
    mirror = ratchet_mirror(pot, hbar_res, LAM, PERIOD, samples_per_period=128)
    beam = apply_mirror(plane_wave_beam(PERIOD, 16, 128, LAM), mirror)
    orders, probs = order_probabilities(beam, PERIOD)
    quantum = momentum_spectrum(kick_step(plane_wave(SpatialGrid(1, 256)), pot, hbar_res))
    qmap = dict(zip(quantum.orders.tolist(), quantum.probabilities.tolist()))
    worst = max(abs(p - qmap.get(int(n), 0.0)) for n, p in zip(orders, probs))
    assert worst < 1e-6


# --- free propagation -------------------------------------------------------------

def test_propagate_zero_distance_identity():
    beam = gaussian_beam(PERIOD, 16, 64, 3 * PERIOD, LAM)
    assert propagate_fresnel(beam, 0.0) is beam


def test_propagate_plane_wave_invariant():
    beam = plane_wave_beam(PERIOD, 16, 64, LAM)
    out = propagate_fresnel(beam, 0.123)
    assert np.max(np.abs(out.samples - beam.samples)) < 1e-12


def test_talbot_self_imaging_two_step_splits():
    beam = plane_wave_beam(PERIOD, 16, 256, LAM)
    grating = BeamField(samples=beam.samples * (0.5 * (1 + 0.4 * np.cos(2 * math.pi * beam.x / PERIOD))),
                        dx=beam.dx, window_m=beam.window_m, power=beam.power, wavelength_m=LAM)
    z_talbot = 2 * PERIOD**2 / LAM
    one_step = propagate_fresnel(grating, z_talbot)
    pieces = propagate_fresnel(propagate_fresnel(grating, z_talbot / 7), 6 * z_talbot / 7)
    assert np.max(np.abs(np.abs(one_step.samples) ** 2 - np.abs(grating.samples) ** 2)) < 1e-6
    assert np.max(np.abs(np.abs(pieces.samples) ** 2 - np.abs(grating.samples) ** 2)) < 1e-6


def test_propagation_power_and_semigroup():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = 16 * 64
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        beam = BeamField(samples=samples, dx=PERIOD / 64, window_m=16 * PERIOD,
                         power=1.0, wavelength_m=LAM)
        z1, z2 = rng.uniform(0, 0.5, size=2)
        a = propagate_fresnel(beam, z1 + z2)
        b = propagate_fresnel(propagate_fresnel(beam, z1), z2)
        assert abs(a.measured_power() - beam.measured_power()) < 1e-12 * beam.measured_power()
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12 * np.max(np.abs(beam.samples))


# --- far field ---------------------------------------------------------------------

def test_far_field_plane_wave_single_peak():
    beam = plane_wave_beam(PERIOD, 16, 64, LAM)
    intensity, pitch = far_field(beam, 0.3)
    assert np.argmax(intensity) == intensity.size // 2
    others = np.delete(intensity, intensity.size // 2)
    assert np.max(others) < 1e-18 * intensity.max()


def test_far_field_order_spacing_matches_focal_geometry():
    beam = plane_wave_beam(PERIOD, 16, 64, LAM)
    _, pitch = far_field(beam, 0.3)
    spacing = LAM * 0.3 / PERIOD
    assert spacing == pytest.approx(266e-6, rel=1e-12)
    assert pitch * 16 == pytest.approx(spacing, rel=1e-12)  # 16 fine pixels per order


def test_far_field_two_order_superposition():
    beam = plane_wave_beam(PERIOD, 16, 64, LAM)
    two = BeamField(samples=(beam.samples + beam.samples * np.exp(2j * math.pi * beam.x / PERIOD)),
                    dx=beam.dx, window_m=beam.window_m, power=beam.power, wavelength_m=LAM)
    intensity, _ = far_field(two, 0.3)
    center = intensity.size // 2
    assert intensity[center] == pytest.approx(intensity[center + 16], rel=1e-12)
    assert intensity[center] > 1e6 * np.median(intensity)


# --- bounce simulation ----------------------------------------------------------

def test_bounce_flat_mirror_single_kick_preserves_far_field():
    beam = gaussian_beam(PERIOD, 16, 64, 3 * PERIOD, LAM)
    flat = depth_from_phase(np.zeros(64), LAM, PERIOD)
    image = bounce_simulation(PAPER_GEOM, flat, beam, 1)
    raw, _ = far_field(beam, PAPER_GEOM.focal_m)
    assert np.allclose(image.rows[0], raw / raw.sum(), atol=1e-15)


def test_bounce_loss_accounting_bookkeeping():
    beam = gaussian_beam(PERIOD, 16, 64, 3 * PERIOD, LAM, power=2.5)
    mirror = ratchet_mirror(RatchetPotential(), hbar_from_geometry(PAPER_GEOM), LAM, PERIOD, 64)
    image = bounce_simulation(PAPER_GEOM, mirror, beam, 5, loss_accounting=True)
    for k in range(1, 6):
        expected = PAPER_GEOM.reflectivity**k * 0.05 * 2.5
        assert image.rows[k - 1].sum() == pytest.approx(expected, rel=1e-12)


def test_bounce_rows_normalized_by_default(pot, hbar_res):
    mirror = ratchet_mirror(pot, hbar_res, LAM, PERIOD, 64)
    beam = gaussian_beam(PERIOD, 16, 64, 3 * PERIOD, LAM)
    image = bounce_simulation(PAPER_GEOM, mirror, beam, 3)
    assert np.allclose(image.rows.sum(axis=1), 1.0, atol=1e-12)


def stepwise_rows(geom, mirror, beam, n_kicks, loss_accounting):
    """Rows of bounce_simulation built from the public single-step functions."""
    flight = distance_for_hbar(hbar_from_geometry(geom), geom.wavelength_m, geom.period_m)
    rows = []
    for k in range(1, n_kicks + 1):
        beam = apply_mirror(beam, mirror)
        intensity, _ = far_field(beam, geom.focal_m)
        if loss_accounting:
            scale = geom.reflectivity**k * 0.05 * beam.power / intensity.sum()
        else:
            scale = 1.0 / intensity.sum()
        rows.append(intensity * scale)
        beam = propagate_fresnel(beam, flight)
    return np.stack(rows)


def bounce_case(hbar_eff, window_periods, samples_per_period, n_levels="continuous"):
    hbar = EffectivePlanck(hbar_eff)
    geom = OpticalGeometry(LAM, PERIOD, distance_for_hbar(hbar, LAM, PERIOD), 0.3, 0.95)
    mirror = ratchet_mirror(RatchetPotential(), hbar_from_geometry(geom), LAM, PERIOD,
                            samples_per_period, n_levels)
    beam = gaussian_beam(PERIOD, window_periods, samples_per_period,
                         window_periods / 4 * PERIOD, LAM, power=1.5)
    return geom, mirror, beam


@settings(max_examples=20, deadline=None)
@given(hbar_over_pi=st.floats(min_value=0.1, max_value=2.0),
       window_periods=st.integers(min_value=8, max_value=96),
       samples_per_period=st.sampled_from([64, 96, 128]),
       n_levels=st.sampled_from(["continuous", 4, 16]),
       n_kicks=st.integers(min_value=1, max_value=12),
       loss_accounting=st.booleans())
def test_bounce_equals_step_composition_bitwise(hbar_over_pi, window_periods, samples_per_period,
                                                n_levels, n_kicks, loss_accounting):
    geom, mirror, beam = bounce_case(hbar_over_pi * math.pi, window_periods, samples_per_period, n_levels)
    assert beam.samples.size < 16384
    image = bounce_simulation(geom, mirror, beam, n_kicks, loss_accounting)
    assert np.array_equal(image.rows, stepwise_rows(geom, mirror, beam, n_kicks, loss_accounting))


def test_bounce_matches_step_composition_at_65536_samples():
    # Above 256 KiB numpy evaluates apply_mirror's `samples * exp(...)` with the
    # temporary as the left operand, and complex SIMD multiply is not bitwise
    # commutative, so the large beam agrees to rounding only.
    geom, mirror, beam = bounce_case(0.5 * math.pi, 512, 128)
    image = bounce_simulation(geom, mirror, beam, 22)
    assert np.max(np.abs(image.rows - stepwise_rows(geom, mirror, beam, 22, False))) < 1e-14


@pytest.mark.parametrize("n_kicks", [1, 4])
def test_bounce_takes_one_fft_pair_per_bounce(n_kicks, fft_calls):
    geom, mirror, beam = bounce_case(0.5 * math.pi, 16, 64)
    bounce_simulation(geom, mirror, beam, n_kicks)
    assert (fft_calls["fft"], fft_calls["ifft"]) == (n_kicks, n_kicks - 1)


def test_bounce_power_guard(monkeypatch, tmp_path, capsys):
    import ratchet_lab.optics as optics
    from ratchet_lab.cli import main

    def lossy(mirror, wavelength_m):
        return phase_from_depth(mirror, wavelength_m) + 1e-3j

    monkeypatch.setattr(optics, "phase_from_depth", lossy)
    geom, mirror, beam = bounce_case(0.5 * math.pi, 16, 64)
    with pytest.raises(NumericalFailure, match=r"^beam power drifted by .* at bounce 1$"):
        bounce_simulation(geom, mirror, beam, 3)
    assert main(["optical", "--hbar=0.5pi", "--n_kicks=3", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_bounce_nan_power_fails_the_guard(monkeypatch):
    import ratchet_lab.optics as optics

    monkeypatch.setattr(optics, "phase_from_depth",
                        lambda mirror, wavelength_m: np.full(mirror.depth_samples.shape, np.nan))
    geom, mirror, beam = bounce_case(0.5 * math.pi, 16, 64)
    with pytest.raises(NumericalFailure, match=r"^beam power drifted by nan \(relative\) at bounce 1$"):
        bounce_simulation(geom, mirror, beam, 3)


def test_bounce_correspondence_moderate_beam(pot, hbar_res):
    from ratchet_lab.evolution import KickedRunParams, evolve

    distance = distance_for_hbar(hbar_res, LAM, PERIOD)
    geom = OpticalGeometry(LAM, PERIOD, distance, 0.3, 0.95)
    mirror = ratchet_mirror(pot, hbar_from_geometry(geom), LAM, PERIOD, 128)
    beam = gaussian_beam(PERIOD, 256, 128, 32 * PERIOD, LAM)
    image = bounce_simulation(geom, mirror, beam, 22)
    reference = []
    evolve(plane_wave(SpatialGrid(1, 256)), KickedRunParams(pot, hbar_res, 22),
           lambda k, lad: reference.append(dict(zip(lad.orders.tolist(), lad.probabilities.tolist()))))
    worst = 0.0
    for k in range(1, 23):
        orders, probs = row_order_probabilities(image, k)
        ref = reference[k - 1]
        worst = max(worst, max(abs(p - ref.get(int(n), 0.0)) for n, p in zip(orders, probs)))
    assert worst < 1e-2


def per_row_bin_orders(intensity_shifted, window_periods):
    """Reference: the binning of one focal-plane row as optical ladders were built row by row."""
    n = intensity_shifted.size
    fine = np.arange(n) - n // 2
    orders = np.rint(fine / window_periods).astype(int)
    n_lo = orders.min()
    sums = np.bincount(orders - n_lo, weights=intensity_shifted)
    return np.arange(n_lo, n_lo + sums.size), sums / sums.sum()


@settings(max_examples=80, deadline=None)
@given(kicks=st.integers(min_value=1, max_value=6),
       window_periods=st.integers(min_value=1, max_value=12),
       n=st.integers(min_value=2, max_value=300),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.floats(min_value=1e-12, max_value=1e6),
       hbar_eff=st.floats(min_value=1e-2, max_value=4 * math.pi))
def test_image_ladders_match_per_row_binning_bitwise(kicks, window_periods, n, seed, scale, hbar_eff):
    rng = np.random.default_rng(seed)
    rows = rng.random((kicks, n)) * scale
    rows[:, rng.random(n) < 0.3] = 0.0  # dark columns, as between diffraction orders
    rows[:, n // 2] += scale
    image = FarFieldImage(rows=rows, window_periods=window_periods, hbar_eff=hbar_eff)
    ladders = image_ladders(image)
    assert len(ladders) == kicks
    assert not ladders[0].orders.flags.writeable
    for k, ladder in enumerate(ladders, start=1):
        orders, probs = per_row_bin_orders(rows[k - 1], window_periods)
        assert ladder.orders is ladders[0].orders
        assert ladder.orders.dtype == orders.dtype and ladder.orders.tobytes() == orders.tobytes()
        # the ladder renormalizes the binned row once more, as row_order_ladder always did
        assert ladder.probabilities.tobytes() == (probs / probs.sum()).tobytes()
        assert (ladder.beta, ladder.hbar, ladder.grid_periods) == (0.0, EffectivePlanck(hbar_eff), 1)
        one_orders, one_probs = row_order_probabilities(image, k)
        assert one_orders.tobytes() == orders.tobytes() and one_probs.tobytes() == probs.tobytes()
        single = row_order_ladder(image, k)
        assert single.probabilities.tobytes() == ladder.probabilities.tobytes()


# --- deflection ---------------------------------------------------------------

def _three_slope_mirror(n=3072):
    x = np.arange(n) * (PERIOD / n)
    slopes = [2 * math.pi * 0.8 / PERIOD, -2 * math.pi * 1.7 / PERIOD, 2 * math.pi * 3.3 / PERIOD]
    phase = np.zeros(n)
    offset = 0.0
    for slope, (lo, hi) in zip(slopes, ((0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n))):
        phase[lo:hi] = slope * (x[lo:hi] - x[lo]) + offset
        offset = phase[hi - 1]
    return depth_from_phase(phase, LAM, PERIOD), slopes


def test_deflection_zero_gradient():
    flat = depth_from_phase(np.zeros(256), LAM, PERIOD)
    regions = deflection_check(flat, LAM, 0.3)
    assert len(regions) == 1
    assert regions[0].grad_phase == 0.0
    assert abs(regions[0].measured_shift_m) < 1e-12


def test_deflection_three_gradient_regions():
    mirror, slopes = _three_slope_mirror()
    regions = deflection_check(mirror, LAM, 0.3)
    assert len(regions) == 3
    for region, slope in zip(regions, slopes):
        assert region.grad_phase == pytest.approx(slope, rel=1e-6)
        assert region.predicted_shift_m == pytest.approx(LAM * 0.3 / (2 * math.pi) * slope, rel=1e-12)
        assert region.measured_shift_m == pytest.approx(region.predicted_shift_m, rel=0.02)


def test_deflection_half_order_ramp_midway():
    n = 4096
    x = np.arange(n) * (PERIOD / n)
    mirror = depth_from_phase(math.pi / PERIOD * x, LAM, PERIOD)
    regions = deflection_check(mirror, LAM, 0.3)
    half_spacing = LAM * 0.3 / PERIOD / 2
    assert any(abs(r.measured_shift_m - half_spacing) < 0.02 * half_spacing for r in regions)


def test_deflection_region_too_small():
    rng = np.random.default_rng(3)
    noisy = depth_from_phase(rng.uniform(0, 2 * math.pi, size=256), LAM, PERIOD)
    with pytest.raises(ValueError):
        deflection_check(noisy, LAM, 0.3)


def test_integer_ramp_shifts_beam_ladder_exactly():
    m = 3
    spp = 128
    x = np.arange(spp) * (PERIOD / spp)
    mirror = depth_from_phase(2 * math.pi * m * x / PERIOD, LAM, PERIOD)
    beam = apply_mirror(plane_wave_beam(PERIOD, 16, spp, LAM), mirror)
    orders, probs = order_probabilities(beam, PERIOD)
    peak = orders[np.argmax(probs)]
    assert peak == m
    assert probs.max() > 1.0 - 1e-10


# --- CCD rendering ---------------------------------------------------------------

def test_render_ccd_uniform_and_two_peak_rows():
    img = FarFieldImage(rows=np.array([[0.2, 0.2, 0.2, 0.2]]), window_periods=1, hbar_eff=1.0)
    raster = render_ccd(img, gamma=1.0)
    assert np.all(raster == 255)
    img2 = FarFieldImage(rows=np.array([[0.0, 0.5, 0.0, 0.5]]), window_periods=1, hbar_eff=1.0)
    raster2 = render_ccd(img2, gamma=1.0)
    assert list(raster2[0]) == [0, 255, 0, 255]
    with pytest.raises(ValueError):
        render_ccd(img2, gamma=0.0)


def test_quantized_mirror_converges_monotone_16_vs_8(pot, hbar_res):
    distance = distance_for_hbar(hbar_res, LAM, PERIOD)
    geom = OpticalGeometry(LAM, PERIOD, distance, 0.3, 0.95)
    beam = gaussian_beam(PERIOD, 32, 128, 5 * PERIOD, LAM)
    dists = {}
    base = bounce_simulation(geom, ratchet_mirror(pot, hbar_res, LAM, PERIOD, 128), beam, 10)
    ref = row_order_ladder(base, 10)
    for n_levels in (8, 16):
        img = bounce_simulation(geom, ratchet_mirror(pot, hbar_res, LAM, PERIOD, 128, n_levels), beam, 10)
        lad = row_order_ladder(img, 10)
        dists[n_levels] = distribution_distance(lad.orders, lad.probabilities,
                                                ref.orders, ref.probabilities)
    assert dists[16] <= dists[8]
