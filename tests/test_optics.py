import math
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratchet_lab.evolution import (
    MomentumLadder,
    NumericalFailure,
    SpatialGrid,
    kick_step,
    momentum_spectrum,
    plane_wave,
)
from ratchet_lab.model import EffectivePlanck, RatchetPotential, depth_from_phase, phase_from_depth
from ratchet_lab.observables import distribution_distance
from ratchet_lab.optics import (
    BeamField,
    OpticalGeometry,
    apply_mirror,
    bounce_ladders,
    bounce_simulation,
    deflection_check,
    distance_for_hbar,
    far_field,
    gaussian_beam,
    hbar_from_geometry,
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
PAPER_GEOM = OpticalGeometry(LAM, PERIOD, 0.169172)


# --- geometry arithmetic -------------------------------------------------------

def test_hbar_from_paper_geometry():
    hbar = hbar_from_geometry(PAPER_GEOM)
    assert hbar.hbar_eff == pytest.approx(0.5 * math.pi, rel=1e-4)


def test_hbar_scales_with_distance():
    near = OpticalGeometry(LAM, PERIOD, 1e-9)
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
        geom = OpticalGeometry(LAM, PERIOD, length)
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


# --- beams -----------------------------------------------------------------------

@pytest.mark.parametrize("window_periods, samples_per_period, width_periods, power", [
    (512, 128, 64, 1.0),  # the compare benchmark beam
    (64, 128, 5, 1.0),  # the default beam
    (9, 65, 0.3, 2.5),  # an odd window, narrower than a period
])
def test_gaussian_beam_is_the_complex_formula_bitwise(window_periods, samples_per_period, width_periods, power):
    n = window_periods * samples_per_period
    dx = PERIOD / samples_per_period
    x = (np.arange(n) - n // 2) * dx
    amp = np.exp(-(x**2) / (width_periods * PERIOD) ** 2).astype(complex)
    expected = amp * math.sqrt(power / float(np.sum(np.abs(amp) ** 2) * dx))
    beam = gaussian_beam(PERIOD, window_periods, samples_per_period, width_periods * PERIOD, LAM, power)
    assert beam.samples.dtype == complex
    assert beam.samples.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("run", [
    lambda geom, mirror, beam: apply_mirror(beam, mirror),
    lambda geom, mirror, beam: bounce_simulation(geom, mirror, beam, 2),
    lambda geom, mirror, beam: bounce_ladders(geom, [mirror], beam, 2),
], ids=["apply_mirror", "bounce_simulation", "bounce_ladders"])
def test_window_of_part_period_samples_is_refused(run):
    # the beam splits into quasimomentum classes only when each period holds whole samples;
    # 130 samples over 9 mirror periods do not
    beam = BeamField(samples=np.ones(130), dx=9 * PERIOD / 130, window_m=9 * PERIOD, power=1.0,
                     wavelength_m=LAM)
    mirror = depth_from_phase(np.zeros(65), LAM, PERIOD)
    with pytest.raises(ValueError, match="130 samples do not split into 9 periods of whole samples"):
        run(OpticalGeometry(LAM, PERIOD, 0.1), mirror, beam)


@pytest.mark.parametrize("run", [
    lambda geom, mirror, beam: bounce_simulation(geom, mirror, beam, 2),
    lambda geom, mirror, beam: bounce_ladders(geom, [mirror], beam, 2),
], ids=["bounce_simulation", "bounce_ladders"])
def test_bounce_refuses_inputs_that_disagree(run, fft_calls):
    # a 633 nm beam under a 532 nm geometry would run at another hbar_eff than its ladders
    # carry, and a mirror cut for half the geometry's period does not fit its classes; both
    # are refused before any transform
    geom, mirror, beam = bounce_case(0.5 * math.pi, 16, 64)
    red = gaussian_beam(PERIOD, 16, 64, 4 * PERIOD, 633e-9)
    with pytest.raises(ValueError, match=r"^beam wavelength_m 6\.33e-07 is not the geometry's 5\.32e-07$"):
        run(geom, mirror, red)
    half = depth_from_phase(np.zeros(64), LAM, PERIOD / 2)
    with pytest.raises(ValueError, match=r"^mirror period_m 0\.0003 is not the geometry's 0\.0006$"):
        run(geom, half, beam)
    assert (fft_calls["fft"], fft_calls["ifft"]) == (0, 0)


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
    raw, _ = far_field(beam, 0.3)
    assert np.allclose(image.rows[0], raw / raw.sum(), atol=1e-15)


def test_bounce_rows_normalized_by_default(pot, hbar_res):
    mirror = ratchet_mirror(pot, hbar_res, LAM, PERIOD, 64)
    beam = gaussian_beam(PERIOD, 16, 64, 3 * PERIOD, LAM)
    image = bounce_simulation(PAPER_GEOM, mirror, beam, 3)
    assert np.allclose(image.rows.sum(axis=1), 1.0, atol=1e-12)


def stepwise_rows(geom, mirror, beam, n_kicks):
    """Rows of bounce_simulation built from the public single-step functions."""
    rows = []
    for _ in range(n_kicks):
        beam = apply_mirror(beam, mirror)
        intensity, _ = far_field(beam, 0.3)
        rows.append(intensity * (1.0 / intensity.sum()))
        beam = propagate_fresnel(beam, geom.distance_m)
    return np.stack(rows)


def class_stepwise_squares(geom, mirror, beam, n_kicks, classes=None):
    """(n_kicks, K, S) class squares of bounce_simulation's taps as a class-basis step
    composition: the beam split once into its quasimomentum classes, of which the sorted
    `classes` (all P by default) run, then per bounce the kick (the first period of the
    per-sample mirror factor), the FFT, the tap, the class flight and the inverse FFT."""
    import ratchet_lab.optics as optics

    n = beam.samples.size
    periods = round(beam.window_m / geom.period_m)
    s = n // periods
    r, m = np.arange(periods)[:, None], np.arange(s)[None, :]
    field = np.fft.fft(beam.samples.reshape(periods, s), axis=0)
    field = field * np.exp((-2j * math.pi / n) * (r * m))
    reflection = per_sample_reflection_factor(beam, mirror)[:s]
    kernel = optics._fresnel_kernel(beam, geom.distance_m).reshape(s, periods).T
    if classes is not None:
        field, kernel = field[classes], kernel[classes]
    squares = []
    for _ in range(n_kicks):
        field = field * reflection
        spectrum = np.fft.fft(field)
        squares.append(np.abs(spectrum) ** 2)
        field = np.fft.ifft(spectrum * kernel)
    return np.stack(squares)


def class_stepwise_rows(geom, mirror, beam, n_kicks, classes=None):
    """Rows of bounce_simulation: each tap's squares of the sorted `classes` (all by default)
    laid out as the fftshifted window, line r + P*m at column (r + P*m + n//2) mod n, zero on
    the other classes' lines, scaled to unit sum."""
    squares = class_stepwise_squares(geom, mirror, beam, n_kicks, classes)
    periods = round(beam.window_m / geom.period_m)
    n = beam.samples.size
    r = np.arange(periods)[:, None] if classes is None else np.asarray(classes)[:, None]
    m = np.arange(n // periods)[None, :]
    rows = []
    for square in squares:
        power = np.zeros(n)
        power[(r + periods * m + n // 2) % n] = square
        rows.append(power * (1.0 / power.sum()))
    return np.stack(rows)


def bounce_case(hbar_eff, window_periods, samples_per_period, n_levels="continuous", pot=RatchetPotential(),
                width_periods=None):
    """Geometry, ratchet mirror and Gaussian beam, by default a quarter of the window wide."""
    hbar = EffectivePlanck(hbar_eff)
    geom = OpticalGeometry(LAM, PERIOD, distance_for_hbar(hbar, LAM, PERIOD))
    mirror = ratchet_mirror(pot, hbar_from_geometry(geom), LAM, PERIOD, samples_per_period, n_levels)
    width = window_periods / 4 if width_periods is None else width_periods
    beam = gaussian_beam(PERIOD, window_periods, samples_per_period, width * PERIOD, LAM, power=1.5)
    return geom, mirror, beam


@settings(max_examples=20, deadline=None)
@given(hbar_over_pi=st.floats(min_value=0.1, max_value=2.0),
       window_periods=st.integers(min_value=8, max_value=96),
       samples_per_period=st.sampled_from([64, 65, 96, 128]),
       n_levels=st.sampled_from(["continuous", 4, 16]),
       n_kicks=st.integers(min_value=1, max_value=12))
def test_bounce_equals_step_composition_bitwise(hbar_over_pi, window_periods, samples_per_period,
                                                n_levels, n_kicks):
    # bitwise against the class-basis composition; the plane composition transforms the whole
    # window at once and rounds differently, so against it the bound is the 65,536-sample one
    geom, mirror, beam = bounce_case(hbar_over_pi * math.pi, window_periods, samples_per_period, n_levels)
    assert beam.samples.size < 16384
    image = bounce_simulation(geom, mirror, beam, n_kicks)
    assert np.array_equal(image.rows, class_stepwise_rows(geom, mirror, beam, n_kicks))
    assert np.max(np.abs(image.rows - stepwise_rows(geom, mirror, beam, n_kicks))) < 1e-14


def test_mirror_off_the_beam_grid_runs_as_classes(fft_calls):
    # a 64-sample mirror gathered onto every period of 128 samples would not repeat exactly (the
    # nearest-sample lookup rounds half-way points either way), but the mirror is looked up on
    # the first period only, so the beam still runs as classes, and apply_mirror repeats the
    # same period
    geom, _, beam = bounce_case(0.5 * math.pi, 16, 128)
    mirror = ratchet_mirror(RatchetPotential(), hbar_from_geometry(geom), LAM, PERIOD, 64)
    full = per_sample_reflection_factor(beam, mirror).reshape(16, 128)
    assert not (full == full[0]).all()
    image = bounce_simulation(geom, mirror, beam, 5)
    assert (fft_calls["fft"], fft_calls["ifft"]) == (5 + 1, 5 - 1)
    assert np.array_equal(image.rows, class_stepwise_rows(geom, mirror, beam, 5))
    assert np.max(np.abs(image.rows - stepwise_rows(geom, mirror, beam, 5))) < 1e-14


def test_bounce_matches_step_composition_at_65536_samples():
    # Above 256 KiB numpy evaluates apply_mirror's `samples * exp(...)` with the
    # temporary as the left operand, and complex SIMD multiply is not bitwise
    # commutative, so the large beam agrees to rounding only.
    geom, mirror, beam = bounce_case(0.5 * math.pi, 512, 128)
    image = bounce_simulation(geom, mirror, beam, 22)
    assert np.max(np.abs(image.rows - stepwise_rows(geom, mirror, beam, 22))) < 1e-14


@pytest.mark.parametrize("n_kicks", [1, 4])
def test_bounce_takes_one_fft_pair_per_bounce(n_kicks, fft_calls):
    geom, mirror, beam = bounce_case(0.5 * math.pi, 16, 64)
    bounce_simulation(geom, mirror, beam, n_kicks)
    # one more forward transform than bounces: the split into quasimomentum classes
    assert (fft_calls["fft"], fft_calls["ifft"]) == (n_kicks + 1, n_kicks - 1)


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


def test_cli_optical_odd_window_equals_step_composition_bytes(tmp_path):
    # 9 periods x 65 samples: an odd n, so the focal-plane half swap is uneven, and n//2 is
    # not a multiple of the 9 classes, so the classes' lines land in the window unevenly too
    from ratchet_lab.cli import main
    from ratchet_lab.config import parse_config
    from ratchet_lab.experiments import write_panel

    flags = {"hbar": "0.35pi", "beam_periods": "9", "beam_points_per_period": "65"}
    assert main(["optical", *(f"--{k}={v}" for k, v in flags.items()), "--out", str(tmp_path / "cli")]) == 0
    cfg = parse_config("", flags)
    geom = cfg.geometry(distance=distance_for_hbar(EffectivePlanck(cfg.hbar), cfg.wavelength, cfg.period))
    mirror = ratchet_mirror(cfg.potential(), EffectivePlanck(cfg.hbar), cfg.wavelength, cfg.period,
                            cfg.beam_points_per_period, cfg.n_levels)
    beam = gaussian_beam(cfg.period, cfg.beam_periods, cfg.beam_points_per_period, cfg.beam_width,
                         cfg.wavelength)
    assert beam.samples.size == 585
    orders, sums = order_sums_reference(class_stepwise_squares(geom, mirror, beam, cfg.n_kicks))
    probs = sums * (1.0 / sums.sum(axis=1))[:, None]
    image = FarFieldImage(rows=class_stepwise_rows(geom, mirror, beam, cfg.n_kicks), window_periods=9,
                          ladders=MomentumLadder(0.0, orders, probs, hbar_from_geometry(geom)))
    ref = tmp_path / "ref"
    ref.mkdir()
    write_panel(ref / "orders.csv", ref / "ccd.pgm", image, cfg, [f"hbar={cfg.hbar!r} n_levels={cfg.n_levels}"])
    for name in ("orders.csv", "ccd.pgm"):
        assert (tmp_path / "cli" / name).read_bytes() == (ref / name).read_bytes(), name


@settings(max_examples=30, deadline=None)
@given(K=st.floats(min_value=0.0, max_value=3.0),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       phi=st.floats(min_value=0.0, max_value=2 * math.pi),
       levels=st.lists(st.sampled_from(["continuous", 2, 4, 8, 16, 64]), min_size=1, max_size=7),
       window_periods=st.integers(min_value=8, max_value=40),
       samples_per_period=st.sampled_from([64, 65, 96, 128]),
       n_kicks=st.integers(min_value=1, max_value=8),
       rows=st.integers(min_value=1, max_value=8))
def test_bounce_ladders_equal_single_runs_bitwise(K, alpha, phi, levels, window_periods, samples_per_period,
                                                  n_kicks, rows):
    pot = RatchetPotential(K=K, alpha=alpha, phi=phi)
    geom, _, beam = bounce_case(0.5 * math.pi, window_periods, samples_per_period, pot=pot)
    mirrors = [ratchet_mirror(pot, hbar_from_geometry(geom), LAM, PERIOD, samples_per_period, n_levels)
               for n_levels in levels]
    # chunks of `rows` mirrors: one row, uneven tails, or the whole batch
    with mock.patch("ratchet_lab.evolution.BATCH_CELLS", rows * beam.samples.size):
        batched = bounce_ladders(geom, mirrors, beam, n_kicks)
    assert len(batched) == len(mirrors)
    assert not batched[0].orders.flags.writeable
    for mirror, got in zip(mirrors, batched):
        (want,) = bounce_ladders(geom, [mirror], beam, n_kicks)
        carried = bounce_simulation(geom, mirror, beam, n_kicks).ladders
        assert got.probabilities.shape == (n_kicks, got.orders.size)
        assert got.orders is batched[0].orders
        assert got.orders.tobytes() == want.orders.tobytes() == carried.orders.tobytes()
        assert got.probabilities.tobytes() == want.probabilities.tobytes() == carried.probabilities.tobytes()
        assert (got.beta, got.hbar, got.grid_periods) == (want.beta, want.hbar, want.grid_periods)
        assert (got.beta, got.hbar, got.grid_periods) == (carried.beta, carried.hbar, carried.grid_periods)


def order_sums_reference(squares):
    """Tests-only reference of the bounce tap's order sums of (rows, P, S) class-layout line
    powers (class r's line m is window line r + P*m): every line's order is rint(k/P) of its
    signed window line k, and each order adds, in this order, the classes below P/2 (one sum
    over the class axis), the classes above P/2 (another), then the tie class's odd signed
    line and its even one. Returns the ascending orders and the (rows, orders) sums."""
    rows, p, s = squares.shape
    n = p * s
    r = np.arange(p)
    k = r[:, None] + p * np.arange(s)[None, :]
    k = np.where(k < n - n // 2, k, k - n)
    order = np.rint(k / p).astype(int)
    lo = order.min()
    sums = np.zeros((rows, order.max() - lo + 1))
    for group in (2 * r < p, 2 * r > p):
        if group.any():
            lines = order[group]
            assert (lines == lines[0]).all() and np.unique(lines[0]).size == s  # one order a line
            # a slice, not a mask: numpy's reduction order follows the memory layout
            first, last = np.flatnonzero(group)[[0, -1]]
            assert group[first:last + 1].all()
            sums[:, lines[0] - lo] += squares[:, first:last + 1].sum(axis=1)
    if p % 2 == 0:
        tie = p // 2
        signed = (k[tie] - tie) // p
        for parity in (1, 0):
            lines = signed % 2 == parity
            sums[:, order[tie, lines] - lo] += squares[:, tie, lines]
    return np.arange(lo, order.max() + 1), sums


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(min_value=1, max_value=3),
       p_classes=st.integers(min_value=1, max_value=40),
       s=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_order_sums_equal_reference_bitwise(rows, p_classes, s, seed):
    # odd and even P (with and without the tie class) and odd and even S (where the classes
    # wrap to negative frequencies at different lines)
    import ratchet_lab.optics as optics

    squares = np.random.default_rng(seed).random((rows, p_classes, s))
    orders, want = order_sums_reference(squares)
    assert optics._window_orders(p_classes * s, p_classes).tobytes() == orders.tobytes()
    got = np.empty_like(want)
    totals = optics._order_sums(squares, got)
    assert got.tobytes() == want.tobytes()
    assert totals.tobytes() == want.sum(axis=1).tobytes()


@pytest.mark.parametrize("window_periods, samples_per_period, mirror_samples",
                         [(9, 65, 65), (8, 64, 64), (15, 64, 64), (12, 65, 65), (16, 128, 64)])
def test_bounce_ladders_tap_is_the_order_sum_reference_bitwise(monkeypatch, window_periods,
                                                                 samples_per_period, mirror_samples):
    # every ladder is the reference sum of the tapped spectrum's class squares, scaled to unit
    # sum; a 64-sample mirror on 128 samples a period is off the beam grid, and that beam runs
    # as window_periods classes too
    import ratchet_lab.evolution as evolution

    geom, _, beam = bounce_case(0.35 * math.pi, window_periods, samples_per_period)
    hbar = hbar_from_geometry(geom)
    mirrors = [ratchet_mirror(RatchetPotential(), hbar, LAM, PERIOD, mirror_samples, n_levels)
               for n_levels in ("continuous", 4, 16)]
    split_step = evolution._split_step
    taps = []

    def recorded(*args, **kwargs):
        for lo, k, spectrum, probs in split_step(*args, **kwargs):
            squares = np.abs(spectrum) ** 2
            assert squares.shape[1:] == (window_periods, samples_per_period)
            orders, sums = order_sums_reference(squares)
            taps.append((orders, sums * (1.0 / sums.sum(axis=1))[:, None]))
            yield lo, k, spectrum, probs

    monkeypatch.setattr(evolution, "_split_step", recorded)
    ladders = bounce_ladders(geom, mirrors, beam, 4)
    assert len(taps) == 4
    for mirror, stack in enumerate(ladders):
        for row, (orders, probs) in zip(stack.probabilities, taps):
            assert stack.orders.tobytes() == orders.tobytes()
            assert row.tobytes() == probs[mirror].tobytes()


# --- kept quasimomentum classes ---------------------------------------------------


def kept_classes_of(samples, periods):
    """(class weights, kept classes, dropped relative weight) of window samples over `periods`,
    as the core picks them."""
    import ratchet_lab.evolution as evolution

    weights = np.sum(np.abs(evolution._period_spectrum(samples, periods)) ** 2, axis=1)
    return (weights, *evolution._kept_classes(weights))


def beam_certificate_run(width_periods, window_periods):
    """(samples, P, 22-bounce ladder stack, reference orders and ladders) of a beam run; the
    reference composes every class."""
    geom, mirror, beam = bounce_case(0.5 * math.pi, window_periods, 128, width_periods=width_periods)
    (ladders,) = bounce_ladders(geom, [mirror], beam, 22)
    orders, sums = order_sums_reference(class_stepwise_squares(geom, mirror, beam, 22))
    return beam.samples, window_periods, ladders, orders, sums * (1.0 / sums.sum(axis=1))[:, None]


def quantum_certificate_run(periods, order_amps):
    """(samples, P, 22-kick ladder stack, reference orders and ladders) of a quantum run from
    the ladder rungs `order_amps` (rung o is in class o mod P); the reference is the step
    composition over the whole window, which never splits."""
    from ratchet_lab.evolution import KickedRunParams, evolve, free_step, state_from_orders

    pot, hbar = RatchetPotential(), EffectivePlanck(0.35 * math.pi)
    state = start = state_from_orders(SpatialGrid(periods, 64), order_amps, beta=0.15)
    rows, full = [], []
    evolve(state, KickedRunParams(pot, hbar, 22), lambda k, lad: rows.append(lad))
    for _ in range(22):
        state = kick_step(state, pot, hbar)
        full.append(momentum_spectrum(state).probabilities)
        state = free_step(state, hbar)
    ladders = MomentumLadder(start.beta, rows[0].orders, np.stack([lad.probabilities for lad in rows]))
    return start.amplitudes, periods, ladders, rows[0].orders, np.stack(full)


@pytest.mark.parametrize("run, args, kept", [
    pytest.param(beam_certificate_run, (1, 16), 16, id="1-16-16"),
    pytest.param(beam_certificate_run, (5, 64), 33, id="5-64-33"),
    pytest.param(beam_certificate_run, (64, 512), 21, id="64-512-21"),
    # one class of each state weighs near the tolerance, and is dropped
    pytest.param(quantum_certificate_run, (4, {0: 1.0, 1: 0.6j, -1: 2e-8}), 2, id="quantum-4-2"),
    pytest.param(quantum_certificate_run, (16, {0: 1.0, -3: 0.5, 5: 0.3j, 9: 1.5e-8, 25: 1e-8}), 3,
                 id="quantum-16-3"),
])
def test_kept_classes_hold_every_ladder_within_the_certificate(run, args, kept):
    # Dropping classes of relative weight delta moves each unit-sum ladder entry by at most
    # delta/(1 - delta) beyond rounding, at every bounce or kick: checked against the run of
    # every class. The kept set is the smallest whose dropped weight is within the tolerance.
    import ratchet_lab.evolution as evolution

    samples, periods, ladders, orders, full = run(*args)
    weights, keep, dropped = kept_classes_of(samples, periods)
    assert keep.size == kept
    rest = np.setdiff1d(np.arange(periods), keep)
    delta = weights[rest].sum() / weights.sum()
    assert delta <= evolution.CLASS_DROP_TOL
    assert dropped == pytest.approx(delta, rel=1e-9, abs=0.0)
    assert weights[rest].sum() + weights[keep].min() > evolution.CLASS_DROP_TOL * weights.sum()
    bound = delta / (1.0 - delta) + 1e-15
    assert ladders.probabilities.shape == full.shape == (22, orders.size)
    assert ladders.orders.tobytes() == orders.tobytes()
    assert np.max(np.abs(ladders.probabilities - full)) <= bound


def test_bounce_image_runs_the_kept_classes_bitwise():
    # the default beam keeps 33 of its 64 classes: the image is bitwise the composition of the
    # kept classes, with exact zeros on the dropped classes' lines, and carries the ladders
    # bounce_ladders gives for the same mirror in a batch
    geom, mirror, beam = bounce_case(0.35 * math.pi, 64, 128, width_periods=5)
    _, keep, dropped = kept_classes_of(beam.samples, 64)
    assert keep.size == 33 and dropped > 0.0
    image = bounce_simulation(geom, mirror, beam, 6)
    assert np.array_equal(image.rows, class_stepwise_rows(geom, mirror, beam, 6, keep))
    n = beam.samples.size
    rest = np.setdiff1d(np.arange(64), keep)
    assert not image.rows[:, (rest[:, None] + 64 * np.arange(128) + n // 2) % n].any()
    others = [ratchet_mirror(RatchetPotential(), hbar_from_geometry(geom), LAM, PERIOD, 128, n_levels)
              for n_levels in (4, 16)]
    batched = bounce_ladders(geom, [*others, mirror], beam, 6)
    assert image.ladders.orders.tobytes() == batched[-1].orders.tobytes()
    assert image.ladders.probabilities.tobytes() == batched[-1].probabilities.tobytes()


@pytest.mark.parametrize("window_periods, samples_per_period, width_periods",
                         [(16, 64, 0.5), (9, 65, 5.0)])
def test_bounce_that_drops_nothing_is_the_full_class_composition_bitwise(window_periods, samples_per_period,
                                                                         width_periods):
    # a beam narrower than a period, and the odd 9 x 65 layout, keep every class, and their
    # ladders are bitwise the full-class reference
    geom, mirror, beam = bounce_case(0.35 * math.pi, window_periods, samples_per_period,
                                     width_periods=width_periods)
    _, keep, dropped = kept_classes_of(beam.samples, window_periods)
    assert keep.tolist() == list(range(window_periods)) and dropped == 0.0
    (ladders,) = bounce_ladders(geom, [mirror], beam, 8)
    orders, sums = order_sums_reference(class_stepwise_squares(geom, mirror, beam, 8))
    assert ladders.orders.tobytes() == orders.tobytes()
    assert ladders.probabilities.tobytes() == (sums * (1.0 / sums.sum(axis=1))[:, None]).tobytes()


def test_plane_wave_beam_runs_class_zero_alone(pot, hbar_res):
    # class 0 alone is the plane wave at zero quasimomentum: its bounce is the quantum run on
    # one period of the same samples, to rounding
    from ratchet_lab.evolution import KickedRunParams, evolve

    geom = OpticalGeometry(LAM, PERIOD, distance_for_hbar(hbar_res, LAM, PERIOD))
    mirror = ratchet_mirror(pot, hbar_from_geometry(geom), LAM, PERIOD, 128)
    for periods in (8, 9, 16):
        beam = plane_wave_beam(PERIOD, periods, 128, LAM)
        weights, keep, dropped = kept_classes_of(beam.samples, periods)
        assert keep.tolist() == [0] and dropped <= 1e-30
        (optical,) = bounce_ladders(geom, [mirror], beam, 12)
        quantum = []
        evolve(plane_wave(SpatialGrid(1, 128)), KickedRunParams(pot, hbar_from_geometry(geom), 12),
               lambda k, lad: quantum.append(dict(zip(lad.orders.tolist(), lad.probabilities.tolist()))))
        for o, q in zip(optical.probabilities, quantum):
            assert max(abs(p - q.get(n, 0.0)) for n, p in zip(optical.orders.tolist(), o.tolist())) < 1e-12


@pytest.mark.parametrize("window_periods, samples_per_period, width_periods",
                         [(16, 64, None), (9, 65, 5.0), (512, 128, 64)])
def test_kept_class_setup_is_the_window_wide_one_gathered_bitwise(window_periods, samples_per_period,
                                                                  width_periods):
    # the class phase factor and the Fresnel kernel built for some classes only are bitwise the
    # window-wide ones (the (P, S) phase over every class, `np.fft.fftfreq` over every line)
    # gathered at those classes; on the odd 9 x 65 window line 292 = 4 + 9*32 is the last one
    # counted non-negative
    import ratchet_lab.evolution as evolution
    import ratchet_lab.optics as optics

    geom, _, beam = bounce_case(0.5 * math.pi, window_periods, samples_per_period, width_periods=width_periods)
    n, periods, s = beam.samples.size, window_periods, samples_per_period
    spectrum = evolution._period_spectrum(beam.samples, periods)
    # in place, the spectrum the left operand: complex SIMD multiply is not bitwise commutative,
    # and numpy may compute `spectrum * <temporary>` in the temporary's buffer, operands swapped
    phased = spectrum.copy()
    phased *= np.exp((-2j * math.pi / n) * np.outer(np.arange(periods), np.arange(s)))
    fx = np.fft.fftfreq(n, d=beam.dx)
    window_kernel = np.exp(-1j * math.pi * beam.wavelength_m * geom.distance_m * fx * fx)
    assert optics._fresnel_kernel(beam, geom.distance_m).tobytes() == window_kernel.tobytes()
    _, keep, _ = kept_classes_of(beam.samples, periods)
    for classes in (keep, np.arange(periods), np.arange(1, periods, 3)):
        lines = classes[:, None] + periods * np.arange(s)
        assert evolution._class_field(spectrum, classes).tobytes() == phased[classes].tobytes()
        got = optics._fresnel_kernel(beam, geom.distance_m, lines)
        assert got.shape == (classes.size, s)
        assert got.tobytes() == window_kernel.reshape(s, periods).T[classes].tobytes()
    assert keep.size == {16: 16, 9: 9, 512: 21}[periods]


def test_kept_classes_break_ties_by_index():
    import ratchet_lab.evolution as evolution

    # three equal light classes, of which the tolerance lets one go: the lowest index
    weights = np.array([1.0, 6e-16, 6e-16, 6e-16])
    for _ in range(2):
        keep, dropped = evolution._kept_classes(weights)
        assert keep.tolist() == [0, 2, 3] and dropped == 6e-16 / weights.sum()
    # equal heavy classes all stay, and empty classes all go
    keep, dropped = evolution._kept_classes(np.array([0.0, 0.25, 0.0, 0.25, 0.25, 0.25]))
    assert keep.tolist() == [1, 3, 4, 5] and dropped == 0.0


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 1e-18, 3e-16, 1e-15, 1e-3, 0.5, 1.0])
                        | st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40)
       .filter(lambda w: max(w) > 0))
def test_kept_classes_are_the_smallest_sorted_set_within_the_tolerance(weights):
    import ratchet_lab.evolution as evolution

    weights = np.array(weights)
    keep, dropped = evolution._kept_classes(weights)
    assert keep.size >= 1 and np.all(np.diff(keep) > 0) and 0 <= keep[0] and keep[-1] < weights.size
    rest = np.setdiff1d(np.arange(weights.size), keep)
    total = weights.sum()
    assert weights[rest].sum() <= evolution.CLASS_DROP_TOL * total * (1 + 1e-9)
    assert dropped == pytest.approx(weights[rest].sum() / total, rel=1e-9, abs=0.0)
    # one more kept class, the lightest, would overflow the tolerance
    assert weights[rest].sum() + weights[keep].min() > evolution.CLASS_DROP_TOL * total * (1 - 1e-9)
    assert keep.tobytes() == evolution._kept_classes(weights)[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(min_value=1, max_value=3),
       p_classes=st.integers(min_value=1, max_value=40),
       s=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_order_sums_of_kept_classes_equal_the_zero_filled_reference_bitwise(rows, p_classes, s, seed):
    # the sums of a sorted subset of the classes are bitwise those of the full layout with the
    # other classes' lines zero: numpy adds the class axis one class at a time, and adding an
    # exact zero changes no sum (with S = 1 the class axis is contiguous and summed pairwise,
    # where zeros regroup the additions; a beam has S >= 64)
    import ratchet_lab.optics as optics

    rng = np.random.default_rng(seed)
    squares = rng.random((rows, p_classes, s))
    keep = np.flatnonzero(rng.random(p_classes) < rng.random())
    if not keep.size:
        keep = np.array([rng.integers(p_classes)])
    full = np.zeros_like(squares)
    full[:, keep] = squares[:, keep]
    _orders, want = order_sums_reference(full)
    got = np.full_like(want, np.nan)
    totals = optics._order_sums(np.ascontiguousarray(squares[:, keep]), got, keep, p_classes)
    assert got.tobytes() == want.tobytes()
    assert totals.tobytes() == want.sum(axis=1).tobytes()


@pytest.mark.parametrize("rows", [1, 4])
def test_bounce_batch_guard_names_the_row(monkeypatch, tmp_path, capsys, rows):
    import ratchet_lab.evolution as evolution
    import ratchet_lab.optics as optics
    from ratchet_lab.cli import main

    def lossy(mirror, wavelength_m):
        phase = phase_from_depth(mirror, wavelength_m)
        return phase + 1e-3j if mirror.n_levels == 16 else phase

    monkeypatch.setattr(optics, "phase_from_depth", lossy)
    geom, _, beam = bounce_case(0.5 * math.pi, 16, 64)
    monkeypatch.setattr(evolution, "BATCH_CELLS", rows * beam.samples.size)
    mirrors = [ratchet_mirror(RatchetPotential(), hbar_from_geometry(geom), LAM, PERIOD, 64, n_levels)
               for n_levels in ("continuous", 4, 16, 64)]
    expected = r"^bounce run n_levels=16: beam power drifted by .* \(relative\) at bounce 1$"
    with pytest.raises(NumericalFailure, match=expected):
        bounce_ladders(geom, mirrors, beam, 3)
    out = tmp_path / "compare"
    assert main(["compare", "--hbar=0.5pi", "--n_kicks=3", "--beam_periods=16",
                 "--beam_points_per_period=64", "--out", str(out)]) == 3
    assert "numerical failure: bounce run n_levels=16: beam power drifted" in capsys.readouterr().err
    assert not (out / "compare_engines.csv").exists()


def test_class_layout_batch_guard_names_the_row(monkeypatch):
    import ratchet_lab.optics as optics

    def lossy(mirror, wavelength_m):
        phase = phase_from_depth(mirror, wavelength_m)
        return phase + 1e-3j if mirror.n_levels == 16 else phase

    monkeypatch.setattr(optics, "phase_from_depth", lossy)
    geom, _, beam = bounce_case(0.5 * math.pi, 9, 65)
    mirrors = [ratchet_mirror(RatchetPotential(), hbar_from_geometry(geom), LAM, PERIOD, 65, n_levels)
               for n_levels in ("continuous", 4, 16, 64)]
    assert [optics._reflection_factor(beam, mirror).shape for mirror in mirrors] == [(65,)] * 4
    expected = r"^bounce run n_levels=16: beam power drifted by .* \(relative\) at bounce 1$"
    with pytest.raises(NumericalFailure, match=expected):
        bounce_ladders(geom, mirrors, beam, 3)


@settings(max_examples=25, deadline=None)
@given(K=st.floats(min_value=0.0, max_value=2.0),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       phi=st.floats(min_value=0.0, max_value=2 * math.pi),
       hbar_over_pi=st.sampled_from([0.5, 1.0, 1.5, 2.0]) | st.floats(min_value=0.05, max_value=2.0),
       window_periods=st.integers(min_value=8, max_value=64),
       samples_per_period=st.sampled_from([64, 96, 128]),
       n_kicks=st.integers(min_value=1, max_value=30),
       width_periods=st.floats(min_value=0.5, max_value=16.0))
def test_quantum_run_from_the_beam_state_matches_the_bounce(K, alpha, phi, hbar_over_pi, window_periods,
                                                            samples_per_period, n_kicks, width_periods):
    # Started from the beam's own field, the quantum engine must give the beam
    # engine's order ladders to rounding at every kick: their whole plane-wave
    # gap is the beam's finite width. Limits: even samples per period only,
    # since SpatialGrid rejects odd ones, and the continuous mirror only, since
    # a quantized mirror's kick is not the quantum engine's kick.
    import ratchet_lab.optics as optics
    from ratchet_lab.evolution import KickedRunParams, WaveState, evolve

    pot = RatchetPotential(K=K, alpha=alpha, phi=phi)
    hbar = EffectivePlanck(hbar_over_pi * math.pi)
    geom = OpticalGeometry(LAM, PERIOD, distance_for_hbar(hbar, LAM, PERIOD))
    mirror = ratchet_mirror(pot, hbar_from_geometry(geom), LAM, PERIOD, samples_per_period)
    beam = gaussian_beam(PERIOD, window_periods, samples_per_period, width_periods * PERIOD, LAM)
    grid = SpatialGrid(window_periods, samples_per_period)
    n = grid.n
    amplitudes = np.roll(beam.samples, -n // 2)  # beam x = 0 sits at index n//2, the grid's at 0
    amplitudes /= math.sqrt(np.sum(np.abs(amplitudes) ** 2) * grid.dx)
    quantum = []
    evolve(WaveState(grid, amplitudes), KickedRunParams(pot, hbar_from_geometry(geom), n_kicks),
           lambda k, lad: quantum.append(lad))
    (optical,) = bounce_ladders(geom, [mirror], beam, n_kicks)
    assert len(quantum) == len(optical.probabilities) == n_kicks
    for q, o in zip(quantum, optical.probabilities):
        orders, probs = per_row_bin_orders(q.probabilities, window_periods)
        assert np.array_equal(optical.orders, orders)
        assert np.max(np.abs(probs - o)) <= 1e-12


CLASS_SHAPES = {65536: (512, 128), 585: (9, 65)}  # (P, S) of the compare beam and the odd beam


@pytest.mark.parametrize("m", [1, 3, 7])
@pytest.mark.parametrize("n", [256, 585, 8192, 65536])
def test_batched_in_place_fft_equals_per_row_bitwise(n, m):
    # the engines transform (rows, n) batches in place, and the beam engine
    # (rows, P, S) class batches along S; a numpy upgrade that broke this
    # equality would move artifact bits
    rng = np.random.default_rng(n + m)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    for transform in (np.fft.fft, np.fft.ifft):
        in_place = a.copy()
        transform(in_place, out=in_place)
        for batch in (transform(a), in_place):
            for row, ref in zip(batch, a):
                assert row.tobytes() == transform(ref).tobytes()
    if n in CLASS_SHAPES:
        classes = a.reshape(m, *CLASS_SHAPES[n])
        for transform in (np.fft.fft, np.fft.ifft):
            in_place = classes.copy()
            transform(in_place, out=in_place)
            for batch, field in zip(in_place, classes):
                for row, ref in zip(batch, field):
                    assert row.tobytes() == transform(ref).tobytes()


def test_bounce_correspondence_moderate_beam(pot, hbar_res):
    from ratchet_lab.evolution import KickedRunParams, evolve

    distance = distance_for_hbar(hbar_res, LAM, PERIOD)
    geom = OpticalGeometry(LAM, PERIOD, distance)
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


@settings(max_examples=30, deadline=None)
@given(hbar_over_pi=st.floats(min_value=0.1, max_value=2.0),
       window_periods=st.integers(min_value=8, max_value=25),
       samples_per_period=st.sampled_from([64, 65, 96, 127]),
       n_levels=st.sampled_from(["continuous", 4, 16]),
       n_kicks=st.integers(min_value=1, max_value=6))
def test_image_ladders_match_per_row_binning(hbar_over_pi, window_periods, samples_per_period, n_levels,
                                             n_kicks):
    # odd and even P and S: the ladders an image carries are summed from its tap's class squares,
    # its rows fftshifted from the same squares, so binning each row column by column gives the
    # carried ladder to rounding, and the one-row reads are bitwise the carried ladders
    geom, mirror, beam = bounce_case(hbar_over_pi * math.pi, window_periods, samples_per_period, n_levels)
    image = bounce_simulation(geom, mirror, beam, n_kicks)
    stack = image.ladders
    assert stack.probabilities.shape == (n_kicks, stack.orders.size)
    assert not stack.orders.flags.writeable
    assert (stack.beta, stack.hbar, stack.grid_periods) == (0.0, hbar_from_geometry(geom), 1)
    for k, row in enumerate(stack.probabilities, start=1):
        orders, probs = per_row_bin_orders(image.rows[k - 1], window_periods)
        assert stack.orders.dtype == orders.dtype and stack.orders.tobytes() == orders.tobytes()
        assert np.max(np.abs(row - probs)) <= 1e-15
        one_orders, one_probs = row_order_probabilities(image, k)
        assert one_orders.tobytes() == orders.tobytes()
        assert one_probs.tobytes() == row.tobytes()
        ladder = row_order_ladder(image, k)
        assert ladder.orders is stack.orders and ladder.probabilities.tobytes() == row.tobytes()
        assert (ladder.beta, ladder.hbar, ladder.grid_periods) == (stack.beta, stack.hbar, stack.grid_periods)


@pytest.mark.parametrize("read", [row_order_probabilities, row_order_ladder])
@pytest.mark.parametrize("kick", [0, -1, 6])
def test_row_order_reads_refuse_a_kick_outside_the_image(read, kick):
    geom, mirror, beam = bounce_case(0.5 * math.pi, 8, 64)
    image = bounce_simulation(geom, mirror, beam, 5)
    with pytest.raises(ValueError, match=rf"kick must lie in 1\.\.5, got {kick}"):
        read(image, kick)


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
    img = FarFieldImage(rows=np.array([[0.2, 0.2, 0.2, 0.2]]), window_periods=1, ladders=[])
    raster = render_ccd(img, gamma=1.0)
    assert np.all(raster == 255)
    img2 = FarFieldImage(rows=np.array([[0.0, 0.5, 0.0, 0.5]]), window_periods=1, ladders=[])
    raster2 = render_ccd(img2, gamma=1.0)
    assert list(raster2[0]) == [0, 255, 0, 255]
    with pytest.raises(ValueError):
        render_ccd(img2, gamma=0.0)


def per_row_render_ccd(image, gamma):
    """render_ccd as a loop over rows, the reference for the array form."""
    out = np.zeros(image.rows.shape, dtype=np.uint8)
    for i, row in enumerate(image.rows):
        peak = row.max()
        if peak > 0:
            out[i] = np.rint(255.0 * (row / peak) ** gamma).astype(np.uint8)
    return out


@pytest.mark.parametrize("gamma", [1.0, 0.5, 2.2])
def test_render_ccd_equals_per_row_loop_bitwise(gamma):
    rng = np.random.default_rng(7)
    rows = rng.random((12, 129)) ** 3
    rows[3] = 0.0  # zero-peak rows stay 0, with no RuntimeWarning (an error under pytest)
    rows[7, ::2] = 0.0
    rows[9] *= 1e-300
    image = FarFieldImage(rows=rows, window_periods=2, ladders=[])
    raster = render_ccd(image, gamma)
    assert raster.dtype == np.uint8
    assert not raster[3].any()
    assert raster.tobytes() == per_row_render_ccd(image, gamma).tobytes()


NON_FINITE_GUARDS = {
    "propagate_fresnel-distance": lambda value: propagate_fresnel(plane_wave_beam(PERIOD, 8, 64, LAM), value),
    "far_field-focal_m": lambda value: far_field(plane_wave_beam(PERIOD, 8, 64, LAM), value),
    "render_ccd-gamma": lambda value: render_ccd(
        FarFieldImage(rows=np.array([[0.0, 0.5, 0.0, 0.5]]), window_periods=1, ladders=[]), value),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("guard", list(NON_FINITE_GUARDS))
def test_non_finite_arguments_are_refused(guard, value):
    # a NaN slips past a bare sign check: an all-NaN field, a NaN pixel pitch, garbage bytes
    with pytest.raises(ValueError, match="must be finite"):
        NON_FINITE_GUARDS[guard](value)


def per_sample_reflection_factor(field, mirror):
    """Mirror factor with exp taken after the nearest-sample gather, the reference for the gathered form."""
    n_mirror = mirror.depth_samples.size
    idx = np.mod(np.rint(field.x / (mirror.period_m / n_mirror)).astype(int), n_mirror)
    return np.exp(1j * phase_from_depth(mirror, field.wavelength_m)[idx])


@pytest.mark.parametrize("window_periods, samples_per_period, mirror_samples",
                         [(512, 128, 128), (9, 65, 65), (16, 96, 128)])
def test_reflection_factor_equals_exp_after_gather_bitwise(pot, window_periods, samples_per_period,
                                                           mirror_samples):
    from ratchet_lab.optics import _reflection_factor

    geom, _, beam = bounce_case(0.5 * math.pi, window_periods, samples_per_period, pot=pot)
    for n_levels in ("continuous", 2, 4, 8, 16, 32, 64):
        mirror = ratchet_mirror(pot, hbar_from_geometry(geom), LAM, PERIOD, mirror_samples, n_levels)
        got = _reflection_factor(beam, mirror)
        want = per_sample_reflection_factor(beam, mirror)[:samples_per_period]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n_levels


def test_quantized_mirror_converges_monotone_16_vs_8(pot, hbar_res):
    distance = distance_for_hbar(hbar_res, LAM, PERIOD)
    geom = OpticalGeometry(LAM, PERIOD, distance)
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
