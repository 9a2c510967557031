import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from ratchet_lab.evolution import (
    KickedRunParams,
    MomentumLadder,
    NumericalFailure,
    SpatialGrid,
    WaveState,
    _class_power,
    _orders,
    _spectrum_power,
    evolve,
    free_step,
    kick_step,
    ladder_record,
    momentum_spectrum,
    plane_wave,
    scan_probabilities,
    state_from_orders,
)
from ratchet_lab.config import parse_config
from ratchet_lab.experiments import _scan_abs_mean_p, run_fig4
from ratchet_lab.model import EffectivePlanck, RatchetPotential, kick_phase_profile
from ratchet_lab.observables import mean_momentum


GRID = SpatialGrid(1, 256)


def ladder_dict(ladder: MomentumLadder) -> dict[int, float]:
    return dict(zip(ladder.orders.tolist(), ladder.probabilities.tolist()))


def scan_ladders(grid, beta, runs, kicks_at):
    """(run index, kick, ladder) of each row of `scan_probabilities`, the ladders sharing one orders array."""
    orders = _orders(grid)
    for lo, k, probs in scan_probabilities(grid, beta, runs, kicks_at):
        for i, row in enumerate(probs, start=lo):
            yield i, k, MomentumLadder(beta, orders, row.copy(), runs[i][1], grid.periods)


# --- grid / state types ------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(1, 255)  # odd
    with pytest.raises(ValueError):
        SpatialGrid(1, 16)  # fewer than 32 points
    with pytest.raises(ValueError):
        SpatialGrid(0, 64)


def test_state_norm_guard():
    u = np.ones(GRID.n, dtype=complex)  # not normalized
    with pytest.raises(NumericalFailure):
        WaveState(grid=GRID, amplitudes=u)


def test_state_nan_norm_fails_the_guard():
    with pytest.raises(NumericalFailure, match="state norm off unity by nan"):
        WaveState(grid=GRID, amplitudes=np.full(GRID.n, np.nan, dtype=complex))


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]])
def test_ladder_rejects_non_finite_probabilities(probs):
    with pytest.raises(ValueError):
        MomentumLadder(beta=0.0, orders=np.arange(len(probs)), probabilities=probs)


def test_state_beta_range():
    with pytest.raises(ValueError):
        plane_wave(GRID, beta=1.0)


# --- kick step ---------------------------------------------------------------

def test_kick_zero_strength_is_identity(hbar_res):
    state = plane_wave(GRID)
    kicked = kick_step(state, RatchetPotential(K=0.0), hbar_res)
    assert np.array_equal(kicked.amplitudes, state.amplitudes)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_single_kick_bessel_ladder(kappa):
    # exp(-i*kappa*sin x) has order amplitudes J_n(kappa) up to signs
    state = kick_step(plane_wave(GRID), RatchetPotential(K=kappa, alpha=0.0),
                      EffectivePlanck(1.0))
    probs = ladder_dict(momentum_spectrum(state))
    for n in range(-60, 61):
        assert probs[n] == pytest.approx(jv(n, kappa) ** 2, abs=1e-12)


def test_integer_ramp_shifts_ladder():
    # multiply by exp(i*m*x): Fourier shift theorem moves every order by m
    m = 3
    base = state_from_orders(GRID, {0: 1.0, 1: 0.5j, -2: 0.25})
    before = ladder_dict(momentum_spectrum(base))
    shifted = WaveState(grid=GRID, amplitudes=base.amplitudes * np.exp(1j * m * GRID.x))
    after = ladder_dict(momentum_spectrum(shifted))
    for n in (-2, 0, 1):
        assert after[n + m] == pytest.approx(before[n], abs=1e-13)


# --- free step ---------------------------------------------------------------

def test_free_step_plane_wave_invariant(hbar_res):
    state = plane_wave(GRID)
    out = free_step(state, hbar_res)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-14


def test_free_step_full_revival_at_4pi():
    state = state_from_orders(GRID, {0: 1.0, 3: 0.7, -5: 0.2j})
    out = free_step(state, EffectivePlanck(4 * math.pi))
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_free_step_single_order_phase():
    # order n=1 at hbar=pi picks up exp(-i*pi/2) = -i
    state = plane_wave(GRID, order=1)
    out = free_step(state, EffectivePlanck(math.pi))
    ratio = out.amplitudes[1] / state.amplitudes[1]
    assert ratio == pytest.approx(-1j, abs=1e-12)


def test_free_step_beta_enters_diagonal():
    beta = 0.25
    state = plane_wave(GRID, beta=beta)
    out = free_step(state, EffectivePlanck(1.0))
    ratio = out.amplitudes[0] / state.amplitudes[0]
    assert ratio == pytest.approx(np.exp(-0.5j * beta**2), abs=1e-12)


# --- evolve ------------------------------------------------------------------

def test_evolve_one_period_is_kick_then_free(pot, hbar_res):
    params = KickedRunParams(pot, hbar_res, 1)
    via_evolve = evolve(plane_wave(GRID), params)
    manual = free_step(kick_step(plane_wave(GRID), pot, hbar_res), hbar_res)
    assert np.array_equal(via_evolve.amplitudes, manual.amplitudes)
    assert via_evolve.kick_count == 1


@settings(max_examples=40, deadline=None)
@given(k=st.floats(min_value=0.0, max_value=5.0),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       phi=st.floats(min_value=0.0, max_value=2 * math.pi),
       hbar_eff=st.floats(min_value=1e-2, max_value=4 * math.pi),
       beta=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       n_kicks=st.integers(min_value=1, max_value=30))
def test_evolve_equals_step_composition_bitwise(k, alpha, phi, hbar_eff, beta, n_kicks):
    pot = RatchetPotential(K=k, alpha=alpha, phi=phi)
    hbar = EffectivePlanck(hbar_eff)
    tapped = []
    out = evolve(plane_wave(GRID, beta=beta), KickedRunParams(pot, hbar, n_kicks),
                 lambda kick, lad: tapped.append((kick, lad)))
    state = plane_wave(GRID, beta=beta)
    for kick in range(1, n_kicks + 1):
        state = kick_step(state, pot, hbar)
        reference = momentum_spectrum(state, hbar)
        assert tapped[kick - 1][0] == kick
        assert np.array_equal(tapped[kick - 1][1].probabilities, reference.probabilities)
        assert np.array_equal(tapped[kick - 1][1].orders, reference.orders)
        state = free_step(state, hbar)
    assert np.array_equal(out.amplitudes, state.amplitudes)
    assert out.kick_count == n_kicks


@settings(max_examples=16, deadline=None)
@given(k=st.floats(min_value=0.05, max_value=0.3),
       alpha=st.floats(min_value=0.1, max_value=1.0),
       phi=st.floats(min_value=0.0, max_value=2 * math.pi),
       n_kicks=st.integers(min_value=1000, max_value=2000),
       second_harmonic=st.booleans())
def test_exact_resonances_match_closed_forms_over_long_runs(k, alpha, phi, n_kicks, second_harmonic):
    # hbar = 4pi: the flight is exactly 1, so n kicks are one kick of strength n*K; with
    # alpha = 0 rung m holds (-1)^m J_m(n*K/hbar). hbar = 2pi: the flight is (-1)^m, a
    # half-period shift, and v(x) + v(x + pi) = 2*alpha*sin(2x + phi), so 2j kicks are j
    # kicks of that pure second harmonic: only even rungs, m = 2l holding
    # (-1)^l J_l(2j*K*alpha/hbar) exp(i*l*phi).
    m = np.rint(GRID.mode_numbers).astype(int)  # FFT order
    if second_harmonic:
        hbar, pot = EffectivePlanck(2 * math.pi), RatchetPotential(k, alpha, phi)
        n_kicks -= n_kicks % 2
        l = m // 2
        bessel = jv(l, n_kicks * k * alpha / hbar.hbar_eff)
        rungs = np.where(m % 2 == 0, (-1.0) ** l * bessel * np.exp(1j * l * phi), 0)
    else:
        hbar, pot = EffectivePlanck(4 * math.pi), RatchetPotential(k, 0.0, phi)
        rungs = (-1.0) ** m * jv(m, n_kicks * k / hbar.hbar_eff)
    # the 256-point grid folds rungs past |m| = 128 back in, so keep runs that stay clear of its edge
    assume(np.sum(np.abs(rungs[np.abs(m) >= 96]) ** 2) < 1e-15)
    out = evolve(plane_wave(GRID), KickedRunParams(pot, hbar, n_kicks))
    ladder = momentum_spectrum(out)
    assert np.array_equal(ladder.orders, np.fft.fftshift(m))
    assert np.max(np.abs(ladder.probabilities - np.fft.fftshift(np.abs(rungs) ** 2))) <= 1e-13
    # a flight factor off by rounding (e.g. its phase not reduced mod 2pi) shows in the
    # rungs' phases first: 7e-13 to 1e-11 in these runs, against about 1e-15 in the probabilities
    amplitudes = np.fft.fft(out.amplitudes) * math.sqrt(2 * math.pi) / GRID.n
    assert np.max(np.abs(amplitudes - rungs)) <= 1e-13


def test_evolve_takes_two_ffts_per_kick(pot, hbar_res, fft_calls):
    # and one forward transform over the period axis that splits the state into its classes
    evolve(plane_wave(GRID), KickedRunParams(pot, hbar_res, 7), lambda k, lad: None)
    assert (fft_calls["fft"], fft_calls["ifft"]) == (1 + 7, 7)


def test_evolve_from_the_plane_wave_writes_zeros_on_the_other_classes(pot, hbar_res):
    # the plane wave is class 0 alone: every line of the classes r != 0 is an exact zero in
    # every recorded ladder, and class 0 is the one-period run to rounding
    grid = SpatialGrid(16, 256)
    ladders = []
    out = evolve(plane_wave(grid), KickedRunParams(pot, hbar_res, 22), lambda k, lad: ladders.append(lad))
    others = ladders[0].orders % 16 != 0
    assert others.sum() == 15 * 256
    for ladder in ladders:
        assert not ladder.probabilities[others].any()
    single = []
    evolve(plane_wave(SpatialGrid(1, 256)), KickedRunParams(pot, hbar_res, 22), lambda k, lad: single.append(lad))
    for ladder, one in zip(ladders, single):
        assert np.max(np.abs(ladder.probabilities[~others] - one.probabilities)) < 1e-14
    assert abs(out.norm - 1.0) < 1e-12


def test_evolve_norm_guard_names_the_kick(pot, hbar_res, monkeypatch):
    import ratchet_lab.evolution as evolution

    def lossy(p, h, x):
        return kick_phase_profile(p, h, x) + 1e-3j

    monkeypatch.setattr(evolution, "kick_phase_profile", lossy)
    with pytest.raises(NumericalFailure, match=r"^norm drifted by .* at kick 1$"):
        evolve(plane_wave(GRID), KickedRunParams(pot, hbar_res, 3))


def test_evolve_nan_norm_fails_the_guard(pot, hbar_res, monkeypatch):
    import ratchet_lab.evolution as evolution

    monkeypatch.setattr(evolution, "kick_phase_profile", lambda p, h, x: np.full(x.shape, np.nan))
    with pytest.raises(NumericalFailure, match=r"^norm drifted by nan at kick 1$"):
        evolve(plane_wave(GRID), KickedRunParams(pot, hbar_res, 3))


def test_ladders_of_a_run_share_one_read_only_orders_array(pot, hbar_res):
    grid = SpatialGrid(2, 50)
    single = []
    evolve(plane_wave(grid), KickedRunParams(pot, hbar_res, 4), lambda k, lad: single.append(lad))
    scanned = [lad for _run, _kick, lad in scan_ladders(grid, 0.25, [(pot, hbar_res)] * 3, (1, 2))]
    for ladders in (single, scanned):
        assert all(lad.orders is ladders[0].orders for lad in ladders)
        assert not ladders[0].orders.flags.writeable
        assert np.array_equal(ladders[0].orders, np.fft.fftshift(grid.mode_numbers))


def test_engines_leave_caller_arrays_unchanged(pot, hbar_res, monkeypatch):
    import ratchet_lab.evolution as evolution

    state = state_from_orders(GRID, {0: 1.0, 1: 0.5j}, beta=0.2)
    before = state.amplitudes.tobytes()
    evolve(state, KickedRunParams(pot, hbar_res, 5), lambda k, lad: None)
    assert state.amplitudes.tobytes() == before

    starts = []

    def recorded_plane_wave(grid, beta=0.0, order=0):
        starts.append(plane_wave(grid, beta, order))
        return starts[-1]

    monkeypatch.setattr(evolution, "plane_wave", recorded_plane_wave)
    list(scan_ladders(GRID, 0.2, [(pot, hbar_res)] * 3, (1, 4)))
    assert len(starts) == 1
    assert starts[0].amplitudes.tobytes() == plane_wave(GRID, 0.2).amplitudes.tobytes()


GRIDS = (GRID, SpatialGrid(1, 34), SpatialGrid(2, 50))


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from(GRIDS),
       runs=st.lists(st.tuples(st.floats(min_value=0.0, max_value=5.0),
                               st.floats(min_value=1e-2, max_value=4 * math.pi)),
                     min_size=1, max_size=8),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       phi=st.floats(min_value=0.0, max_value=2 * math.pi),
       beta=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       kicks_at=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
       rows=st.integers(min_value=1, max_value=9))
def test_scan_rows_equal_single_runs_bitwise(grid, runs, alpha, phi, beta, kicks_at, rows):
    runs = [(RatchetPotential(K=k, alpha=alpha, phi=phi), EffectivePlanck(h)) for k, h in runs]
    with mock.patch("ratchet_lab.evolution.BATCH_CELLS", rows * grid.n):
        batched = list(scan_ladders(grid, beta, runs, kicks_at))
        # the per-chunk reduction run_fig4 writes to fig4_scan.csv
        abs_mean_p = {(run, kick): value for run, kick, value in _scan_abs_mean_p(grid, beta, runs, kicks_at)}
    assert sorted((run, kick) for run, kick, _ in batched) == sorted(
        (run, kick) for run in range(len(runs)) for kick in set(kicks_at))
    assert sorted(abs_mean_p) == sorted((run, kick) for run, kick, _ in batched)
    for run, kick, ladder in batched:
        pot, hbar = runs[run]
        single = []
        evolve(plane_wave(grid, beta=beta), KickedRunParams(pot, hbar, kick),
               lambda k, lad: single.append(lad))
        assert np.array_equal(ladder.probabilities, single[-1].probabilities)
        assert abs_mean_p[run, kick] == abs(mean_momentum(single[-1]))
        assert np.array_equal(ladder.orders, single[-1].orders)
        assert (ladder.beta, ladder.hbar, ladder.grid_periods) == (beta, hbar, grid.periods)


@pytest.mark.parametrize("rows", [1, 4])
def test_scan_norm_guard_names_the_row(pot, monkeypatch, rows):
    import ratchet_lab.evolution as evolution

    lossy_hbar = 0.35 * math.pi

    def lossy(p, h, x):
        phase = kick_phase_profile(p, h, x)
        return phase + 1e-3j if h.hbar_eff == lossy_hbar else phase

    monkeypatch.setattr(evolution, "kick_phase_profile", lossy)
    monkeypatch.setattr(evolution, "BATCH_CELLS", rows * GRID.n)
    runs = [(pot, EffectivePlanck(h * math.pi)) for h in (0.25, 0.3, 0.35, 0.4)]
    expected = rf"^scan run hbar_eff={re.escape(repr(lossy_hbar))} K=1\.0: norm drifted by .* at kick 1$"
    with pytest.raises(NumericalFailure, match=expected):
        list(scan_ladders(GRID, 0.0, runs, (5,)))



def test_scan_without_kicks_names_kicks_at(pot, hbar_res):
    with pytest.raises(ValueError, match="^kicks_at must name at least one kick$"):
        list(scan_probabilities(GRID, 0.0, [(pot, hbar_res)], []))


def test_scan_norm_guard_reads_an_untapped_nan(pot, monkeypatch):
    import ratchet_lab.evolution as evolution

    def broken(p, h, x):
        phase = kick_phase_profile(p, h, x)
        return phase * np.nan if h.hbar_eff == 0.3 * math.pi else phase

    monkeypatch.setattr(evolution, "kick_phase_profile", broken)
    runs = [(pot, EffectivePlanck(h * math.pi)) for h in (0.25, 0.3)]
    with pytest.raises(NumericalFailure, match=r"K=1\.0: norm drifted by nan at kick 1$"):
        list(scan_probabilities(GRID, 0.0, runs, (5,)))


def test_scan_taps_only_its_kicks_and_guards_every_kick(tmp_path, monkeypatch):
    """At the default scan (100 runs, one chunk, kicks 21 and 5) the tap runs at kicks 5 and 21
    only; the drift guard reads the one-pass sum at the 19 others."""
    import ratchet_lab.evolution as evolution

    events = []
    split_step, spectrum_power = evolution._split_step, evolution._spectrum_power

    def spy_split_step(*args, tap=_class_power, **kwargs):
        def spy_tap(squares, rows, classes):
            events.append("tap")
            return tap(squares, rows, classes)

        for item in split_step(*args, tap=spy_tap, **kwargs):
            events.append(item[1])
            yield item

    def spy_spectrum_power(spectrum):
        events.append("untapped")
        return spectrum_power(spectrum)

    monkeypatch.setattr(evolution, "_split_step", spy_split_step)
    monkeypatch.setattr(evolution, "_spectrum_power", spy_spectrum_power)
    cfg = parse_config("", {"hbar": "0.5pi"})
    assert cfg.scan_kicks_at == (21, 5) and len(cfg.scan_hbar_values()) == 100
    run_fig4(cfg, tmp_path)
    assert events == ["untapped"] * 4 + ["tap", 5] + ["untapped"] * 15 + ["tap", 21]


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(min_value=1, max_value=4), p=st.integers(min_value=1, max_value=8),
       s=st.integers(min_value=1, max_value=300), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_untapped_totals_are_the_spectrum_power(rows, p, s, seed):
    rng = np.random.default_rng(seed)
    # a leading slice of a larger buffer, as the core's chunks are
    buffer = rng.normal(size=(rows + 1, p, s)) + 1j * rng.normal(size=(rows + 1, p, s))
    spectrum = buffer[:rows]
    expected = np.sum(np.abs(spectrum) ** 2, axis=(1, 2))
    assert np.allclose(_spectrum_power(spectrum), expected, rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(min_value=1, max_value=4), p=st.integers(min_value=1, max_value=40),
       s=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_class_power_is_the_fftshift_of_the_window_lines_bitwise(rows, p, s, seed):
    squares = np.random.default_rng(seed).uniform(size=(rows, p, s))
    power = np.empty((rows, p * s))
    totals = _class_power(squares, power)
    expected = np.fft.fftshift(squares.swapaxes(-1, -2).reshape(rows, p * s), axes=-1)
    assert power.tobytes() == expected.tobytes()
    assert totals.tobytes() == expected.sum(axis=-1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 33, 256])
def test_class_power_fills_one_row(n):
    # the (n,) row far_field, deflection_check and momentum_spectrum fill from a (1, n) block
    squares = np.random.default_rng(n).uniform(size=(1, n))
    power = np.empty(n)
    total = _class_power(squares, power)
    assert power.tobytes() == np.fft.fftshift(squares[0]).tobytes()
    assert total == power.sum()


@pytest.mark.parametrize("n", [34, 100, 256, 585])
def test_core_rows_are_the_unit_sum_formula_bitwise(monkeypatch, n):
    # every tapped row is fftshift(|spectrum|^2) times the reciprocal of its sum, in chunks of 2, 2 and 1 runs
    import ratchet_lab.evolution as evolution

    monkeypatch.setattr(evolution, "BATCH_CELLS", 2 * n)
    rng = np.random.default_rng(n)
    start = rng.normal(size=n) + 1j * rng.normal(size=n)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(5, n))
    flight = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    taps = 0
    for lo, _k, spectrum, probs in evolution._split_step(
            start, 1, range(5), lambda run: np.exp(1j * phases[run]), lambda lines: flight[lines], range(1, 4),
            evolution._NORM_DRIFT, lambda _run: ""):
        assert probs.shape == spectrum.shape[::2] == (min(2, 5 - lo), n) and spectrum.shape[1] == 1
        for field, row in zip(spectrum[:, 0], probs):
            power = np.abs(np.fft.fftshift(field)) ** 2
            assert row.tobytes() == (power * (1.0 / power.sum())).tobytes()
            taps += 1
    assert taps == 5 * 3


@pytest.mark.parametrize("bad", [np.nan, -1e-9, 0.5])
def test_scan_rows_get_the_ladder_checks(pot, hbar_res, monkeypatch, bad):
    # a corrupted entry in the last row fails the scan's statistics, which build no ladder, as
    # MomentumLadder fails it, with the same message
    import ratchet_lab.evolution as evolution

    split_step = evolution._split_step
    rows = []

    def corrupted(*args, **kwargs):
        for lo, k, spectrum, probs in split_step(*args, **kwargs):
            probs[-1, GRID.n // 2] += bad
            rows.append(probs[-1].copy())
            yield lo, k, spectrum, probs

    monkeypatch.setattr(evolution, "_split_step", corrupted)
    with pytest.raises(ValueError) as scanned:
        list(_scan_abs_mean_p(GRID, 0.0, [(pot, hbar_res)] * 3, (2,)))
    with pytest.raises(ValueError) as single:
        MomentumLadder(beta=0.0, orders=np.arange(GRID.n), probabilities=rows[-1])
    assert str(scanned.value) == str(single.value)


def test_scan_yields_each_chunk_before_the_next_runs(pot, monkeypatch):
    # a scan that built every chunk before yielding would raise at the first next()
    import ratchet_lab.evolution as evolution

    lossy_hbar = 0.35 * math.pi

    def lossy(p, h, x):
        phase = kick_phase_profile(p, h, x)
        return phase + 1e-3j if h.hbar_eff == lossy_hbar else phase

    monkeypatch.setattr(evolution, "kick_phase_profile", lossy)
    monkeypatch.setattr(evolution, "BATCH_CELLS", GRID.n)
    runs = [(pot, EffectivePlanck(h * math.pi)) for h in (0.25, 0.3, 0.35, 0.4)]
    ladders = scan_ladders(GRID, 0.0, runs, (5,))
    run, kick, ladder = next(ladders)
    single = []
    evolve(plane_wave(GRID), KickedRunParams(*runs[0], 5), lambda k, lad: single.append(lad))
    assert (run, kick) == (0, 5)
    assert ladder.probabilities.tobytes() == single[-1].probabilities.tobytes()
    expected = rf"^scan run hbar_eff={re.escape(repr(lossy_hbar))} K=1\.0: norm drifted by .* at kick 1$"
    with pytest.raises(NumericalFailure, match=expected):
        list(ladders)


def test_evolve_zero_strength_constant_spectra(hbar_res):
    rows = []
    evolve(plane_wave(GRID), KickedRunParams(RatchetPotential(K=0.0), hbar_res, 5),
           lambda k, lad: rows.append(lad.probabilities))
    for row in rows[1:]:
        assert np.array_equal(row, rows[0])


def test_evolve_at_4pi_reduces_to_repeated_kicks(pot):
    hbar = EffectivePlanck(4 * math.pi)
    out = evolve(plane_wave(GRID), KickedRunParams(pot, hbar, 22))
    kicks_only = plane_wave(GRID)
    for _ in range(22):
        kicks_only = kick_step(kicks_only, pot, hbar)
    assert np.max(np.abs(out.amplitudes - kicks_only.amplitudes)) < 1e-12


def test_unitarity_over_100_periods_random_params():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pot = RatchetPotential(K=rng.uniform(0.1, 5.0), alpha=rng.choice([0.0, 0.3]),
                               phi=rng.uniform(0, 2 * math.pi))
        hbar = EffectivePlanck(rng.uniform(0.05, 4 * math.pi))
        state = plane_wave(GRID, beta=rng.uniform(0, 1))
        for _ in range(100):
            state = free_step(kick_step(state, pot, hbar), hbar)
            assert abs(state.norm - 1.0) < 1e-10


def test_time_reversal_returns_initial(pot, hbar_res):
    start = plane_wave(GRID)
    state = start
    for _ in range(22):
        state = free_step(kick_step(state, pot, hbar_res), hbar_res)
    phase = kick_phase_profile(pot, hbar_res, GRID.x)
    q = GRID.mode_numbers / GRID.periods + state.beta
    undo_free = np.exp(+1j * math.pi * np.mod((hbar_res.hbar_eff / math.pi) * 0.5 * q * q, 2.0))
    for _ in range(22):
        spec = np.fft.fft(state.amplitudes) * undo_free
        amps = np.fft.ifft(spec) * np.exp(-1j * phase)
        state = WaveState(grid=GRID, amplitudes=amps, beta=state.beta)
    assert np.max(np.abs(state.amplitudes - start.amplitudes)) < 1e-9


def test_grid_convergence_64_vs_128(pot, hbar_res):
    def run(ppp):
        rows = []
        evolve(plane_wave(SpatialGrid(1, ppp)), KickedRunParams(pot, hbar_res, 22),
               lambda k, lad: rows.append(ladder_dict(lad)))
        return rows

    coarse, fine = run(64), run(128)
    worst = max(
        abs(coarse[k].get(n, 0.0) - fine[k].get(n, 0.0))
        for k in range(22) for n in range(-32, 33)
    )
    assert worst < 1e-10


def test_pure_sine_spectrum_symmetric(hbar_res):
    pot = RatchetPotential(K=1.0, alpha=0.0)
    rows = []
    evolve(plane_wave(GRID), KickedRunParams(pot, hbar_res, 22),
           lambda k, lad: rows.append(ladder_dict(lad)))
    for row in rows:
        worst = max(abs(row[n] - row[-n]) for n in range(1, 120))
        assert worst < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       k=st.floats(min_value=0.0, max_value=5.0),
       hbar_eff=st.floats(min_value=1e-2, max_value=4 * math.pi))
def test_steps_preserve_norm_random_states(seed, k, hbar_eff):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n)
    u /= math.sqrt(np.sum(np.abs(u) ** 2) * GRID.dx)
    state = WaveState(grid=GRID, amplitudes=u, beta=rng.uniform(0, 1))
    pot = RatchetPotential(K=k, alpha=0.3, phi=rng.uniform(0, 2 * math.pi))
    hbar = EffectivePlanck(hbar_eff)
    out = free_step(kick_step(state, pot, hbar), hbar)
    assert abs(out.norm - 1.0) < 1e-12


def test_momentum_spectrum_trivial_cases():
    assert ladder_dict(momentum_spectrum(plane_wave(GRID)))[0] == pytest.approx(1.0, abs=1e-14)
    both = ladder_dict(momentum_spectrum(state_from_orders(GRID, {1: 1.0, -1: 1.0})))
    assert both[1] == pytest.approx(0.5, abs=1e-12)
    assert both[-1] == pytest.approx(0.5, abs=1e-12)


def test_momentum_spectrum_parseval(pot, hbar_res):
    state = kick_step(plane_wave(GRID), pot, hbar_res)
    ladder = momentum_spectrum(state)
    assert abs(ladder.probabilities.sum() - 1.0) < 1e-12


def test_ladder_record_schema(pot, hbar_res):
    records = []
    evolve(plane_wave(GRID), KickedRunParams(pot, hbar_res, 2),
           lambda k, lad: records.append(ladder_record(k, lad)))
    line = json.dumps(records[0])
    parsed = json.loads(line)
    assert set(parsed) == {"kick", "beta", "hbar", "orders", "prob"}
    assert parsed["kick"] == 1
    assert parsed["hbar"] == pytest.approx(hbar_res.hbar_eff)
    assert len(parsed["orders"]) == GRID.n == len(parsed["prob"])
    ladder = momentum_spectrum(kick_step(plane_wave(GRID), pot, hbar_res), hbar_res)
    per_element = {"kick": 1, "beta": 0.0, "hbar": hbar_res.hbar_eff,
                   "orders": [int(n) for n in ladder.orders],
                   "prob": [float(p) for p in ladder.probabilities]}
    assert json.dumps(ladder_record(1, ladder)) == json.dumps(per_element)


def test_ladder_record_reads_a_stack_row_as_evolve_records_it():
    # row k-1 of a run's stack gives the record of the one-row ladder evolve hands `record` at kick k
    from ratchet_lab.experiments import quantum_kick_ladders

    cfg = parse_config("", {"hbar": "0.37pi", "beta": "0.25", "periods": "2", "points_per_period": "64"})
    stack = quantum_kick_ladders(cfg, cfg.hbar, 5)
    records = []
    evolve(plane_wave(cfg.grid(), cfg.beta), KickedRunParams(cfg.potential(), EffectivePlanck(cfg.hbar), 5),
           lambda k, lad: records.append(json.dumps(ladder_record(k, lad))))
    assert [json.dumps(ladder_record(k, stack)) for k in range(1, 6)] == records


def test_momentum_ladder_checks_every_row_of_a_stack():
    orders = np.array([-1, 0, 1])
    stack = MomentumLadder(0.0, orders, [[0.25, 0.5, 0.25], [0.0, 1.0, 0.0]])
    assert stack.probabilities.shape == (2, 3) and stack.orders is orders
    with pytest.raises(ValueError, match="matching shapes"):
        MomentumLadder(0.0, orders, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="must sum to 1, got 0.5"):
        MomentumLadder(0.0, orders, [[0.25, 0.5, 0.25], [0.0, 0.5, 0.0]])
    with pytest.raises(ValueError, match="must be non-negative"):
        MomentumLadder(0.0, orders, [[0.25, 0.5, 0.25], [0.5, -0.5, 1.0]])
