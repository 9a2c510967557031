import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from ratchet_lab.evolution import (
    KickedRunParams,
    MomentumLadder,
    NumericalFailure,
    SpatialGrid,
    WaveState,
    evolve,
    free_step,
    kick_step,
    ladder_record,
    momentum_spectrum,
    plane_wave,
    scan_ladders,
    state_from_orders,
)
from ratchet_lab.model import EffectivePlanck, RatchetPotential, kick_phase_profile


GRID = SpatialGrid(1, 256)


def ladder_dict(ladder: MomentumLadder) -> dict[int, float]:
    return dict(zip(ladder.orders.tolist(), ladder.probabilities.tolist()))


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


def test_evolve_takes_two_ffts_per_kick(pot, hbar_res, fft_calls):
    evolve(plane_wave(GRID), KickedRunParams(pot, hbar_res, 7), lambda k, lad: None)
    assert (fft_calls["fft"], fft_calls["ifft"]) == (7, 7)


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
    with mock.patch("ratchet_lab.evolution.SCAN_BATCH_CELLS", rows * grid.n):
        batched = list(scan_ladders(grid, beta, runs, kicks_at))
    assert sorted((run, kick) for run, kick, _ in batched) == sorted(
        (run, kick) for run in range(len(runs)) for kick in set(kicks_at))
    for run, kick, ladder in batched:
        pot, hbar = runs[run]
        single = []
        evolve(plane_wave(grid, beta=beta), KickedRunParams(pot, hbar, kick),
               lambda k, lad: single.append(lad))
        assert np.array_equal(ladder.probabilities, single[-1].probabilities)
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
    monkeypatch.setattr(evolution, "SCAN_BATCH_CELLS", rows * GRID.n)
    runs = [(pot, EffectivePlanck(h * math.pi)) for h in (0.25, 0.3, 0.35, 0.4)]
    expected = rf"^scan run hbar_eff={re.escape(repr(lossy_hbar))} K=1\.0: norm drifted by .* at kick 1$"
    with pytest.raises(NumericalFailure, match=expected):
        list(scan_ladders(GRID, 0.0, runs, (5,)))


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
