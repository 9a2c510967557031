import math

import numpy as np
import pytest
from scipy.special import jv

from ratchet_lab.evolution import (
    KickedRunParams,
    NumericalFailure,
    SpatialGrid,
    evolve,
    plane_wave,
)
from ratchet_lab.floquet import FloquetMatrix, build_floquet, build_kick_matrix, propagate
from ratchet_lab.model import EffectivePlanck, RatchetPotential


def unit_vector(n_max: int, order: int = 0) -> np.ndarray:
    v = np.zeros(2 * n_max + 1, dtype=complex)
    v[n_max + order] = 1.0
    return v


def test_kick_matrix_zero_strength_identity(hbar_res):
    mat = build_kick_matrix(RatchetPotential(K=0.0), hbar_res, 16)
    assert np.max(np.abs(mat - np.eye(33))) < 1e-14


def test_kick_matrix_bessel_magnitudes():
    mat = build_kick_matrix(RatchetPotential(K=1.0, alpha=0.0), EffectivePlanck(1.0), 32)
    center = 32
    for d in range(-6, 7):
        assert abs(mat[center + d, center]) == pytest.approx(abs(jv(d, 1.0)), abs=1e-12)
    assert abs(mat[center + 1, center]) == pytest.approx(0.4401, abs=5e-5)


def test_kick_matrix_toeplitz_exact(pot, hbar_res):
    mat = build_kick_matrix(pot, hbar_res, 16)
    assert np.array_equal(mat[:-1, :-1], mat[1:, 1:])


def test_kick_matrix_requires_n_max(pot, hbar_res):
    with pytest.raises(ValueError):
        build_kick_matrix(pot, hbar_res, 4)


def test_floquet_zero_strength_is_diagonal(hbar_res):
    u = build_floquet(RatchetPotential(K=0.0), hbar_res, 0.25, 16)
    n = np.arange(-16, 17)
    expected = np.exp(-0.5j * hbar_res.hbar_eff * (n + 0.25) ** 2)
    assert np.max(np.abs(u.entries - np.diag(expected))) < 1e-12


def test_floquet_revival_reduces_to_kick_matrix(pot):
    hbar = EffectivePlanck(4 * math.pi)
    u = build_floquet(pot, hbar, 0.0, 16)
    kick = build_kick_matrix(pot, hbar, 16)
    assert np.array_equal(u.entries, kick)  # free phases are exactly unity


def test_interior_unitarity_defect(pot):
    u = build_floquet(pot, EffectivePlanck(0.5 * math.pi), 0.0, 64)
    assert u.interior_unitarity_defect < 1e-10


def test_quasi_energies_of_interior_localized_eigenstates():
    # localized regime: eigenvectors living in the interior are insensitive to
    # the basis cut, so their eigenvalues are unimodular
    u = build_floquet(RatchetPotential(K=1.0, alpha=0.3), EffectivePlanck(1.0), 0.25, 64)
    lam, vec = np.linalg.eig(u.entries)
    interior = np.abs(u.orders) <= u.n_max // 2
    mass = np.sum(np.abs(vec[interior, :]) ** 2, axis=0)
    keep = mass >= 0.999
    assert keep.sum() > 20
    assert np.max(np.abs(np.abs(lam[keep]) - 1.0)) < 1e-6


def test_propagate_zero_kicks_and_zero_strength(pot, hbar_res):
    u = build_floquet(RatchetPotential(K=0.0), hbar_res, 0.0, 16)
    ladder = propagate(u, unit_vector(16), 7)
    assert ladder.probabilities[16] == pytest.approx(1.0, abs=1e-12)
    u2 = build_floquet(pot, hbar_res, 0.0, 16)
    ladder = propagate(u2, unit_vector(16), 0)
    assert ladder.probabilities[16] == pytest.approx(1.0, abs=1e-12)


def test_propagate_rejects_wide_support(pot, hbar_res):
    init = np.zeros(33, dtype=complex)
    init[0] = 1.0  # order -16 with n_max=16
    with pytest.raises(ValueError):
        propagate(build_floquet(pot, hbar_res, 0.0, 16), init, 1)


def test_propagate_flags_nan_leakage(pot, hbar_res):
    u = build_floquet(pot, hbar_res, 0.0, 8)
    poisoned = FloquetMatrix(n_max=8, beta=0.0, hbar=hbar_res, entries=np.full_like(u.entries, np.nan),
                             interior_unitarity_defect=u.interior_unitarity_defect)
    with pytest.raises(NumericalFailure, match="outer-quarter probability nan at kick 1"):
        propagate(poisoned, unit_vector(8), 3)


def test_propagate_flags_truncation_breach():
    # kappa = K/hbar ~ 25 floods a 17-order basis immediately
    u = build_floquet(RatchetPotential(K=5.0, alpha=0.0), EffectivePlanck(0.2), 0.0, 8)
    with pytest.raises(NumericalFailure):
        propagate(u, unit_vector(8), 3)


def test_cross_oracle_22_kicks(pot, hbar_res):
    grid = SpatialGrid(1, 256)
    rows = {}
    evolve(plane_wave(grid), KickedRunParams(pot, hbar_res, 22),
           lambda k, lad: rows.__setitem__(k, dict(zip(lad.orders.tolist(), lad.probabilities.tolist()))))
    u = build_floquet(pot, hbar_res, 0.0, 128)
    ladder = propagate(u, unit_vector(128), 22)
    floq = dict(zip(ladder.orders.tolist(), ladder.probabilities.tolist()))
    worst = max(abs(floq[n] - rows[22][n]) for n in range(-32, 33))
    assert worst < 1e-8


def test_cross_oracle_random_draws():
    rng = np.random.default_rng(5)
    grid = SpatialGrid(1, 256)
    for _ in range(5):
        pot = RatchetPotential(K=rng.uniform(0.3, 2.0), alpha=rng.choice([0.0, 0.3]),
                               phi=rng.uniform(0, 2 * math.pi))
        hbar = EffectivePlanck(rng.uniform(0.2 * math.pi, 2 * math.pi))
        beta = rng.choice([0.0, 0.25])
        rows = {}
        evolve(plane_wave(grid, beta=beta), KickedRunParams(pot, hbar, 22),
               lambda k, lad: rows.__setitem__(k, dict(zip(lad.orders.tolist(), lad.probabilities.tolist()))))
        ladder = propagate(build_floquet(pot, hbar, beta, 128), unit_vector(128), 22)
        floq = dict(zip(ladder.orders.tolist(), ladder.probabilities.tolist()))
        worst = max(abs(floq[n] - rows[22][n]) for n in range(-32, 33))
        assert worst < 1e-8
