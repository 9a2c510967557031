from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from ratchet_lab.evolution import MomentumLadder, SpatialGrid, kick_step, momentum_spectrum, plane_wave
from ratchet_lab.model import EffectivePlanck, RatchetPotential
from ratchet_lab.observables import (
    FitResult,
    StepStats,
    distribution_distance,
    distribution_linf,
    mean_momentum,
    mean_square_momentum,
    participation_ratio,
    polynomial_fit,
    stats_from_ladder,
)


def ladder(orders, probs, beta=0.0, periods=1):
    return MomentumLadder(beta=beta, orders=np.array(orders), probabilities=np.array(probs),
                          grid_periods=periods)


# --- moments -----------------------------------------------------------------

def test_mean_momentum_trivial():
    assert mean_momentum(ladder([-1, 0, 1], [0.25, 0.5, 0.25])) == 0.0
    assert mean_momentum(ladder([3], [1.0])) == 3.0
    assert mean_momentum(ladder([3], [1.0], beta=0.25)) == 3.25


def test_mean_square_momentum_trivial():
    assert mean_square_momentum(ladder([0], [1.0])) == 0.0
    assert mean_square_momentum(ladder([-1, 1], [0.5, 0.5])) == 1.0


def test_ladder_spacing_enters_moments():
    lad = ladder([2], [1.0], periods=2)
    assert mean_momentum(lad) == 1.0
    assert mean_square_momentum(lad) == 1.0


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_single_kick_moments_bessel(kappa):
    grid = SpatialGrid(1, 256)
    state = kick_step(plane_wave(grid), RatchetPotential(K=kappa, alpha=0.0), EffectivePlanck(1.0))
    lad = momentum_spectrum(state)
    assert mean_momentum(lad) == pytest.approx(0.0, abs=1e-10)
    assert mean_square_momentum(lad) == pytest.approx(kappa**2 / 2, abs=1e-10)
    # independent cross-check of the Bessel sum identity
    direct = sum(n**2 * jv(n, kappa) ** 2 for n in range(-40, 41))
    assert direct == pytest.approx(kappa**2 / 2, abs=1e-12)


def test_moments_match_grid_space_expectations(pot, hbar_res):
    # spectral-derivative expectation values straight from the grid state
    grid = SpatialGrid(1, 256)
    state = kick_step(plane_wave(grid), pot, hbar_res)
    lad = momentum_spectrum(state)
    spectrum = np.fft.fft(state.amplitudes)
    q = grid.mode_numbers / grid.periods + state.beta
    dpsi = np.fft.ifft(1j * q * spectrum)
    d2psi = np.fft.ifft(-(q**2) * spectrum)
    dx = grid.dx
    p_grid = float(np.sum(np.conj(state.amplitudes) * -1j * dpsi).real * dx)
    p2_grid = float(np.sum(np.conj(state.amplitudes) * -d2psi).real * dx)
    assert mean_momentum(lad) == pytest.approx(p_grid, abs=1e-10)
    assert mean_square_momentum(lad) == pytest.approx(p2_grid, abs=1e-10)


def test_step_stats_invariants(pot, hbar_res):
    grid = SpatialGrid(1, 256)
    lad = momentum_spectrum(kick_step(plane_wave(grid), pot, hbar_res))
    stats = stats_from_ladder(1, lad)
    assert stats.mean_p**2 <= stats.mean_p2 + 1e-12
    assert stats.participation >= 1.0
    assert participation_ratio(ladder([0], [1.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        StepStats(kick=1, mean_p=2.0, mean_p2=1.0, participation=2.0)
    with pytest.raises(ValueError):
        StepStats(kick=1, mean_p=0.0, mean_p2=1.0, participation=0.5)


# --- polynomial fits -----------------------------------------------------------

def test_fit_exact_line():
    xs = np.arange(1, 11, dtype=float)
    fit = polynomial_fit(xs, 2 * xs + 1, 1)
    assert fit.coefficients == pytest.approx((1.0, 2.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_parabola():
    xs = np.arange(0, 12, dtype=float)
    fit = polynomial_fit(xs, xs**2, 2)
    assert fit.residual_rms < 1e-12
    assert fit.coefficients[2] == pytest.approx(1.0, abs=1e-10)


def test_fit_validation():
    with pytest.raises(ValueError):
        polynomial_fit([1, 2, 3], [1, 2, 3], 3)
    with pytest.raises(ValueError):
        polynomial_fit([1, 2], [1, 2], 1)
    with pytest.raises(ValueError):
        polynomial_fit([2, 2, 2, 2], [1, 2, 3, 4], 1)
    # two distinct x values cannot pin a parabola: the design matrix has rank 2
    with pytest.raises(ValueError, match="degenerate abscissa"):
        polynomial_fit([1, 1, 2, 2], [1.0, 2.0, 3.0, 4.0], 2)
    with pytest.raises(ValueError):
        FitResult(coefficients=(0.0,), r_squared=1.5, residual_rms=0.0)


def _exact_fitted(xs, ys, degree):
    """Least-squares fitted values, the normal equations solved in exact rationals."""
    x = [Fraction(v) for v in xs]
    y = [Fraction(v) for v in ys]
    m = degree + 1
    a = [[sum(xi ** (i + j) for xi in x) for j in range(m)] + [sum(yi * xi**i for xi, yi in zip(x, y))]
         for i in range(m)]
    for col in range(m):
        for r in range(m):
            if r != col:
                f = a[r][col] / a[col][col]
                a[r] = [u - f * v for u, v in zip(a[r], a[col])]
    coeffs = [a[i][m] / a[i][i] for i in range(m)]
    return [float(sum(c * xi**k for k, c in enumerate(coeffs))) for xi in x]


def _micros(bound):
    """Noisy values in [-bound, bound] on a 1e-6 grid, clear of the subnormal range."""
    return st.integers(-bound * 10**6, bound * 10**6).map(lambda k: k / 10**6)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), degree=st.sampled_from([1, 2]))
def test_fit_matches_exact_least_squares(data, degree):
    xs = data.draw(st.lists(st.integers(0, 2000), min_size=degree + 2, max_size=30, unique=True))
    trend = data.draw(st.lists(_micros(10), min_size=degree + 1, max_size=degree + 1))
    noise = data.draw(st.lists(_micros(1), min_size=len(xs), max_size=len(xs)))
    ys = [sum(c * x**k / 1000**k for k, c in enumerate(trend)) + e for x, e in zip(xs, noise)]
    fit = polynomial_fit(xs, ys, degree)
    assert len(fit.coefficients) == degree + 1
    # Single coefficients are ill-conditioned; the fitted values are compared instead. Any
    # float least-squares solve misses them by a few eps * cond of the column-scaled design
    # matrix (worst seen 8.3 eps * cond), so the bound widens with cond past 64, i.e. for
    # abscissas clustered far from zero; below that it is 1e-12 * max|y|.
    x = np.asarray(xs, dtype=float)
    v = np.vander(x, degree + 1, increasing=True)
    cond = np.linalg.cond(v / np.linalg.norm(v, axis=0))
    fitted = np.polynomial.polynomial.polyval(x, fit.coefficients)
    exact = np.array(_exact_fitted(xs, ys, degree))
    assert np.max(np.abs(fitted - exact)) <= 1e-12 * max(1.0, cond / 64) * max(abs(y) for y in ys)


@settings(max_examples=100, deadline=None)
@given(
    shift=st.floats(min_value=-100, max_value=100),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_fit_shift_and_scale_invariance(shift, scale):
    rng = np.random.default_rng(9)
    xs = np.arange(1.0, 13.0)
    ys = 0.3 * xs**2 - 2.0 * xs + 0.7 + rng.normal(0, 0.1, size=xs.size)
    base = polynomial_fit(xs, ys, 2)
    shifted = polynomial_fit(xs, ys + shift, 2)
    assert shifted.coefficients[1] == pytest.approx(base.coefficients[1], rel=1e-9, abs=1e-9)
    assert shifted.coefficients[2] == pytest.approx(base.coefficients[2], rel=1e-9, abs=1e-9)
    assert shifted.coefficients[0] == pytest.approx(base.coefficients[0] + shift, rel=1e-9, abs=1e-9)
    scaled = polynomial_fit(xs, ys * scale, 2)
    for a, b in zip(scaled.coefficients, base.coefficients):
        assert a == pytest.approx(b * scale, rel=1e-9, abs=1e-12 * scale)


# --- distribution distances -----------------------------------------------------

def test_tv_identity_and_disjoint():
    assert distribution_distance([0, 1], [0.5, 0.5], [0, 1], [0.5, 0.5]) == 0.0
    assert distribution_distance([0], [1.0], [5], [1.0]) == pytest.approx(1.0)


def test_linf_identity_and_disjoint():
    assert distribution_linf([0, 1], [0.5, 0.5], [0, 1], [0.5, 0.5]) == 0.0
    assert distribution_linf([0], [1.0], [5], [1.0]) == 1.0
    assert distribution_linf([0, 1], [0.7, 0.3], [1, 2], [0.4, 0.6]) == 0.7


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_linf_matches_per_order_dict_bitwise(seed):
    rng = np.random.default_rng(seed)
    p_orders = np.sort(rng.choice(np.arange(-20, 21), size=rng.integers(1, 20), replace=False))
    q_orders = np.sort(rng.choice(np.arange(-20, 21), size=rng.integers(1, 20), replace=False))
    p, q = rng.uniform(0, 1, p_orders.size), rng.uniform(0, 1, q_orders.size)
    pd, qd = dict(zip(p_orders.tolist(), p.tolist())), dict(zip(q_orders.tolist(), q.tolist()))
    expected = max(abs(pd.get(n, 0.0) - qd.get(n, 0.0)) for n in set(pd) | set(qd))
    assert distribution_linf(p_orders, p, q_orders, q) == expected
    # Orders as compare_engines passes them: the quantum ladder first, ascending
    # and covering the optical orders. The TV must match the per-order dict loop.
    c_orders = np.sort(rng.choice(p_orders, size=rng.integers(1, p_orders.size + 1), replace=False))
    c = rng.uniform(0, 1, c_orders.size)
    acc: dict[int, float] = {}
    for n, v in zip(p_orders, p):
        acc[int(n)] = acc.get(int(n), 0.0) + v
    for n, v in zip(c_orders, c):
        acc[int(n)] = acc.get(int(n), 0.0) - v
    assert distribution_distance(p_orders, p, c_orders, c) == 0.5 * sum(abs(v) for v in acc.values())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_tv_metric_properties(seed):
    rng = np.random.default_rng(seed)
    orders = np.arange(-4, 5)

    def rand_dist():
        p = rng.uniform(0, 1, size=orders.size)
        return p / p.sum()

    p, q, r = rand_dist(), rand_dist(), rand_dist()
    d_pq = distribution_distance(orders, p, orders, q)
    d_qp = distribution_distance(orders, q, orders, p)
    d_pr = distribution_distance(orders, p, orders, r)
    d_rq = distribution_distance(orders, r, orders, q)
    assert d_pq == pytest.approx(d_qp, abs=1e-12)
    assert d_pq <= d_pr + d_rq + 1e-12
    assert 0.0 <= d_pq <= 1.0 + 1e-12
    assert distribution_distance(orders, p, orders, p) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("distance", [distribution_distance, distribution_linf])
def test_distances_refuse_orders_that_are_not_strictly_ascending(distance):
    # [0, 0] puts 1.0 on order 0 as [0] does, but aligning it by position would keep only one
    # of its entries: a side whose orders repeat or descend is refused, on either side
    with pytest.raises(ValueError, match="strictly ascending"):
        distance([0, 0], [0.5, 0.5], [0], [1.0])
    with pytest.raises(ValueError, match="strictly ascending"):
        distance([0], [1.0], [1, 0], [0.5, 0.5])
    assert distance([0], [1.0], [0], [1.0]) == 0.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       rows=st.integers(min_value=1, max_value=6),
       overlap=st.sampled_from(["disjoint", "partial", "equal"]),
       single_q=st.booleans())
def test_stacked_difference_rows_equal_the_single_pair_calls_bitwise(seed, rows, overlap, single_q):
    # one aligned difference of (rows, orders) stacks gives every row's TV and L_inf bitwise as
    # the per-pair calls do; a single (orders,) row on one side meets every row of the other
    from ratchet_lab.observables import _difference, _linf, _total_variation

    rng = np.random.default_rng(seed)
    p_orders = np.sort(rng.choice(np.arange(-30, 31), size=rng.integers(1, 25), replace=False))
    if overlap == "equal":
        q_orders = p_orders.copy()
    elif overlap == "disjoint":
        q_orders = np.arange(p_orders[-1] + 1, p_orders[-1] + 1 + rng.integers(1, 25))
    else:
        q_orders = np.union1d(rng.choice(p_orders, size=rng.integers(1, p_orders.size + 1), replace=False),
                              rng.choice(np.arange(31, 45), size=rng.integers(1, 6), replace=False))
    p = rng.dirichlet(np.ones(p_orders.size), size=rows)
    q = rng.dirichlet(np.ones(q_orders.size), size=1 if single_q else rows)
    diff = _difference(p_orders, p, q_orders, q[0] if single_q else q)
    assert diff.shape == (rows, np.union1d(p_orders, q_orders).size)
    tv, linf = _total_variation(diff), _linf(diff)
    for i in range(rows):
        qi = q[0] if single_q else q[i]
        assert tv[i] == distribution_distance(p_orders, p[i], q_orders, qi)
        assert linf[i] == distribution_linf(p_orders, p[i], q_orders, qi)
        assert type(tv[i]) is float and type(linf[i]) is float
