"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4 and 5 encode
figure-shape targets that the ideal beta=0 plane-wave system provably cannot
meet (see the failure messages); they are implemented as stated and left red
rather than loosened.
"""

import math
import time
from math import gcd
from pathlib import Path

import numpy as np
from scipy.special import jv

from ratchet_lab.config import parse_config
from ratchet_lab.evolution import (
    KickedRunParams,
    SpatialGrid,
    evolve,
    free_step,
    kick_step,
    momentum_spectrum,
    plane_wave,
)
from ratchet_lab.experiments import (
    compare_engines,
    optical_kick_ladders,
    quantum_kick_ladders,
    run_fig3,
    run_fig4,
    run_figs,
)
from ratchet_lab.floquet import build_floquet, propagate
from ratchet_lab.model import EffectivePlanck, RatchetPotential, depth_from_phase
from ratchet_lab.observables import mean_square_momentum
from ratchet_lab.optics import (
    OpticalGeometry,
    apply_mirror,
    deflection_check,
    distance_for_hbar,
    hbar_from_geometry,
    lau_distance,
    order_probabilities,
    plane_wave_beam,
)

LAM = 532e-9
PERIOD = 600e-6
GRID = SpatialGrid(1, 256)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))


def ladder_dict(ladder):
    return dict(zip(ladder.orders.tolist(), ladder.probabilities.tolist()))


def test_criterion_01_unitarity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        pot = RatchetPotential(K=rng.uniform(0.1, 5.0), alpha=rng.choice([0.0, 0.3]),
                               phi=rng.uniform(0.0, 2 * math.pi))
        hbar = EffectivePlanck(rng.uniform(0.05, 4 * math.pi))
        state = plane_wave(GRID, beta=rng.uniform(0.0, 1.0))
        for _ in range(100):
            state = free_step(kick_step(state, pot, hbar), hbar)
            worst = max(worst, abs(state.norm - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, "unitarity 100 kicks x 20 draws", ok, f"max drift {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_single_kick_bessel_oracle():
    t0 = time.perf_counter()
    worst_prob = 0.0
    worst_p2 = 0.0
    for kappa in (0.5, 1.0, 2.0):
        state = kick_step(plane_wave(GRID), RatchetPotential(K=kappa, alpha=0.0),
                          EffectivePlanck(1.0))
        ladder = momentum_spectrum(state)
        probs = ladder_dict(ladder)
        for n in range(-GRID.n // 2, GRID.n // 2):
            worst_prob = max(worst_prob, abs(probs[n] - jv(n, kappa) ** 2))
        worst_p2 = max(worst_p2, abs(mean_square_momentum(ladder) - kappa**2 / 2))
    elapsed = time.perf_counter() - t0
    ok = worst_prob < 1e-10 and worst_p2 < 1e-10 and elapsed < 1.0
    report(2, "single-kick Bessel ladder", ok,
           f"P err {worst_prob:.2e}, <p^2> err {worst_p2:.2e}, {elapsed:.2f}s")
    assert worst_prob < 1e-10
    assert worst_p2 < 1e-10
    assert elapsed < 1.0


def test_criterion_03_cross_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        pot = RatchetPotential(K=rng.uniform(0.3, 2.0), alpha=rng.choice([0.0, 0.3]),
                               phi=rng.uniform(0.0, 2 * math.pi))
        hbar = EffectivePlanck(rng.uniform(0.2 * math.pi, 2 * math.pi))
        beta = rng.choice([0.0, 0.25])
        split = {}
        evolve(plane_wave(GRID, beta=beta), KickedRunParams(pot, hbar, 22),
               lambda k, lad: split.__setitem__(k, ladder_dict(lad)))
        init = np.zeros(257, dtype=complex)
        init[128] = 1.0
        floq = ladder_dict(propagate(build_floquet(pot, hbar, beta, 128), init, 22))
        worst = max(worst, max(abs(floq[n] - split[22][n]) for n in range(-32, 33)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(3, "split-step vs Floquet oracle", ok, f"max |dP| {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_04_fig3_reproduction(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config("hbar=0.5pi\nengine=quantum\n")
    result = run_fig3(cfg, tmp_path)
    res_stats = result["res"]["stats"]
    off_stats = result["offres"]["stats"]
    p_fit = result["res"]["p_fit"]
    p2_fit = result["res"]["p2_fit"]
    ratio = off_stats[-1].mean_p2 / res_stats[-1].mean_p2
    elapsed = time.perf_counter() - t0

    checks = {
        "resonant <p> linear fit r^2 >= 0.98": p_fit.r_squared >= 0.98,
        "resonant <p^2> quadratic fit r^2 >= 0.98": p2_fit.r_squared >= 0.98,
        "resonant <p^2> leading coefficient > 0": p2_fit.coefficients[2] > 0,
        "off-resonant kick-22 <p^2> < 0.1x resonant": ratio < 0.1,
        "runtime < 10 s": elapsed < 10.0,
    }
    detail = (f"p-linear r^2={p_fit.r_squared:.3f}, p2-quad r^2={p2_fit.r_squared:.3f}, "
              f"lead={p2_fit.coefficients[2]:.4f}, offres/res p2 ratio={ratio:.3f}, {elapsed:.2f}s")
    report(4, "fig3 shape reproduction", all(checks.values()), detail)
    failures = [name for name, ok in checks.items() if not ok]
    assert not failures, (
        f"unmet: {failures}. At K=1, alpha=0.3, phi=0 the beta=0 plane-wave current "
        f"is oscillatory over kicks 2-22 (asymptotic drift +0.0185 orders/kick emerges "
        f"only beyond ~40 kicks), capping the linear fit at r^2~0.49, and the "
        f"off-resonant <p^2> oscillation happens to sit at 0.136x the resonant value "
        f"at kick 22. Both engines agree on these trajectories to 1e-15."
    )


def test_criterion_05_fig4_reproduction(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config("hbar=0.5pi\nengine=quantum\n")
    points = run_fig4(cfg, tmp_path)
    step = cfg.scan_hbar_step
    at21 = [p for p in points if p.kicks == 21]
    at5 = {round(p.hbar_eff, 12): p for p in points if p.kicks == 5}
    results = {}
    for target in (0.5, 1.0, 1.5, 2.0):
        target_h = target * math.pi
        nearby = [p for p in at21 if abs(p.hbar_eff - target_h) <= step * 1.000001]
        peaks = [p for p in nearby if p.is_local_max]
        best = max(peaks, key=lambda p: p.abs_mean_p) if peaks else None
        exceeds = bool(best) and best.abs_mean_p > at5[round(best.hbar_eff, 12)].abs_mean_p
        results[target] = (best is not None, exceeds,
                           max((p.abs_mean_p for p in nearby), default=0.0))
    elapsed = time.perf_counter() - t0
    ok = all(found and exceeds for found, exceeds, _ in results.values()) and elapsed < 120.0
    detail = ", ".join(
        f"{t}pi: {'max' if found else 'no max'} (|<p>|~{val:.3f})"
        for t, (found, exceeds, val) in results.items()
    )
    report(5, "fig4 resonance peaks", ok, detail + f", {elapsed:.1f}s")
    assert elapsed < 120.0
    missing = [t for t, (found, exceeds, _) in results.items() if not (found and exceeds)]
    assert not missing, (
        f"no qualifying |<p>| local maximum within one grid step of {missing} pi. "
        f"For the beta=0 plane wave the mean momentum is exactly conserved at "
        f"hbar_eff = pi and 2pi (the free-flight factor reduces to a half-period "
        f"translation there, so every kick is a pure position phase on a "
        f"uniform-modulus state), and the 1.5pi current is ~80x weaker than at "
        f"0.5pi; only the 0.5pi peak exists. Verified independently by the "
        f"matrix-propagator oracle."
    )


def test_criterion_06_quantum_optical_correspondence():
    t0 = time.perf_counter()
    overrides = {"hbar": "0.5pi", "beam_periods": "512", "beam_points_per_period": "128",
                 "beam_width": repr(64 * PERIOD)}
    worst_by_case = {}
    for hpi in (0.5, 0.35):
        cfg = parse_config("", {**overrides, "hbar": f"{hpi}pi"})
        quantum = quantum_kick_ladders(cfg, cfg.hbar, 22)
        optical = optical_kick_ladders(cfg, cfg.hbar, 22)
        worst = 0.0
        for q, o in zip(quantum.probabilities, optical.probabilities):
            qp = dict(zip(quantum.orders.tolist(), q.tolist()))
            op = dict(zip(optical.orders.tolist(), o.tolist()))
            support = set(qp) | set(op)
            worst = max(worst, max(abs(qp.get(n, 0.0) - op.get(n, 0.0)) for n in support))
        worst_by_case[hpi] = worst
    elapsed = time.perf_counter() - t0
    ok = all(w <= 1e-2 for w in worst_by_case.values()) and elapsed < 30.0
    report(6, "quantum-optical correspondence", ok,
           ", ".join(f"{h}pi: Linf {w:.2e}" for h, w in worst_by_case.items()) + f", {elapsed:.1f}s")
    for hpi, worst in worst_by_case.items():
        assert worst <= 1e-2, f"hbar={hpi}pi"
    assert elapsed < 30.0


def test_criterion_07_geometry_arithmetic():
    t0 = time.perf_counter()
    geom = OpticalGeometry(LAM, PERIOD, 0.169172)
    hbar = hbar_from_geometry(geom)
    rel = abs(hbar.hbar_eff - 0.5 * math.pi) / (0.5 * math.pi)
    rng = np.random.default_rng(2)
    round_trip_worst = 0.0
    for _ in range(100):
        h = EffectivePlanck(rng.uniform(0.01, 4 * math.pi))
        length = distance_for_hbar(h, LAM, PERIOD)
        back = hbar_from_geometry(OpticalGeometry(LAM, PERIOD, length))
        round_trip_worst = max(round_trip_worst, abs(back.hbar_eff - h.hbar_eff) / h.hbar_eff)
    lau_exact = all(
        lau_distance(4 * r, s, LAM, PERIOD)
        == distance_for_hbar(EffectivePlanck(4 * math.pi * r / s), LAM, PERIOD)
        for s in range(1, 9) for r in range(1, 3 * s) if gcd(r, s) == 1
    )
    spacing = LAM * 0.3 / PERIOD
    spacing_ok = abs(spacing - 266e-6) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-4 and round_trip_worst < 1e-15 and lau_exact and spacing_ok and elapsed < 1.0
    report(7, "geometry arithmetic", ok,
           f"hbar rel {rel:.2e}, roundtrip {round_trip_worst:.2e}, lau exact {lau_exact}, "
           f"spacing {spacing * 1e6:.1f}um, {elapsed:.2f}s")
    assert rel < 1e-4
    assert round_trip_worst < 1e-15
    assert lau_exact
    assert spacing_ok
    assert elapsed < 1.0


def test_criterion_08_phase_mirror_physics():
    t0 = time.perf_counter()
    n = 3072
    x = np.arange(n) * (PERIOD / n)
    slopes = [2 * math.pi * 0.8 / PERIOD, -2 * math.pi * 1.7 / PERIOD, 2 * math.pi * 3.3 / PERIOD]
    phase = np.zeros(n)
    offset = 0.0
    for slope, (lo, hi) in zip(slopes, ((0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n))):
        phase[lo:hi] = slope * (x[lo:hi] - x[lo]) + offset
        offset = phase[hi - 1]
    mirror = depth_from_phase(phase, LAM, PERIOD)
    regions = deflection_check(mirror, LAM, 0.3)
    worst_rel = max(abs(r.measured_shift_m - r.predicted_shift_m) / abs(r.predicted_shift_m)
                    for r in regions)
    m = 3
    xs = np.arange(128) * (PERIOD / 128)
    ramp = depth_from_phase(2 * math.pi * m * xs / PERIOD, LAM, PERIOD)
    beam = apply_mirror(plane_wave_beam(PERIOD, 16, 128, LAM), ramp)
    orders, probs = order_probabilities(beam, PERIOD)
    ramp_ok = orders[np.argmax(probs)] == m and probs.max() > 1.0 - 1e-10
    elapsed = time.perf_counter() - t0
    ok = len(regions) == 3 and worst_rel < 0.02 and ramp_ok and elapsed < 5.0
    report(8, "phase-mirror deflection", ok,
           f"{len(regions)} regions, worst rel {worst_rel:.2e}, ramp shift exact {ramp_ok}, {elapsed:.2f}s")
    assert len(regions) == 3
    assert worst_rel < 0.02
    assert ramp_ok
    assert elapsed < 5.0


def test_criterion_09_quantization_study(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config("hbar=0.5pi\n")
    result = compare_engines(cfg, tmp_path)
    sweep = result["sweep_tv"]
    values = [sweep[n] for n in (2, 4, 8, 16, 32, 64)]
    monotone = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    csv_text = (tmp_path / "compare_engines.csv").read_text()
    sixteen_reported = any(
        line.split(",")[:3] == ["quantization_sweep", str(cfg.n_kicks), "16"]
        for line in csv_text.splitlines() if not line.startswith("#")
    )
    elapsed = time.perf_counter() - t0
    ok = monotone and sixteen_reported and elapsed < 30.0
    report(9, "mirror quantization convergence", ok,
           "TV " + ", ".join(f"{n}:{sweep[n]:.4f}" for n in (2, 4, 8, 16, 32, 64)) + f", {elapsed:.1f}s")
    assert monotone
    assert sixteen_reported
    assert elapsed < 30.0


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config("hbar=0.5pi\n")
    a, b = Path(tmp_path) / "run1", Path(tmp_path) / "run2"
    run_figs(cfg, a)
    run_figs(cfg, b)
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    expected = {"fig2_a.pgm", "fig2_a.csv", "fig2_b.pgm", "fig2_b.csv",
                "fig2_a_optical.pgm", "fig2_a_optical.csv",
                "fig2_b_optical.pgm", "fig2_b_optical.csv",
                "fig3_stats_res.csv", "fig3_stats_offres.csv", "fig3_fits.csv",
                "fig3_dist22_res.csv", "fig3_dist22_offres.csv",
                "fig4_scan.csv", "run_manifest"}
    identical = names_a == names_b and expected <= set(names_a) and all(
        (a / nm).read_bytes() == (b / nm).read_bytes() for nm in names_a
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 180.0
    report(10, "byte-identical figs reruns", ok, f"{len(names_a)} files, {elapsed:.1f}s")
    assert identical
    assert elapsed < 180.0
