"""Acceptance suite: one test per numbered release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; with -s each test also prints its measured numbers and runtime.
Tolerances are stated inline and never loosened to accommodate failures.
"""
import math
import time

import numpy as np
import pytest

from pamlab import greens
from pamlab.lattice import Field, build_box
from pamlab.montecarlo import (
    collision_time,
    lambda_mc,
    pde_moment_oracle,
    sample_path,
)
from pamlab.phase import classify, kappa_bounds
from pamlab.spectral import (
    PamParams,
    check_gn,
    f0_rayleigh,
    lambda_spectral,
    mu,
    tensor_gap,
    top_eigen,
)

from lattice_helpers import delta_field


def mu1(kappa: float) -> float:
    return -2.0 * kappa + math.sqrt(4.0 * kappa * kappa + 1.0)


def report(num: int, detail: str, t0: float) -> None:
    print(f"[criterion {num:02d}] PASS  {detail}  ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_mu_anchors():
    t0 = time.perf_counter()
    worst = max(abs(mu(d, 0.0) - 1.0) for d in range(1, 6))
    assert worst <= 1e-10
    at_crit = abs(mu(3, greens.green_zero(3).value))
    assert at_crit <= 1e-6
    report(1, f"max|mu(d,0)-1|={worst:.1e}, |mu(3,G3(0))|={at_crit:.1e}", t0)


def test_criterion_02_mu_d1_closed_form():
    t0 = time.perf_counter()
    worst = max(abs(mu(1, float(k)) - mu1(float(k)))
                for k in np.linspace(0.0, 5.0, 50))
    assert worst <= 1e-8
    report(2, f"50-point grid, max deviation {worst:.1e}", t0)


def test_criterion_03_green_constants():
    t0 = time.perf_counter()
    fine = greens.green_zero(3, 1e-9)
    coarse = greens.green_zero(3, 1e-6)
    assert abs(fine.value - coarse.value) <= 1e-6
    fourier = greens.green_zero(3, method="fourier-quadrature")
    assert abs(fine.value - fourier.value) <= fine.abs_error + fourier.abs_error
    for est in (greens.green_zero(1), greens.green_zero(2),
                greens.green_l2sq(3), greens.green_l2sq(4)):
        assert est.divergent and est.value == math.inf
    report(3, f"G3(0)={fine.value:.12f}, resolutions differ by "
              f"{abs(fine.value - coarse.value):.1e}, fourier by "
              f"{abs(fine.value - fourier.value):.1e}, 4 divergent flags", t0)


def test_criterion_04_alpha_properties():
    t0 = time.perf_counter()
    assert greens.alpha(3).value == 0.0
    assert greens.alpha(4).value == 0.0
    vals = {d: greens.alpha(d).value for d in range(5, 31)}
    assert all(0.0 < v <= 1.0 for v in vals.values())
    assert vals[30] > vals[5]
    d_star = next(d for d in range(5, 31) if vals[d] > 0.5)
    assert d_star == 5
    report(4, f"alpha(5)={vals[5]:.6f}, alpha(30)={vals[30]:.6f}, "
              f"smallest d with alpha>1/2: {d_star}", t0)


def test_criterion_05_spectral_vs_mu():
    t0 = time.perf_counter()
    params = PamParams(d=1, n=1, p=1, kappa=0.2, rho=0.3)
    vals = [e.value for e in lambda_spectral(params, [8, 16, 32, 64])]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    err = abs(vals[-1] - mu(1, 0.5))
    assert err <= 1e-3
    report(5, f"R=64 value {vals[-1]:.8f}, |error| {err:.1e} vs mu(0.5)", t0)


def test_criterion_06_immobile_reactants():
    t0 = time.perf_counter()
    params = PamParams(d=1, n=2, p=2, kappa=0.0, rho=0.6)
    est = lambda_spectral(params, [2, 4, 6])[-1]
    err = abs(est.value - 2.0 * mu1(0.3))
    assert err <= 1e-3
    report(6, f"lambda(0, 0.6) = {est.value:.8f}, |error| {err:.1e} "
              f"vs 2*mu(0.3)", t0)


def test_criterion_07_swap_symmetry():
    t0 = time.perf_counter()
    a = top_eigen(PamParams(d=1, n=2, p=1, kappa=0.3, rho=0.2), 3).value
    b = top_eigen(PamParams(d=1, n=1, p=2, kappa=0.2, rho=0.3), 3).value
    dev = abs(a - 2.0 * b)
    assert dev <= 1e-9
    report(7, f"|lambda_1^(2)(0.3,0.2) - 2 lambda_2^(1)(0.2,0.3)| = {dev:.1e}", t0)


def test_criterion_08_zero_region_and_upper_bounds():
    t0 = time.perf_counter()
    gz = greens.green_zero(3).value
    ests = lambda_spectral(
        PamParams(d=3, n=1, p=2, kappa=1.1 * gz, rho=0.1), [1, 2])
    assert all(e.value <= 1e-8 for e in ests)

    kappas = [0.05, 0.12, 0.2, 0.3]
    crossings = []
    for p in (1, 2, 3):
        vals = [top_eigen(PamParams(d=3, n=1, p=p, kappa=k, rho=0.1), 1).value
                for k in kappas]
        for k, v in zip(kappas, vals):
            assert v <= min(mu(3, k), mu(3, 0.1 / p)) + 1e-9
        hit = [i for i, v in enumerate(vals) if v <= 1e-8]
        assert hit, f"p={p}: no zero crossing on the grid"
        crossings.append(hit[0])
    assert all(b >= a for a, b in zip(crossings, crossings[1:]))
    report(8, f"zero-region box values {[f'{e.value:.2e}' for e in ests]}, "
              f"upper bound holds at 12 grid points, crossing indices "
              f"{crossings} non-decreasing in p", t0)


def test_criterion_09_certified_window():
    t0 = time.perf_counter()
    d_star = next(d for d in range(5, 31) if greens.alpha(d).value > 0.5)
    rho = 0.2 * greens.green_zero(d_star).value
    hi1 = kappa_bounds(d_star, 1, 1, rho).upper
    lo2 = kappa_bounds(d_star, 1, 2, rho).lower
    assert hi1 < lo2
    regime = classify(d_star, 1, 0.5 * (hi1 + lo2), rho)
    assert (regime.label, regime.q) == ("CertifiedQIntermittent", 2)
    report(9, f"d*={d_star}, window ({hi1:.6f}, {lo2:.6f}), "
              f"classify -> {regime}", t0)


def test_criterion_10_mc_trivial_anchors():
    t0 = time.perf_counter()
    for n, p in ((1, 1), (2, 3)):
        params = PamParams(d=1, n=n, p=p, kappa=0.0, rho=0.0)
        est = lambda_mc(params, t=3.0, samples=64, seed=7)
        assert est.lambda_t == float(n) and est.stderr == 0.0
    params = PamParams(d=1, n=2, p=3, kappa=0.0, rho=0.0)
    runs = [lambda_mc(params, t=3.0, samples=64, seed=7, workers=w)
            for w in (1, 4, 8)]
    assert len({(r.lambda_t, r.stderr, r.ess) for r in runs}) == 1
    report(10, "lambda = n exactly, stderr = 0, bit-identical for "
               "workers 1/4/8", t0)


def test_criterion_11_feynman_kac_consistency():
    t0 = time.perf_counter()
    rng = np.random.Generator(
        np.random.Philox(key=np.array([2025, 0], dtype=np.uint64)))
    y = sample_path(1, 0.5, 5.0, rng)
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.5)
    u = pde_moment_oracle(params, R=12, t=5.0, catalyst_paths=[y])
    ws = []
    for i in range(10_000):
        xr = np.random.Generator(
            np.random.Philox(key=np.array([31, i], dtype=np.uint64)))
        x = sample_path(1, 0.25, 5.0, xr)
        ws.append(math.exp(collision_time([x], [y], 5.0)))
    mean = float(np.mean(ws))
    stderr = float(np.std(ws, ddof=1) / math.sqrt(len(ws)))
    assert abs(u - mean) <= 3.0 * stderr
    report(11, f"pde {u:.5f} vs mc {mean:.5f} +- {stderr:.5f} "
               f"(z = {(u - mean) / stderr:+.2f})", t0)


def test_criterion_12_gagliardo_nirenberg():
    t0 = time.perf_counter()
    lhs, rhs, ok = check_gn(delta_field(build_box(1, 10)), 1)
    assert ok and (lhs, rhs) == (1.0, 2.0 * math.sqrt(2.0))
    lhs, rhs, ok = check_gn(delta_field(build_box(2, 4)), 2)
    assert ok and (lhs, rhs) == (1.0, 4.0)
    for d, R, key in ((1, 10, 101), (2, 4, 102)):
        box = build_box(d, R)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(key)))
        for _ in range(1000):
            _, _, holds = check_gn(Field(box, rng.standard_normal(box.size)), d)
            assert holds
    report(12, "delta anchors exact, 1000/1000 random fields hold in "
               "d=1 and d=2", t0)


def test_criterion_13_tensor_gap():
    t0 = time.perf_counter()
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    tg = tensor_gap(params, 8)
    assert tg.gap > 0.0
    assert abs(tg.rayleigh2 - (tg.lambda1 + tg.gap)) <= 1e-8
    top2 = top_eigen(PamParams(d=1, n=1, p=2, kappa=0.25, rho=0.25), 8)
    assert top2.value >= tg.rayleigh2 - 1e-10
    report(13, f"gap {tg.gap:.8f} > 0, identity residual "
               f"{abs(tg.rayleigh2 - tg.lambda1 - tg.gap):.1e}, "
               f"lambda_2 box {top2.value:.8f} >= rayleigh2 {tg.rayleigh2:.8f}",
           t0)


def test_criterion_14_f0_bound():
    t0 = time.perf_counter()
    g = greens.green_zero(5).value
    l2 = greens.green_l2sq(5).value
    dists = []
    for R in (4, 8, 16):
        b = f0_rayleigh(5, 1, 1, 0.0, R)
        dists.append(abs(b.value - g))
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] <= 0.02 * g
    assert b.grad_y_sq == 2.0 * 5 * 1
    assert abs(b.ip_mass - g * g / l2) <= 0.01 * (g * g / l2)
    assert abs(b.grad_x_sq - g / l2) <= 0.01 * (g / l2)
    report(14, f"value -> G_5(0) with deficits {[f'{x:.2e}' for x in dists]}, "
               f"final {dists[-1] / g:.2%}; constituents within 1%", t0)
