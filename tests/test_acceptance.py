"""End-to-end acceptance checks: one test per advertised guarantee.

Each test prints a one-line summary so a verbose run doubles as a report.
Runtime limits are asserted where the guarantee includes one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from carnotlw import (
    CorankGroup,
    bl_constant,
    chain_rule_residual,
    corank_constants,
    corank_linearized_datum,
    default_radon_norm,
    duality_bridge_residual,
    entropy,
    estimate_radon_norm_lb,
    gaussian_density,
    gaussian_product,
    gibbs_gap,
    level_set_check,
    lw_datum,
    pair_deletion_datum,
    product_combine,
    proof_chain_checks,
    quad_axis_resolution,
    radon_ratio,
    radon_transform,
    random_bumps,
    random_set,
    sobolev_check,
    subadditivity_check,
    triangle_density,
    verify_lw,
    verify_nonlinear_lw,
    verify_set_lw,
)
from carnotlw.cli import _random_factors
from carnotlw.radon import _disk_density

H1 = CorankGroup(0, 1, (1.0,))
H11 = CorankGroup(1, 1, (1.0,))
H02 = CorankGroup(0, 2, (1.0, 2.0))
GAUSS_1D_ENTROPY = -0.5 * math.log(2 * math.pi * math.e)


def test_acceptance_1_geometric_constants():
    data = {
        "lw(3)": lw_datum(3),
        "pair(2)": pair_deletion_datum(2),
        "corank(h1)": corank_linearized_datum(H1),
    }
    for label, datum in data.items():
        t0 = time.time()
        est = bl_constant(datum)
        elapsed = time.time() - t0
        assert abs(est.estimate - 1.0) <= 1e-6, label
        assert elapsed < 30.0, label
        print(f"[1] {label}: constant {est.estimate:.9f} in {elapsed:.1f}s")


def test_acceptance_2_exact_exponents():
    assert corank_constants(H1).lebesgue_exponents == (
        Fraction(3, 2), Fraction(3, 2),
    )
    assert corank_constants(H11).lebesgue_exponents == (
        Fraction(4), Fraction(2), Fraction(2),
    )
    for alpha in ((1.0, 2.0), (0.5, 3.0)):
        sd = corank_constants(CorankGroup(0, 2, alpha))
        assert sd.lebesgue_exponents == (Fraction(10, 3),) * 4
    both = product_combine(corank_constants(H1), corank_constants(H1))
    assert both.rnorm_pow == Fraction(6, 7)
    assert both.c == (Fraction(2, 7),) * 4
    print("[2] exact exponents: 3/2 | 4,2,2 | 10/3 x4 | product power 6/7")


def test_acceptance_3_entropy_calculus():
    g1 = gaussian_density([-6], [6], (4096,))
    err1 = abs(entropy(g1) - GAUSS_1D_ENTROPY)
    assert err1 <= 1e-3
    g3 = gaussian_density([-6] * 3, [6] * 3, (256,) * 3)
    err3 = abs(entropy(g3) - 3 * GAUSS_1D_ENTROPY)
    assert err3 <= 5e-3
    resid = chain_rule_residual(triangle_density(256), 1)
    assert resid <= 5e-3
    worst = math.inf
    rng = np.random.default_rng(0)
    for case in range(1000):
        f = random_bumps([-1, -1], [1, 1], (24, 24), seed=case)
        phi = rng.normal(scale=rng.uniform(0.2, 2.0),
                         size=f.values.shape) + rng.uniform(-2, 2)
        worst = min(worst, gibbs_gap(f, phi))
    assert worst >= -1e-9
    print(
        f"[3] gaussian entropy err {err1:.2e} (1-d) {err3:.2e} (3-d), "
        f"chain residual {resid:.2e}, min variational gap {worst:.2e}"
    )


def test_acceptance_4_duality_and_subadditivity():
    worst_resid = 0.0
    for case in range(100):
        fs = [
            random_bumps([-1, -1], [1, 1], (48, 48), seed=1000 + 2 * case + j)
            for j in range(2)
        ]
        worst_resid = max(worst_resid, duality_bridge_residual(H1, fs))
    assert worst_resid <= 1e-10
    rn = default_radon_norm()
    worst_deficit = math.inf
    for seed in range(50):
        f = random_bumps([-1.2] * 3, [1.2] * 3, (128,) * 3, seed=seed)
        rep = subadditivity_check(H1, f, r_norm=rn)
        assert rep.passed, f"seed {seed}"
        worst_deficit = min(worst_deficit, rep.deficit)
    print(
        f"[4] duality residual max {worst_resid:.2e} over 100 cases; "
        f"subadditivity min deficit {worst_deficit:.3f} over 50 at R={rn:.4f}"
    )


def _criterion5_cases(G, seed, res):
    fs = _random_factors(G, res, seed, G.horizontal_dim)
    fs_full = _random_factors(G, res, seed + 500, G.horizontal_dim + 1)
    k = G.topo_dim
    r = quad_axis_resolution(k, res)
    E = random_set(-np.ones(k), np.ones(k), (r,) * k, seed=seed)
    return [
        verify_lw(G, fs, r_norm=2.1),
        verify_nonlinear_lw(G, fs_full),
        verify_set_lw(G, E, r_norm=2.1),
    ]


def test_acceptance_5_verifier_battery():
    t0 = time.time()
    groups = [H1, H11, H02]
    negatives = []
    for G in groups:
        for seed in range(25):
            for rep in _criterion5_cases(G, seed, 96):
                assert rep.passed, f"{G} seed {seed} {rep.name}: {rep.line()}"
    # a coarse pass may dip negative; refining must shrink any such deficit
    for G in groups:
        for seed in range(25):
            for rep in _criterion5_cases(G, seed, 64):
                if rep.deficit < 0:
                    negatives.append((G, seed, rep.name, rep.deficit))
    for G, seed, name, coarse in negatives:
        fine = {r.name: r for r in _criterion5_cases(G, seed, 128)}[name]
        assert fine.deficit >= 0.5 * coarse, (
            f"{G} seed {seed} {name}: {coarse:.3e} -> {fine.deficit:.3e}"
        )
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(
        f"[5] 225 verifier cases pass at res 96; {len(negatives)} negative "
        f"coarse deficits re-checked at 128; total {elapsed:.0f}s"
    )


def test_acceptance_6_transform_norm():
    res = 512
    disk = _disk_density(res)
    sino = radon_transform(disk, res, res)
    from carnotlw import lp_norm, sinogram_norm

    ratio = sinogram_norm(sino, 3.0) / lp_norm(disk, 1.5)
    assert ratio == pytest.approx(6.0 ** (1.0 / 3.0), rel=2e-2)
    f = random_bumps([-1, -1], [1, 1], (96, 96), seed=3)
    s2 = radon_transform(f, 64, 128)
    masses = s2.values.sum(axis=1) * (2 * s2.s_max / s2.n_offsets)
    assert np.abs(masses - 1.0).max() <= 1e-3
    fams = (("disk",), ("disk", "gauss:0.35"), ("disk", "gauss:0.35", "bumps:0"))
    lbs = [estimate_radon_norm_lb(family=f, resolutions=(96,)).lb for f in fams]
    assert lbs[0] <= lbs[1] <= lbs[2]
    print(
        f"[6] disk ratio {ratio:.5f} vs {6 ** (1 / 3):.5f}; projected masses "
        f"exact to {np.abs(masses - 1).max():.1e}; nested bounds {lbs}"
    )


def test_acceptance_7_proof_chain_two_pairs():
    t0 = time.time()
    G = CorankGroup(0, 2, (1.0, 2.0))
    f64 = gaussian_product([-6.5] * 5, [6.5] * 5, (64,) * 5)
    reports = proof_chain_checks(G, f64)
    for rep in reports:
        assert rep.passed, rep.line()
    main3 = reports[2]
    assert abs(main3.deficit) < 5e-2
    # the factored evaluation is the same lattice sum as a materialized grid
    f20 = gaussian_product([-6.5] * 5, [6.5] * 5, (20,) * 5)
    a = proof_chain_checks(G, f20)
    b = proof_chain_checks(G, f20.rasterize())
    for ra, rb in zip(a, b):
        assert ra.lhs == pytest.approx(rb.lhs, abs=1e-9)
        assert ra.rhs == pytest.approx(rb.rhs, abs=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    print(
        f"[7] chain deficits "
        + " ".join(f"{r.name}={r.deficit:.3f}" for r in reports)
        + f"; grid cross-check at res 20; total {elapsed:.0f}s"
    )


def test_acceptance_8_functional_consequences():
    res = 128

    def bump(r):
        return gaussian_density(
            [-4 * r, -4 * r, -4 * r * r],
            [4 * r, 4 * r, 4 * r * r],
            (res,) * 3,
            sigma=(0.5 * r, 0.5 * r, 0.25 * r * r),
        )

    f = bump(1.0)
    lvl = level_set_check(H1, f)
    sob = sobolev_check(H1, f)
    assert lvl.passed
    assert sob.passed
    r1 = sob.lhs / sob.rhs
    sob2 = sobolev_check(H1, bump(1.5))
    r2 = sob2.lhs / sob2.rhs
    assert r1 == pytest.approx(r2, rel=2e-2)
    print(
        f"[8] level-set deficit {lvl.deficit:.3e}, sobolev ratio {r1:.4f}, "
        f"dilated ratio {r2:.4f}"
    )
