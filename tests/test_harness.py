import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from carnotlw import (
    CorankGroup,
    GridDensity,
    Report,
    ScaledData,
    box_indicator,
    corank_constants,
    corank_pushforward,
    default_radon_norm,
    density_from_function,
    duality_bridge_residual,
    entropy,
    euclidean_set_lw,
    gaussian_density,
    gaussian_product,
    isoperimetric_check,
    level_set_check,
    multilinear_lhs,
    normalize,
    product_combine,
    product_combine_line,
    proof_chain_checks,
    pullback_product,
    quad_axis_resolution,
    random_bumps,
    random_set,
    resolve_rnorm,
    sobolev_check,
    subadditivity_check,
    total_mass,
    verify_lw,
    verify_nonlinear_lw,
    verify_set_lw,
)

H1 = CorankGroup(0, 1, (1.0,))
H11 = CorankGroup(1, 1, (1.0,))
H02 = CorankGroup(0, 2, (1.0, 2.0))
RN = 2.1  # fixed transform-norm configuration for deterministic constants


# ---------------------------------------------------------------------------
# Report

def test_report_deficit_and_status():
    good = Report("x", 1.0, 1.5, 0.01)
    assert good.deficit == pytest.approx(0.5)
    assert good.passed
    borderline = Report("x", 1.0, 0.995, 0.01)
    assert borderline.passed  # within tolerance
    bad = Report("x", 1.0, 0.9, 0.01)
    assert not bad.passed
    assert "FAIL" in bad.line()
    assert set(good.to_dict()) == {
        "name", "lhs", "rhs", "deficit", "tolerance", "passed", "metadata"
    }


# ---------------------------------------------------------------------------
# exact exponent structure

def test_scaled_data_rejects_floats():
    with pytest.raises(TypeError):
        ScaledData(c=(0.5, 0.5))
    with pytest.raises(TypeError):
        ScaledData(c=(Fraction(1, 2),), rnorm_pow=0.3)


def test_scaled_data_accepts_strings_and_ints():
    sd = ScaledData(c=("2/3", "2/3"), rnorm_pow=1, q_hom=4)
    assert sd.c == (Fraction(2, 3), Fraction(2, 3))


def test_scaled_data_checks_exponent_sum():
    with pytest.raises(ValueError):
        ScaledData(c=(Fraction(1, 2), Fraction(1, 2)), q_hom=4)  # sum 1 != 4/3
    with pytest.raises(ValueError):
        ScaledData(c=(Fraction(0),))


def test_h1_lebesgue_exponents():
    sd = corank_constants(H1)
    assert sd.lebesgue_exponents == (Fraction(3, 2), Fraction(3, 2))
    assert sd.rnorm_pow == Fraction(1)
    assert sd.q_hom == 4


def test_mixed_group_lebesgue_exponents():
    sd = corank_constants(H11)
    assert sd.lebesgue_exponents == (Fraction(4), Fraction(2), Fraction(2))
    assert sd.rnorm_pow == Fraction(3, 4)


def test_two_pair_group_lebesgue_exponents():
    sd = corank_constants(H02)
    assert sd.lebesgue_exponents == (Fraction(10, 3),) * 4
    # log-constant: (3/5) ln R - (ln a1 + ln a2)/10
    expected = 0.6 * math.log(RN) - (math.log(1.0) + math.log(2.0)) / 10.0
    assert sd.log_constant(RN) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "d,n,alpha",
    [(0, 1, (1.0,)), (1, 1, (2.0,)), (0, 2, (1.0, 3.0)), (2, 3, (1.0, 1.0, 2.0))],
)
def test_exponent_sum_identity(d, n, alpha):
    G = CorankGroup(d, n, alpha)
    sd = corank_constants(G)
    q = Fraction(G.homogeneous_dim)
    assert sum(sd.c) == q / (q - 1)


# ---------------------------------------------------------------------------
# product combinations

def test_product_combine_two_pair_groups():
    a = corank_constants(H1)
    combined = product_combine(a, a)
    assert combined.c == (Fraction(2, 7),) * 4
    assert combined.rnorm_pow == Fraction(6, 7)
    assert combined.q_hom == 8
    assert combined.alpha_pows == ((1.0, Fraction(1, 7)), (1.0, Fraction(1, 7)))
    assert sum(combined.c) == Fraction(8, 7)  # = Q/(Q-1) for Q = 8


def test_product_combine_log_constant_mixes_by_dimension_weights():
    a = corank_constants(H1)       # Q = 4
    b = corank_constants(H11)      # Q = 5
    combined = product_combine(a, b)
    expected = (3 * a.log_constant(RN) + 4 * b.log_constant(RN)) / 8.0
    assert combined.log_constant(RN) == pytest.approx(expected, abs=1e-14)


def test_product_combine_symmetric():
    a = corank_constants(H1)
    b = corank_constants(H02)
    ab = product_combine(a, b)
    ba = product_combine(b, a)
    assert ab.c == ba.c[len(b.c):] + ba.c[: len(b.c)]
    assert ab.rnorm_pow == ba.rnorm_pow
    assert ab.q_hom == ba.q_hom


def test_product_combine_associative():
    parts = (
        corank_constants(H1),
        corank_constants(CorankGroup(1, 1, (2.0,))),
        corank_constants(CorankGroup(0, 2, (1.0, 3.0))),
    )
    left = product_combine(product_combine(parts[0], parts[1]), parts[2])
    right = product_combine(parts[0], product_combine(parts[1], parts[2]))
    assert left.c == right.c
    assert left.rnorm_pow == right.rnorm_pow
    assert left.alpha_pows == right.alpha_pows
    assert left.q_hom == right.q_hom


def test_product_combine_requires_supercritical_sums():
    flat = ScaledData(c=(Fraction(1, 2),))
    with pytest.raises(ValueError):
        product_combine(flat, corank_constants(H1))
    with pytest.raises(ValueError):
        product_combine_line(flat)


def test_product_combine_line_h1():
    sd = product_combine_line(corank_constants(H1))
    assert sd.c == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))
    assert sd.rnorm_pow == Fraction(3, 4)
    assert sd.q_hom == 5
    # log-constant drops by the factor (Q-1)/Q = s^-1
    base = corank_constants(H1)
    assert sd.log_constant(RN) == pytest.approx(
        0.75 * base.log_constant(RN), abs=1e-14
    )


@pytest.mark.parametrize("d", [1, 2])
def test_line_combination_reproduces_commuting_directions(d):
    alpha = 1.7
    sd = corank_constants(CorankGroup(0, 1, (alpha,)))
    for _ in range(d):
        sd = product_combine_line(sd)
    direct = corank_constants(CorankGroup(d, 1, (alpha,)))
    assert sd.c == direct.c
    assert sd.rnorm_pow == direct.rnorm_pow
    assert sd.alpha_pows == direct.alpha_pows
    assert sd.q_hom == direct.q_hom


# ---------------------------------------------------------------------------
# quadrature budget and norm configuration

def test_quad_axis_resolution_values():
    assert quad_axis_resolution(3, 96) == 96
    assert quad_axis_resolution(4, 96) == 31
    assert quad_axis_resolution(5, 96) == 15
    assert quad_axis_resolution(4, 128) == 38
    assert quad_axis_resolution(5, 128) == 18


def test_quad_axis_resolution_floor_and_cap():
    assert quad_axis_resolution(10, 96) == 8  # floor
    assert quad_axis_resolution(6, 4096) == 16  # total-cell cap (2^24)^(1/6)


def test_resolve_rnorm_precedence(monkeypatch):
    monkeypatch.setenv("CARNOT_LW_RNORM", "1.9")
    assert resolve_rnorm(2.5) == 2.5  # explicit wins
    assert resolve_rnorm() == 1.9  # then the environment
    monkeypatch.setenv("CARNOT_LW_RNORM", "zebra")
    with pytest.raises(ValueError):
        resolve_rnorm()
    monkeypatch.delenv("CARNOT_LW_RNORM")
    assert resolve_rnorm() == default_radon_norm()
    with pytest.raises(ValueError):
        resolve_rnorm(-1.0)


# ---------------------------------------------------------------------------
# multilinear quadrature

def test_multilinear_unit_square_factors():
    # int over the cube of the twisted product has the closed value 3/4
    res = 96
    sq = box_indicator([0, 0], [1, 1], (res, res))
    val = multilinear_lhs(H1, [sq, sq])
    assert val == pytest.approx(0.75, abs=1.5 / res)


def test_multilinear_disjoint_supports():
    a = box_indicator([0, 0], [1, 1], (16, 16))
    b = box_indicator([5, 5], [6, 6], (16, 16))
    assert multilinear_lhs(H1, [a, b]) == 0.0


def test_multilinear_zero_factor():
    a = box_indicator([0, 0], [1, 1], (16, 16))
    z = GridDensity([0, 0], [1, 1], np.zeros((16, 16)))
    assert multilinear_lhs(H1, [a, z]) == 0.0


def test_multilinear_factor_validation():
    sq = box_indicator([0, 0], [1, 1], (8, 8))
    with pytest.raises(ValueError):
        multilinear_lhs(H1, [sq])  # wrong count
    bad = box_indicator([0], [1], (8,))
    with pytest.raises(ValueError):
        multilinear_lhs(H1, [sq, bad])  # wrong factor dimension


def test_duality_bridge_residual_is_rounding_level():
    for seed in (0, 1, 2):
        fs = [
            random_bumps([-1, -1], [1, 1], (48, 48), seed=seed + 10 * j)
            for j in range(2)
        ]
        assert duality_bridge_residual(H1, fs) < 1e-10


def test_pullback_product_is_normalized_density():
    fs = [random_bumps([-1, -1], [1, 1], (32, 32), seed=s) for s in (3, 4)]
    F = pullback_product(H1, fs)
    assert F.k == 3
    assert float(F.values.sum() * F.cell_volume) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "G,include_last", [(H1, False), (H11, True)], ids=["h1", "d1n1-full"]
)
def test_pullback_product_mass_equals_multilinear_lhs(G, include_last):
    m = G.horizontal_dim
    fs = [
        random_bumps([-1.2] * m, [1.2] * m, (24,) * m, seed=s)
        for s in range(m + include_last)
    ]
    raw = pullback_product(G, fs, include_last, normalized=False)
    lhs = multilinear_lhs(G, fs, include_last)
    assert lhs > 0
    assert total_mass(raw) == pytest.approx(lhs, rel=1e-12)


# ---------------------------------------------------------------------------
# the three verifiers

def _h1_factors(res, seed):
    return [
        random_bumps([-1.2, -1.2], [1.2, 1.2], (res, res), seed=seed + 101 * j,
                     spread=0.05, sigma_range=(0.05, 0.07))
        for j in range(2)
    ]


def test_verify_lw_passes_on_smooth_factors():
    rep = verify_lw(H1, _h1_factors(96, seed=1), r_norm=RN)
    assert rep.passed
    assert rep.lhs > 0.05 * rep.rhs  # the check is not vacuous
    assert rep.metadata["exponents"] == ["3/2", "3/2"]


def test_verify_lw_rhs_matches_hand_assembly():
    fs = _h1_factors(64, seed=2)
    rep = verify_lw(H1, fs, r_norm=RN)
    from carnotlw import lp_norm

    hand = RN * lp_norm(fs[0], 1.5) * lp_norm(fs[1], 1.5)
    assert rep.rhs == pytest.approx(hand, rel=1e-12)


def test_verify_nonlinear_lw_passes():
    fs = _h1_factors(96, seed=3) + [
        random_bumps([-1.2, -1.2], [1.2, 1.2], (96, 96), seed=77,
                     spread=0.05, sigma_range=(0.05, 0.07))
    ]
    rep = verify_nonlinear_lw(H1, fs)
    assert rep.passed
    assert rep.metadata["exponent"] == 2
    assert rep.lhs > 0


def test_nonlinear_ratio_dilation_invariant():
    # pulling every factor back through the projected dilation leaves the
    # two sides in the same proportion (the inequality is scale sharp)
    def factor(j, r):
        def fn(pts):
            q = pts.copy()
            q[:, 0] *= r
            q[:, 1] *= r * r if j <= 2 else r
            z = (q * q).sum(axis=1)
            return np.exp(-2.0 * z)

        t_half = 1.5 / (r * r) if j <= 2 else 1.5 / r
        lo = [-1.5 / r, -t_half]
        return density_from_function(fn, lo, [-v for v in lo], (64, 64))

    ratios = []
    for r in (1.0, 1.4):
        fs = [factor(j, r) for j in (1, 2, 3)]
        rep = verify_nonlinear_lw(H1, fs)
        ratios.append(rep.lhs / rep.rhs)
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-2)


def test_verify_set_lw_cube_measures():
    res = 48
    E = box_indicator([0, 0, 0], [1, 1, 1], (res,) * 3)
    rep = verify_set_lw(H1, E, r_norm=RN)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rep.metadata["projected_measures"], 1.25, atol=2 / res)
    assert rep.rhs == pytest.approx(RN * 1.25 ** (4 / 3), abs=1e-2)


def test_verify_set_lw_random_blobs():
    E = random_set([-1, -1, -1], [1, 1, 1], (64,) * 3, seed=5)
    rep = verify_set_lw(H1, E, r_norm=RN)
    assert rep.passed
    assert rep.lhs > 0


def test_verify_set_lw_empty_set_trivial():
    E = GridDensity([0, 0, 0], [1, 1, 1], np.zeros((8, 8, 8)))
    rep = verify_set_lw(H1, E, r_norm=RN)
    assert rep.lhs == 0.0
    assert rep.passed


def test_verify_set_lw_validation():
    E = box_indicator([0, 0], [1, 1], (8, 8))
    with pytest.raises(ValueError):
        verify_set_lw(H1, E)  # wrong dimension
    bad = GridDensity([0, 0, 0], [1, 1, 1], 0.5 * np.ones((4, 4, 4)))
    with pytest.raises(ValueError):
        verify_set_lw(H1, bad)  # not an indicator


def test_euclidean_set_lw_brick_equality():
    E = box_indicator([0, 0, 0], [1, 2, 0.5], (16, 16, 16))
    rep = euclidean_set_lw(E)
    assert abs(rep.deficit) <= rep.tolerance
    assert rep.passed


def test_euclidean_set_lw_union_strict():
    def fn(pts):
        a = np.all((pts >= 0) & (pts <= 0.4), axis=1)
        b = np.all((pts >= 0.6) & (pts <= 1.0), axis=1)
        return (a | b).astype(float)

    E = density_from_function(fn, [0, 0], [1, 1], (40, 40))
    rep = euclidean_set_lw(E)
    assert rep.passed
    assert rep.deficit > 0.1  # genuinely strict for the two-corner union


# ---------------------------------------------------------------------------
# entropy forms

def test_subadditivity_random_density():
    f = random_bumps([-1.2] * 3, [1.2] * 3, (64,) * 3, seed=6)
    rep = subadditivity_check(H1, f, r_norm=RN)
    assert rep.passed
    assert rep.deficit > 0
    assert len(rep.metadata["pushforward_entropies"]) == 2


def test_subadditivity_accepts_explicit_scaled_data():
    f = random_bumps([-1.2] * 3, [1.2] * 3, (48,) * 3, seed=7)
    a = subadditivity_check(H1, f, r_norm=RN)
    b = subadditivity_check(H1, f, sd=corank_constants(H1), r_norm=RN)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
    assert a.rhs == pytest.approx(b.rhs, abs=1e-12)
    with pytest.raises(ValueError):
        subadditivity_check(H1, f, sd=corank_constants(H02))  # 4 exponents


def test_subadditivity_on_pullback_product():
    # multiplicative densities are the equality candidates of the dual form
    fs = [random_bumps([-1, -1], [1, 1], (48, 48), seed=s) for s in (8, 9)]
    F = pullback_product(H1, fs)
    rep = subadditivity_check(H1, F, r_norm=RN)
    assert rep.passed


def test_proof_chain_names_and_pass():
    f = normalize(gaussian_density([-7] * 3, [7] * 3, (48,) * 3))
    reports = proof_chain_checks(H1, f, r_norm=RN)
    assert [r.name for r in reports] == ["main1", "main2", "main3", "main4"]
    assert all(r.passed for r in reports)
    assert reports[2].metadata.get("note") == "vacuous for n=1"


def test_proof_chain_main1_deficit_matches_analytic():
    # for the standard gaussian the slice deficit is 1.5 ln R + a fixed
    # number computable from 1-d integrals
    res = 64
    f = normalize(gaussian_density([-6] * 3, [6] * 3, (res,) * 3))
    reports = proof_chain_checks(H1, f, r_norm=RN)
    nu = 0.5 * math.log(2 * math.pi * math.e)
    e_log = quad(
        lambda y: math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
        * math.log(1 + y * y / 4),
        -12, 12,
    )[0]
    expected = 1.5 * math.log(RN) - 0.5 * nu + e_log
    assert reports[0].deficit == pytest.approx(expected, abs=60.0 / res**2)


def test_proof_chain_pushforward_entropy_oracle():
    res = 64
    f = normalize(gaussian_density([-6] * 3, [6] * 3, (res,) * 3))
    push = corank_pushforward(H1, 1, f)
    nu = 0.5 * math.log(2 * math.pi * math.e)
    e_log = quad(
        lambda y: math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
        * math.log(1 + y * y / 4),
        -12, 12,
    )[0]
    exact = -2 * nu - 0.5 * e_log
    assert entropy(push, check_mass=False) == pytest.approx(
        exact, abs=60.0 / res**2
    )


def test_proof_chain_product_matches_grid():
    prod = gaussian_product([-7] * 5, [7] * 5, (16,) * 5)
    grid = prod.rasterize()
    a = proof_chain_checks(H02, prod, r_norm=RN)
    b = proof_chain_checks(H02, grid, r_norm=RN)
    for ra, rb in zip(a, b):
        assert ra.lhs == pytest.approx(rb.lhs, abs=1e-9)
        assert ra.rhs == pytest.approx(rb.rhs, abs=1e-9)


def test_proof_chain_main3_tight_for_isotropic_product():
    prod = gaussian_product([-7] * 5, [7] * 5, (20,) * 5)
    reports = proof_chain_checks(H02, prod, r_norm=RN)
    main3 = reports[2]
    assert abs(main3.deficit) < 1e-9
    assert main3.passed


def test_proof_chain_requires_pure_pair_group():
    f = random_bumps([-1] * 4, [1] * 4, (8,) * 4, seed=0)
    with pytest.raises(ValueError):
        proof_chain_checks(H11, f)


# ---------------------------------------------------------------------------
# level sets, sobolev, isoperimetry

def _smooth_field(res=64, scale=8.0):
    f = random_bumps([-1.2] * 3, [1.2] * 3, (res,) * 3, seed=12)
    return GridDensity(f.lower, f.upper, scale * f.values)


def test_level_set_check_passes_on_smooth_field():
    rep = level_set_check(H1, _smooth_field())
    assert rep.passed
    assert rep.metadata["rows"]
    worst = min(rep.metadata["rows"], key=lambda r: r["rhs"] - r["lhs"])
    assert rep.lhs == worst["lhs"]
    assert rep.rhs == worst["rhs"]


def test_level_set_rows_all_within_tolerance():
    rep = level_set_check(H1, _smooth_field())
    for row in rep.metadata["rows"]:
        assert row["rhs"] - row["lhs"] >= -rep.tolerance


def test_level_set_floor_prunes_rows():
    f = _smooth_field(res=48)
    many = level_set_check(H1, f, floor_cells=8)
    few = level_set_check(H1, f, floor_cells=700)
    assert len(few.metadata["rows"]) < len(many.metadata["rows"])
    z = GridDensity([0, 0, 0], [1, 1, 1], np.ones((4, 4, 4)))
    with pytest.raises(ValueError, match="cell floor"):
        level_set_check(H1, z, floor_cells=1000)


def test_level_set_rejects_zero_field():
    z = GridDensity([0, 0, 0], [1, 1, 1], np.zeros((8, 8, 8)))
    with pytest.raises(ValueError):
        level_set_check(H1, z)


def test_sobolev_check_passes():
    f = gaussian_density([-4, -4, -4], [4, 4, 4], (64,) * 3, sigma=(0.5, 0.5, 0.25))
    rep = sobolev_check(H1, f, r_norm=RN)
    assert rep.passed
    assert rep.metadata["exponent"] == pytest.approx(4 / 3)
    assert rep.lhs > 0


def test_sobolev_ratio_dilation_invariant():
    def at_scale(r):
        f = gaussian_density(
            [-4 * r, -4 * r, -4 * r * r],
            [4 * r, 4 * r, 4 * r * r],
            (64,) * 3,
            sigma=(0.5 * r, 0.5 * r, 0.25 * r * r),
        )
        rep = sobolev_check(H1, f, r_norm=RN)
        return rep.lhs / rep.rhs

    assert at_scale(1.0) == pytest.approx(at_scale(1.5), rel=2e-2)


def test_isoperimetric_check_passes_on_ball():
    def ball(pts):
        return (
            (pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2) <= 0.64
        ).astype(float)

    E = density_from_function(ball, [-1.2] * 3, [1.2] * 3, (64,) * 3)
    rep = isoperimetric_check(H1, E, r_norm=RN)
    assert rep.passed
    assert rep.lhs > 0


def test_isoperimetric_perimeter_grows_as_width_shrinks():
    E = random_set([-1, -1, -1], [1, 1, 1], (48,) * 3, seed=1)
    h = float(np.max(E.widths))
    rhs = [
        isoperimetric_check(H1, E, width=w, r_norm=RN).rhs
        for w in (4 * h, 2 * h, 1 * h)
    ]
    assert rhs[0] <= rhs[1] * (1 + 1e-9)
    assert rhs[1] <= rhs[2] * (1 + 1e-9)


def test_isoperimetric_validation():
    E = random_set([-1, -1, -1], [1, 1, 1], (16,) * 3, seed=2)
    with pytest.raises(ValueError):
        isoperimetric_check(H1, E, width=-0.5)
    not_set = GridDensity([0] * 3, [1] * 3, 0.3 * np.ones((4, 4, 4)))
    with pytest.raises(ValueError):
        isoperimetric_check(H1, not_set)
