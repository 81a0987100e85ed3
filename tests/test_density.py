import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotlw import (
    BlockDensity,
    CorankGroup,
    GridDensity,
    NumericalError,
    ProductDensity,
    box_indicator,
    chain_rule_residual,
    conditional_entropy_profile,
    coordinate_pushforward,
    corank_pushforward,
    density_from_function,
    dilate_density,
    entropy,
    gaussian_density,
    gaussian_product,
    gibbs_gap,
    interpolate,
    load_density,
    lp_norm,
    marginal,
    normalize,
    project_points,
    random_bumps,
    random_set,
    save_density,
    total_mass,
    triangle_density,
)
from carnotlw.density import _linear_sample

H1 = CorankGroup(0, 1, (1.0,))
GAUSS_1D_ENTROPY = -0.5 * math.log(2 * math.pi * math.e)


def _grid_points(f: GridDensity) -> np.ndarray:
    axes = [f.axis_centers(i) for i in range(f.k)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.k)


# ---------------------------------------------------------------------------
# basic grid calculus

def test_uniform_entropy_is_minus_log_volume():
    f = normalize(box_indicator([0, 0], [2, 1], (32, 16)))
    assert total_mass(f) == pytest.approx(1.0, abs=1e-12)
    assert entropy(f) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_uniform_interval_entropy():
    f = normalize(box_indicator([0], [2], (64,)))
    assert entropy(f) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_truncated_gaussian_entropy_1d():
    f = gaussian_density([-6], [6], (4096,))
    assert total_mass(f) == pytest.approx(1.0, abs=1e-6)
    assert entropy(f) == pytest.approx(GAUSS_1D_ENTROPY, abs=1e-3)


def test_truncated_gaussian_entropy_3d():
    f = gaussian_density([-6] * 3, [6] * 3, (64,) * 3)
    assert entropy(f) == pytest.approx(3 * GAUSS_1D_ENTROPY, abs=5e-3)


def test_lp_norms_of_uniform_block():
    f = box_indicator([0, 0], [1, 1], (20, 20), [0, 0], [0.5, 1.0])
    # value 1 on a box of volume 1/2
    assert lp_norm(f, 1) == pytest.approx(0.5, abs=1e-12)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert lp_norm(f, 1.5) == pytest.approx(0.5 ** (1 / 1.5), abs=1e-12)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_interpolate_recovers_cell_centers():
    f = random_bumps([-1, -1], [1, 1], (32, 32), seed=2)
    pts = _grid_points(f)
    np.testing.assert_allclose(
        interpolate(f, pts), f.values.reshape(-1), atol=1e-12
    )


def test_interpolate_linear_function_between_centers():
    f = density_from_function(
        lambda p: 2.0 * p[:, 0] + 3.0 * p[:, 1], [0, 0], [1, 1], (64, 64)
    )
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.2, 0.8, size=(50, 2))
    np.testing.assert_allclose(
        interpolate(f, pts), 2 * pts[:, 0] + 3 * pts[:, 1], atol=1e-10
    )


def test_edge_readers_on_constant_density():
    # 4 cells of value 1 on [0, 1]: centres 0.125, 0.375, 0.625, 0.875
    f = GridDensity([0.0], [1.0], np.ones(4))
    # interpolate is zero outside [first centre, last centre]
    np.testing.assert_array_equal(
        interpolate(f, np.array([[0.1], [0.9], [0.125]])), [0.0, 0.0, 1.0]
    )
    # the pushforward sampler fades to zero one cell past the last centre
    x = np.array([0.1, 1.0, 1.125])
    idx = (x - f.lower[0]) / f.widths[0] - 0.5
    np.testing.assert_allclose(
        _linear_sample(f.values[None, :], idx[None, :])[0], [0.9, 0.5, 0.0],
        atol=1e-12,
    )


def test_raster_across_chunks_matches_broadcast():
    lower, upper, res = np.array([0.0, 0.25, 0.5]), np.array([1.0, 2.0, 3.0]), 130
    assert res**3 > 1 << 21  # more cells than one chunk of the lattice walker
    f = density_from_function(
        lambda p: p[:, 0] + p[:, 1] + p[:, 2], lower, upper, (res,) * 3
    )
    x, y, t = (
        lower[a] + (upper[a] - lower[a]) / res * (np.arange(res) + 0.5)
        for a in range(3)
    )
    np.testing.assert_array_equal(
        f.values, x[:, None, None] + y[None, :, None] + t[None, None, :]
    )


def test_entropy_requires_probability_mass():
    f = box_indicator([0], [1], (16,))  # mass 1, fine
    entropy(f)
    with pytest.raises(ValueError, match="mass"):
        entropy(GridDensity(f.lower, f.upper, 2 * f.values))
    # opt-out skips the gate
    entropy(GridDensity(f.lower, f.upper, 2 * f.values), check_mass=False)


def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity([0, 0], [1, 1], np.ones(4))  # not 2-d values
    with pytest.raises(ValueError):
        GridDensity([1], [0], np.ones(4))  # empty box
    with pytest.raises(ValueError):
        GridDensity([0], [1], -np.ones(4))  # negative density


# ---------------------------------------------------------------------------
# triangle closed forms

def test_triangle_entropy_exact():
    for res in (64, 128):
        tri = triangle_density(res)
        assert total_mass(tri) == pytest.approx(1.0, abs=1e-12)
        assert entropy(tri) == pytest.approx(
            math.log(2) * (1 - 1 / res), abs=1e-12
        )


def test_triangle_marginal_entropy():
    res = 128
    tri = triangle_density(res)
    f_y, _ = conditional_entropy_profile(tri, 1)
    assert entropy(f_y, check_mass=False) == pytest.approx(
        math.log(2) - 0.5, abs=1.0 / res**2
    )


def test_triangle_conditional_profile_matches_minus_log():
    res = 128
    tri = triangle_density(res)
    f_y, profile = conditional_entropy_profile(tri, 1)
    y = f_y.axis_centers(0)
    mids = slice(res // 4, 3 * res // 4)
    np.testing.assert_allclose(profile[mids], -np.log(y[mids]), atol=2.0 / res)


def test_triangle_chain_rule_residual_machine_small():
    assert chain_rule_residual(triangle_density(96), 1) < 1e-12


def test_chain_rule_residual_random_density():
    f = random_bumps([-1, -1, -1], [1, 1, 1], (24, 24, 24), seed=9)
    assert chain_rule_residual(f, 1) < 1e-10
    assert chain_rule_residual(f, 2) < 1e-10


def test_conditional_profile_of_product_is_constant():
    g = normalize(box_indicator([0], [2], (32,)))
    h = random_bumps([0], [1], (32,), seed=4)
    f = ProductDensity((g, h)).rasterize()
    _, profile = conditional_entropy_profile(f, 1)
    ok = ~np.isnan(profile)
    np.testing.assert_allclose(profile[ok], entropy(g), atol=1e-10)


def test_conditional_profile_rejects_bad_split():
    tri = triangle_density(16)
    with pytest.raises(ValueError):
        conditional_entropy_profile(tri, 0)
    with pytest.raises(ValueError):
        conditional_entropy_profile(tri, 2)


# ---------------------------------------------------------------------------
# marginals, subadditivity, gibbs

def test_marginal_and_coordinate_pushforward_agree():
    f = random_bumps([-1, -1, -1], [1, 1, 1], (20, 24, 28), seed=7)
    a = marginal(f, keep_axes=[0, 2])
    b = coordinate_pushforward(f, drop_axes=[1])
    np.testing.assert_allclose(a.values, b.values, atol=1e-14)
    np.testing.assert_allclose(a.lower, b.lower)
    assert total_mass(a) == pytest.approx(1.0, abs=1e-9)


def test_entropy_superadditive_over_marginals():
    # int f ln f >= sum of marginal entropies, exactly, per-lattice
    for seed in range(5):
        f = random_bumps([-1, -1], [1, 1], (40, 40), seed=seed)
        s = entropy(f)
        sx = entropy(marginal(f, [0]), check_mass=False)
        sy = entropy(marginal(f, [1]), check_mass=False)
        assert s - sx - sy >= -1e-10


def test_entropy_additive_for_products():
    g = random_bumps([0], [1], (48,), seed=1)
    h = random_bumps([-2], [1], (36,), seed=2)
    f = ProductDensity((g, h)).rasterize()
    assert entropy(f) == pytest.approx(entropy(g) + entropy(h), abs=1e-10)


def test_gibbs_gap_vanishes_at_own_log_density():
    f = random_bumps([-1, -1], [1, 1], (32, 32), seed=3)
    with np.errstate(divide="ignore"):
        phi = np.where(f.values > 0, np.log(np.maximum(f.values, 1e-300)), -np.inf)
    assert abs(gibbs_gap(f, phi)) < 1e-9


def test_gibbs_gap_constant_potential_gives_kl_to_uniform():
    f = random_bumps([0, 0], [2, 1], (32, 32), seed=8)
    gap = gibbs_gap(f, np.full(f.values.shape, 1.7))
    assert gap == pytest.approx(entropy(f) + math.log(2.0), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(0.1, 2.0))
def test_gibbs_gap_nonnegative(seed, shift, scale):
    f = random_bumps([-1, -1], [1, 1], (24, 24), seed=seed % 100)
    rng = np.random.default_rng(seed)
    phi = shift + scale * rng.normal(size=f.values.shape)
    assert gibbs_gap(f, phi) >= -1e-9


def test_gibbs_gap_input_validation():
    f = random_bumps([0], [1], (16,), seed=0)
    with pytest.raises(ValueError):
        gibbs_gap(f, np.ones(8))  # wrong shape
    with pytest.raises(ValueError):
        gibbs_gap(f, np.full(16, np.nan))
    with pytest.raises(NumericalError):
        gibbs_gap(f, np.full(16, 1e4))  # exp overflow


# ---------------------------------------------------------------------------
# group pushforwards

def test_pushforward_mass_conserved():
    f = random_bumps([-1] * 3, [1] * 3, (32,) * 3, seed=11)
    for j in (1, 2, 3):
        push = corank_pushforward(H1, j, f)
        assert total_mass(push) == pytest.approx(1.0, abs=1e-12)


def test_pushforward_identity_against_direct_sum():
    # int phi(pi_j p) f(p) dp computed two ways must agree to rounding
    f = random_bumps([-1] * 3, [1] * 3, (24,) * 3, seed=5)
    pts = _grid_points(f)
    weights = f.values.reshape(-1) * f.cell_volume
    for j in (1, 2, 3):
        push = corank_pushforward(H1, j, f)
        proj = project_points(H1, j, pts)
        phi = lambda a, b: a**2 + 0.5 * b + 0.3 * a * b
        lhs = float((phi(proj[:, 0], proj[:, 1]) * weights).sum())
        y0, y1 = push.axis_centers(0), push.axis_centers(1)
        Y0, Y1 = np.meshgrid(y0, y1, indexing="ij")
        rhs = float((phi(Y0, Y1) * push.values).sum() * push.cell_volume)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pushforward_vertical_projection_is_t_marginal():
    f = random_bumps([-1] * 3, [1] * 3, (20,) * 3, seed=6)
    push = corank_pushforward(H1, 3, f)
    direct = marginal(f, keep_axes=[0, 1])
    np.testing.assert_allclose(push.values, direct.values, atol=1e-13)


def test_pushforward_of_standard_gaussian_analytic():
    # image of the standard gaussian under the first projection is
    # g(y) * N(0, 1 + y^2/4)(u): the shear mixes t with x_own * y / 2
    res = 64
    f = normalize(gaussian_density([-6] * 3, [6] * 3, (res,) * 3))
    push = corank_pushforward(H1, 1, f)
    y = push.axis_centers(0)
    u = push.axis_centers(1)
    Y, U = np.meshgrid(y, u, indexing="ij")
    var = 1.0 + Y**2 / 4.0
    exact = (
        np.exp(-0.5 * Y**2) / math.sqrt(2 * math.pi)
        * np.exp(-0.5 * U**2 / var) / np.sqrt(2 * math.pi * var)
    )
    l1 = float(np.abs(push.values - exact).sum() * push.cell_volume)
    assert l1 < 0.3 / res


def test_pushforward_of_uniform_cube_interior_value():
    # slicing the sheared cube mid-support gives a fiber of full length 1;
    # support touching the vertical boundary must be flagged and padded
    res = 48
    f = box_indicator([0, 0, 0], [1, 1, 1], (res,) * 3)
    with pytest.warns(UserWarning, match="padding"):
        push = corank_pushforward(H1, 1, normalize(f))
    y = push.axis_centers(0)
    u = push.axis_centers(1)
    iy = int(np.argmin(np.abs(y - 0.5)))
    iu = int(np.argmin(np.abs(u - 0.5)))
    assert push.values[iy, iu] == pytest.approx(1.0, abs=2.0 / res)


def test_pushforward_entropy_drop_axes_consistency():
    # dropping all coordinates but one equals the 1-d marginal
    G = CorankGroup(1, 1, (2.0,))
    f = random_bumps([-1] * 4, [1] * 4, (16,) * 4, seed=13)
    push = corank_pushforward(G, G.topo_dim, f)
    direct = marginal(f, keep_axes=[0, 1, 2])
    np.testing.assert_allclose(push.values, direct.values, atol=1e-13)


def test_pushforward_product_matches_grid():
    # factored path and materialized path are the same lattice sums
    G = CorankGroup(0, 2, (1.0, 2.0))
    res = 16
    prod = gaussian_product([-7] * 5, [7] * 5, (res,) * 5, sigma=1.1)
    grid = prod.rasterize()
    for j in range(1, G.topo_dim + 1):
        pushed_blocks = corank_pushforward(G, j, prod)
        pushed_grid = corank_pushforward(G, j, grid)
        assert isinstance(pushed_blocks, BlockDensity)
        assert total_mass(pushed_blocks) == pytest.approx(
            total_mass(pushed_grid), abs=1e-12
        )
        assert entropy(pushed_blocks, check_mass=False) == pytest.approx(
            entropy(pushed_grid, check_mass=False), abs=1e-10
        )


def test_product_density_entropy_matches_rasterized():
    prod = gaussian_product([-4] * 3, [4] * 3, (24, 20, 28), sigma=0.9)
    assert entropy(prod) == pytest.approx(entropy(prod.rasterize()), abs=1e-10)
    assert total_mass(prod) == pytest.approx(1.0, abs=1e-12)


def test_pushforward_rejects_mismatched_density():
    f = random_bumps([-1, -1], [1, 1], (16, 16), seed=0)
    with pytest.raises(ValueError):
        corank_pushforward(H1, 1, f)  # 2-d density on a 3-d group


# ---------------------------------------------------------------------------
# dilation

def test_dilation_entropy_shift_exact():
    f = random_bumps([-1] * 3, [1] * 3, (24,) * 3, seed=21)
    for r in (0.5, 2.0, 3.7):
        g = dilate_density(H1, r, f)
        assert total_mass(g) == pytest.approx(1.0, abs=1e-12)
        assert entropy(g) == pytest.approx(
            entropy(f) - H1.homogeneous_dim * math.log(r), abs=1e-10
        )


def test_dilation_geometry():
    f = box_indicator([0, 0, 0], [1, 1, 1], (8,) * 3)
    g = dilate_density(H1, 2.0, f)
    np.testing.assert_allclose(g.upper, [2, 2, 4])
    assert g.values.max() == pytest.approx(2.0 ** -4)
    with pytest.raises(ValueError):
        dilate_density(H1, -1.0, f)


# ---------------------------------------------------------------------------
# builders and serialization

def test_random_set_is_indicator():
    E = random_set([-1, -1], [1, 1], (40, 40), seed=3)
    assert set(np.unique(E.values)) <= {0.0, 1.0}
    assert E.values.sum() > 0


def test_random_bumps_compact_support():
    f = random_bumps([-1, -1], [1, 1], (48, 48), seed=14)
    assert np.all(f.values[0, :] == 0)
    assert np.all(f.values[-1, :] == 0)
    assert np.all(f.values[:, 0] == 0)
    assert np.all(f.values[:, -1] == 0)
    assert total_mass(f) == pytest.approx(1.0, abs=1e-12)


def test_random_bumps_clipping_guard():
    with pytest.raises(ValueError, match="clipped"):
        random_bumps([0], [1], (16,), spread=0.4, sigma_range=(0.05, 0.1))


def test_density_round_trip_npz(tmp_path):
    f = random_bumps([-1, 0], [1, 2], (24, 16), seed=17)
    path = str(tmp_path / "f.npz")
    save_density(path, f)
    g = load_density(path)
    np.testing.assert_array_equal(f.values, g.values)
    np.testing.assert_array_equal(f.lower, g.lower)


def test_density_round_trip_text(tmp_path):
    f = random_bumps([-1, 0], [1, 2], (12, 10), seed=18)
    path = str(tmp_path / "f.dat")
    save_density(path, f)
    g = load_density(path)
    np.testing.assert_allclose(f.values, g.values, rtol=0, atol=0)
    np.testing.assert_array_equal(f.res, g.res)


def test_load_density_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("not a density\n")
    with pytest.raises(ValueError):
        load_density(str(path))


def test_product_density_shape_checks():
    g = random_bumps([0], [1], (8,), seed=0)
    with pytest.raises(ValueError):
        ProductDensity(())
    p = ProductDensity((g, g))
    assert p.k == 2
    assert p.res == (8, 8)
