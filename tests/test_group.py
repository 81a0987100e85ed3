import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotlw.group import (
    CorankGroup,
    decompose,
    dilate,
    group_from_json,
    group_to_dict,
    horizontal_gradient,
    identity,
    inverse,
    multiply,
    point,
    project,
    project_points,
    projected_dilate,
    t_derivative,
)

H1 = CorankGroup(0, 1, (1.0,))


def _coords(p):
    return np.concatenate([p.x, [p.t]])


# ---------------------------------------------------------------------------
# construction

def test_dimensions():
    G = CorankGroup(1, 2, (1.0, 3.0))
    assert G.horizontal_dim == 5
    assert G.topo_dim == 6
    assert G.homogeneous_dim == 7


@pytest.mark.parametrize(
    "d,n,alpha",
    [(-1, 1, (1.0,)), (0, 0, ()), (0, 1, (-1.0,)), (0, 2, (2.0, 1.0)),
     (0, 2, (1.0,))],
)
def test_invalid_groups_rejected(d, n, alpha):
    with pytest.raises(ValueError):
        CorankGroup(d, n, alpha)


def test_group_json_round_trip():
    G = CorankGroup(1, 2, (1.0, 2.0))
    assert group_from_json(json.dumps(group_to_dict(G))) == G
    assert group_from_json('{"d":1,"n":2,"alpha":[1.0,2.0]}') == G


# ---------------------------------------------------------------------------
# group law

def test_product_h1():
    p = point(H1, [1, 0, 0])
    q = point(H1, [0, 1, 0])
    np.testing.assert_allclose(_coords(multiply(H1, p, q)), [1, 1, 0.5])


def test_product_weighted_pair_with_commuting_direction():
    G = CorankGroup(1, 1, (2.0,))
    p = point(G, [1, 1, 0, 0])
    q = point(G, [0, 0, 1, 0])
    np.testing.assert_allclose(_coords(multiply(G, p, q)), [1, 1, 1, 1])


def test_identity_and_inverse():
    G = CorankGroup(1, 2, (1.0, 2.5))
    rng = np.random.default_rng(3)
    p = point(G, rng.normal(size=G.topo_dim))
    e = identity(G)
    np.testing.assert_allclose(_coords(multiply(G, p, e)), _coords(p))
    np.testing.assert_allclose(_coords(multiply(G, e, p)), _coords(p))
    np.testing.assert_allclose(_coords(inverse(G, p)), -_coords(p))
    np.testing.assert_allclose(
        _coords(multiply(G, p, inverse(G, p))), np.zeros(G.topo_dim),
        atol=1e-12,
    )


def test_inverse_h1_example():
    p = point(H1, [1, 1, 0.5])
    np.testing.assert_allclose(_coords(inverse(H1, p)), [-1, -1, -0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 2), st.data())
def test_associativity(d, n, data):
    alpha = tuple(
        sorted(
            data.draw(
                st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n)
            )
        )
    )
    G = CorankGroup(d, n, alpha)
    draw_pt = lambda: point(
        G,
        data.draw(
            st.lists(
                st.floats(-5, 5), min_size=G.topo_dim, max_size=G.topo_dim
            )
        ),
    )
    p, q, r = draw_pt(), draw_pt(), draw_pt()
    left = multiply(G, p, multiply(G, q, r))
    right = multiply(G, multiply(G, p, q), r)
    np.testing.assert_allclose(_coords(left), _coords(right), atol=1e-9)


# ---------------------------------------------------------------------------
# dilations

def test_dilate_examples():
    p = point(H1, [1, 1, 1])
    np.testing.assert_allclose(_coords(dilate(H1, 2.0, p)), [2, 2, 4])
    np.testing.assert_allclose(_coords(dilate(H1, 1.0, p)), [1, 1, 1])
    with pytest.raises(ValueError):
        dilate(H1, 0.0, p)


def test_dilate_composition_and_automorphism():
    G = CorankGroup(0, 2, (1.0, 2.0))
    rng = np.random.default_rng(7)
    p = point(G, rng.normal(size=G.topo_dim))
    q = point(G, rng.normal(size=G.topo_dim))
    a = dilate(G, 1.5, dilate(G, 2.0, p))
    b = dilate(G, 3.0, p)
    np.testing.assert_allclose(_coords(a), _coords(b), atol=1e-12)
    lhs = dilate(G, 2.0, multiply(G, p, q))
    rhs = multiply(G, dilate(G, 2.0, p), dilate(G, 2.0, q))
    np.testing.assert_allclose(_coords(lhs), _coords(rhs), atol=1e-12)


def test_rasterized_volume_scales_by_homogeneous_dimension():
    # dilation by r maps the unit box to a box of volume r^Q
    G = CorankGroup(0, 1, (1.0,))
    r = 1.7
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(20000, 3))
    imgs = np.array([_coords(dilate(G, r, point(G, p))) for p in pts])
    spans = imgs.max(axis=0) - imgs.min(axis=0)
    vol_ratio = np.prod(spans)
    assert vol_ratio == pytest.approx(r ** G.homogeneous_dim, rel=2e-2)


# ---------------------------------------------------------------------------
# projections

def test_projection_examples_h1():
    p = point(H1, [1, 1, 0])
    np.testing.assert_allclose(project(H1, 1, p), [1, 0.5])
    np.testing.assert_allclose(project(H1, 2, p), [1, -0.5])
    np.testing.assert_allclose(project(H1, 3, p), [1, 1])


def test_projection_commuting_direction_keeps_t():
    G = CorankGroup(2, 1, (1.0,))
    p = point(G, [3, 4, 1, 2, 7])
    np.testing.assert_allclose(project(G, 1, p), [4, 1, 2, 7])
    np.testing.assert_allclose(project(G, 2, p), [3, 1, 2, 7])


def test_project_points_matches_project():
    G = CorankGroup(1, 2, (1.0, 2.0))
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(40, G.topo_dim))
    for j in range(1, G.topo_dim + 1):
        batch = project_points(G, j, pts)
        rows = [project(G, j, point(G, c)) for c in pts]
        np.testing.assert_allclose(batch, np.array(rows), atol=1e-12)


def test_projection_invariant_along_axis():
    # pi_j(p . l e_j) = pi_j(p) for every j and shift l
    G = CorankGroup(1, 2, (1.0, 2.0))
    rng = np.random.default_rng(5)
    for j in range(1, G.topo_dim + 1):
        p = point(G, rng.normal(size=G.topo_dim))
        for ell in (-2.0, 0.3, 1.7):
            shift = np.zeros(G.topo_dim)
            shift[j - 1] = ell
            q = multiply(G, p, point(G, shift))
            np.testing.assert_allclose(
                project(G, j, p), project(G, j, q), atol=1e-12
            )


def test_decompose_round_trip():
    G = CorankGroup(1, 2, (1.0, 2.0))
    rng = np.random.default_rng(13)
    for j in range(1, G.topo_dim + 1):
        p = point(G, rng.normal(size=G.topo_dim))
        base, ell = decompose(G, j, p)
        assert _coords(base)[j - 1] == pytest.approx(0.0, abs=1e-12)
        shift = np.zeros(G.topo_dim)
        shift[j - 1] = ell
        rebuilt = multiply(G, base, point(G, shift))
        np.testing.assert_allclose(_coords(rebuilt), _coords(p), atol=1e-12)


def test_decompose_center():
    p = point(H1, [2.0, 3.0, 5.0])
    base, ell = decompose(H1, 3, p)
    np.testing.assert_allclose(_coords(base), [2, 3, 0])
    assert ell == pytest.approx(5.0)


def test_decompose_fixed_point_in_target():
    p = point(H1, [0.0, 3.0, 5.0])  # first coordinate already zero
    base, ell = decompose(H1, 1, p)
    assert ell == pytest.approx(0.0)
    np.testing.assert_allclose(_coords(base), _coords(p))


def test_projected_dilate_examples():
    y = np.array([1.5, 0.25])
    np.testing.assert_allclose(projected_dilate(H1, 1, 2.0, y), [3.0, 1.0])
    np.testing.assert_allclose(projected_dilate(H1, 1, 1.0, y), y)
    np.testing.assert_allclose(projected_dilate(H1, 3, 2.0, y), 2 * y)


def test_projected_dilate_commutes_with_projection():
    G = CorankGroup(1, 2, (1.0, 2.0))
    rng = np.random.default_rng(17)
    for j in range(1, G.topo_dim + 1):
        for r in (0.5, 2.3):
            p = point(G, rng.normal(size=G.topo_dim))
            lhs = project(G, j, dilate(G, r, p))
            rhs = projected_dilate(G, j, r, project(G, j, p))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# left-invariant derivatives

def test_horizontal_gradient_of_t():
    grad = horizontal_gradient(H1, lambda p: p.t, point(H1, [1, 1, 0]))
    np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-8)


def test_horizontal_gradient_weighted():
    G = CorankGroup(0, 1, (2.0,))
    grad = horizontal_gradient(G, lambda p: p.t, point(G, [1, 1, 0]))
    np.testing.assert_allclose(grad, [-1.0, 1.0], atol=1e-8)


def test_horizontal_gradient_of_coordinate_square():
    G = CorankGroup(1, 1, (1.0,))
    rng = np.random.default_rng(23)
    p = point(G, rng.normal(size=4))
    grad = horizontal_gradient(G, lambda q: q.x[0] ** 2, p)
    np.testing.assert_allclose(grad, [2 * p.x[0], 0.0, 0.0], atol=1e-6)


def test_horizontal_gradient_constant_and_t_derivative():
    grad = horizontal_gradient(H1, lambda p: 3.0, point(H1, [0.4, -1, 2]))
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-10)
    dt = t_derivative(H1, lambda p: 2.0 * p.t, point(H1, [0.4, -1, 2]))
    assert dt == pytest.approx(2.0, abs=1e-8)


def test_commutator_gives_vertical_derivative():
    # [X_1, X_2] f = alpha * df/dt, checked on f = t with nested differences
    G = CorankGroup(0, 1, (2.5,))
    f = lambda p: p.t
    p0 = point(G, [0.3, -0.7, 0.2])
    h = 1e-4
    x1_of_x2 = horizontal_gradient(
        G, lambda q: horizontal_gradient(G, f, q, h=h)[1], p0, h=h
    )[0]
    x2_of_x1 = horizontal_gradient(
        G, lambda q: horizontal_gradient(G, f, q, h=h)[0], p0, h=h
    )[1]
    assert x1_of_x2 - x2_of_x1 == pytest.approx(2.5, abs=1e-4)
