import math

import numpy as np
import pytest

from carnotlw import (
    RNORM_SAFETY,
    SinogramGrid,
    box_indicator,
    default_family,
    default_radon_norm,
    estimate_radon_norm_lb,
    gaussian_density,
    lp_norm,
    radon_ratio,
    radon_transform,
    random_bumps,
    sinogram_norm,
)
from carnotlw.radon import _disk_density

DISK_RATIO = 6.0 ** (1.0 / 3.0)
GAUSS_RATIO = math.sqrt(3.0) * (math.pi / 2.0) ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def disk_sinogram():
    res = 256
    f = _disk_density(res)
    return f, radon_transform(f, res, res)


# ---------------------------------------------------------------------------
# transform values

def test_disk_chord_profile(disk_sinogram):
    f, sino = disk_sinogram
    s = sino.offsets
    mid = np.abs(s) <= 0.9
    exact = 2.0 * np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    for row in (0, sino.n_angles // 3):
        np.testing.assert_allclose(
            sino.values[row][mid], exact[mid], atol=2e-2
        )


def test_disk_norms(disk_sinogram):
    f, sino = disk_sinogram
    assert sinogram_norm(sino, 3.0) == pytest.approx(
        (6.0 * math.pi**2) ** (1.0 / 3.0), rel=1e-2
    )
    assert lp_norm(f, 1.5) == pytest.approx(math.pi ** (2.0 / 3.0), rel=1e-2)


def test_disk_ratio(disk_sinogram):
    f, sino = disk_sinogram
    ratio = sinogram_norm(sino, 3.0) / lp_norm(f, 1.5)
    assert ratio == pytest.approx(DISK_RATIO, rel=2e-2)


def test_gaussian_ratio():
    g = gaussian_density([-6, -6], [6, 6], (160, 160))
    assert radon_ratio(g) == pytest.approx(GAUSS_RATIO, rel=2e-2)


def test_mass_projection_every_angle():
    f = random_bumps([-1, -1], [1, 1], (96, 96), seed=2)
    sino = radon_transform(f, 48, 128)
    ds = 2 * sino.s_max / sino.n_offsets
    masses = sino.values.sum(axis=1) * ds
    np.testing.assert_allclose(masses, 1.0, atol=1e-3)


def test_rotation_invariance_for_radial_density():
    g = gaussian_density([-4, -4], [4, 4], (128, 128), sigma=0.6)
    sino = radon_transform(g, 24, 96)
    spread = np.abs(sino.values - sino.values[0][None, :]).max()
    assert spread < 1e-3


def test_ratio_dilation_invariant():
    # the continuum ratio does not depend on the disk radius
    small = _disk_density(192, radius=0.6)
    big = _disk_density(192, radius=1.0)
    assert radon_ratio(small) == pytest.approx(radon_ratio(big), rel=1e-2)


def test_sinogram_norm_constant_one():
    sino = SinogramGrid(np.ones((16, 32)), s_max=0.5)
    assert sinogram_norm(sino, 3.0) == pytest.approx(
        (2 * math.pi) ** (1.0 / 3.0), abs=1e-12
    )


def test_unit_square_density_norm():
    f = box_indicator([0, 0], [1, 1], (64, 64))
    assert lp_norm(f, 1.5) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# norm lower bound machinery

def test_lower_bound_monotone_in_family():
    small = estimate_radon_norm_lb(family=("gauss:0.35",), resolutions=(96,))
    large = estimate_radon_norm_lb(
        family=("gauss:0.35", "disk"), resolutions=(96,)
    )
    assert large.lb >= small.lb
    assert len(large.ratios) == 2


def test_lower_bound_reports_best_member():
    bound = estimate_radon_norm_lb(family=("gauss:0.35", "disk"), resolutions=(96,))
    ratios = dict(bound.ratios)
    assert bound.lb == max(ratios.values())
    assert ratios[bound.best] == bound.lb


def test_default_radon_norm_configuration():
    value = default_radon_norm()
    # safety factor on top of a bound that at least matches the disk
    assert value > DISK_RATIO
    assert value < 3.0
    bound = estimate_radon_norm_lb(resolutions=(160,))
    assert value == pytest.approx(bound.lb * RNORM_SAFETY, rel=1e-12)
    assert set(dict(bound.ratios)) == set(default_family())


# ---------------------------------------------------------------------------
# validation

def test_radon_transform_input_checks():
    f3 = random_bumps([-1] * 3, [1] * 3, (8,) * 3, seed=0)
    with pytest.raises(ValueError):
        radon_transform(f3, 8, 8)
    f = random_bumps([-1, -1], [1, 1], (16, 16), seed=0)
    with pytest.raises(ValueError):
        radon_transform(f, 8, 8, s_max=0.5)  # does not cover the box


def test_zero_density_rejected():
    f = box_indicator([0, 0], [1, 1], (8, 8), [2, 2], [3, 3])  # empty raster
    with pytest.raises(ValueError):
        radon_ratio(f)


def test_sinogram_norm_requires_p_geq_one():
    sino = SinogramGrid(np.ones((4, 4)), s_max=1.0)
    with pytest.raises(ValueError):
        sinogram_norm(sino, 0.5)


def test_family_descriptor_errors():
    with pytest.raises(ValueError):
        estimate_radon_norm_lb(family=("nope",), resolutions=(32,))
    with pytest.raises(ValueError):
        estimate_radon_norm_lb(family=(), resolutions=(32,))
