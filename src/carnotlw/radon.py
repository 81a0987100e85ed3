"""Planar Radon transform and the L^{3/2} -> L^3 operator-norm lower bound.

Lines are parametrised by a unit direction sigma (the normal) and an offset
s; the transform integrates a density over {x : <x, sigma> = s}.  Directions
run over the full circle with the uniform measure of total mass 2*pi, so a
sinogram integral carries the factor 2*pi / n_angles.

The operator norm of the transform from L^{3/2} to L^3 enters the corank
inequality constants.  Its exact value is left as configuration; this module
supplies certified-from-below estimates: the best ratio ||Rf||_3 / ||f||_{3/2}
over a family of test densities, which is monotone in the family and
converges from below as resolution grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .density import (
    GridDensity,
    density_from_function,
    gaussian_density,
    interpolate,
    lp_norm,
    random_bumps,
)

__all__ = [
    "SinogramGrid",
    "RadonNormBound",
    "radon_transform",
    "sinogram_norm",
    "radon_ratio",
    "estimate_radon_norm_lb",
    "default_family",
    "default_radon_norm",
    "RNORM_SAFETY",
]

# documented safety factor applied on top of the best computed lower bound
RNORM_SAFETY = 1.05


@dataclass(frozen=True)
class SinogramGrid:
    """Samples R f(sigma_i, s_l) on a uniform angle x offset grid.

    Angles are midpoints of [0, 2*pi); offsets are cell midpoints of
    [-s_max, s_max].
    """

    values: np.ndarray
    s_max: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"sinogram values must be 2-D, got shape {values.shape}")
        if self.s_max <= 0:
            raise ValueError(f"s_max must be positive, got {self.s_max}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_angles(self) -> int:
        return self.values.shape[0]

    @property
    def n_offsets(self) -> int:
        return self.values.shape[1]

    @property
    def angles(self) -> np.ndarray:
        return 2 * math.pi * (np.arange(self.n_angles) + 0.5) / self.n_angles

    @property
    def offsets(self) -> np.ndarray:
        ds = 2 * self.s_max / self.n_offsets
        return -self.s_max + ds * (np.arange(self.n_offsets) + 0.5)


def _corner_radius(f: GridDensity) -> float:
    corners = np.array(
        [[x, y] for x in (f.lower[0], f.upper[0]) for y in (f.lower[1], f.upper[1])]
    )
    return float(np.max(np.linalg.norm(corners, axis=1)))


def radon_transform(
    f: GridDensity,
    n_angles: int,
    n_offsets: int,
    s_max: Optional[float] = None,
    oversample: float = 2.0,
) -> SinogramGrid:
    """Line integrals of a planar density on an angle x offset grid.

    Each line is sampled at spacing min(cell side)/oversample with bilinear
    interpolation (zero outside the box) and summed.  The offset range must
    cover the box; by default it is the largest corner radius.
    """
    if f.k != 2:
        raise ValueError(f"radon_transform needs a planar density, got {f.k}-D")
    radius = _corner_radius(f)
    if s_max is None:
        s_max = radius
    elif s_max < radius:
        raise ValueError(
            f"offset range {s_max} does not cover the support (needs >= {radius})"
        )
    du = float(np.min(f.widths)) / oversample
    n_u = int(np.ceil(2 * radius / du))
    u = -radius + du * (np.arange(n_u) + 0.5)
    ds = 2 * s_max / n_offsets
    s = -s_max + ds * (np.arange(n_offsets) + 0.5)

    values = np.empty((n_angles, n_offsets))
    pts = np.empty((n_offsets, n_u, 2))
    for i in range(n_angles):
        theta = 2 * math.pi * (i + 0.5) / n_angles
        normal = np.array([math.cos(theta), math.sin(theta)])
        along = np.array([-normal[1], normal[0]])
        pts[:] = s[:, None, None] * normal + u[None, :, None] * along
        samples = interpolate(f, pts.reshape(-1, 2)).reshape(n_offsets, n_u)
        values[i] = samples.sum(axis=1) * du
    return SinogramGrid(values, float(s_max))


def sinogram_norm(sino: SinogramGrid, p: float) -> float:
    """L^p norm over the cylinder, with the angle measure of mass 2*pi."""
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    d_angle = 2 * math.pi / sino.n_angles
    ds = 2 * sino.s_max / sino.n_offsets
    return float((np.abs(sino.values) ** p).sum() * d_angle * ds) ** (1.0 / p)


def radon_ratio(
    f: GridDensity,
    n_angles: Optional[int] = None,
    n_offsets: Optional[int] = None,
) -> float:
    """The ratio ||Rf||_3 / ||f||_{3/2}; a lower bound for the operator norm."""
    base = max(f.res)
    n_angles = base if n_angles is None else n_angles
    n_offsets = base if n_offsets is None else n_offsets
    denom = lp_norm(f, 1.5)
    if denom == 0:
        raise ValueError("density is identically zero")
    sino = radon_transform(f, n_angles, n_offsets)
    return sinogram_norm(sino, 3.0) / denom


@dataclass(frozen=True)
class RadonNormBound:
    lb: float
    best: str
    ratios: tuple[tuple[str, float], ...]


def _disk_density(res: int, radius: float = 1.0) -> GridDensity:
    half = 1.2 * radius * np.ones(2)
    return density_from_function(
        lambda pts: ((pts * pts).sum(axis=1) <= radius * radius).astype(float),
        -half, half, (res, res))


def _family_density(descriptor: str, res: int) -> GridDensity:
    kind, _, arg = descriptor.partition(":")
    box = np.array([1.6, 1.6])
    if kind == "disk":
        return _disk_density(res, float(arg) if arg else 1.0)
    if kind == "gauss":
        sigma = float(arg) if arg else 0.35
        return gaussian_density(-box, box, (res, res), sigma=sigma)
    if kind == "aniso":
        sx, _, sy = arg.partition(",")
        sigma = (float(sx) if sx else 0.45, float(sy) if sy else 0.25)
        return gaussian_density(-box, box, (res, res), sigma=sigma)
    if kind == "bumps":
        seed = int(arg) if arg else 0
        return random_bumps(-box, box, (res, res), seed=seed)
    raise ValueError(f"unknown family member {descriptor!r}")


def default_family() -> tuple[str, ...]:
    return ("disk", "gauss:0.35", "aniso:0.45,0.25", "bumps:0", "bumps:1")


def estimate_radon_norm_lb(
    family: Optional[Sequence[str]] = None,
    resolutions: Sequence[int] = (192,),
) -> RadonNormBound:
    """Best transform ratio over a family of test densities.

    The result is a certified-from-converging-quadrature lower bound for the
    operator norm; it can only grow when the family grows.
    """
    members = tuple(family) if family is not None else default_family()
    if not members:
        raise ValueError("family must not be empty")
    ratios = []
    for descriptor in members:
        best_for_member = max(
            radon_ratio(_family_density(descriptor, res)) for res in resolutions
        )
        ratios.append((descriptor, best_for_member))
    best, lb = max(ratios, key=lambda item: item[1])
    return RadonNormBound(lb, best, tuple(ratios))


@lru_cache(maxsize=1)
def default_radon_norm() -> float:
    """Configured default for the operator norm: best lower bound x safety.

    Pinned configuration (default family at resolution 160) so the value is
    reproducible across runs; override per call or via CARNOT_LW_RNORM.
    """
    return estimate_radon_norm_lb(resolutions=(160,)).lb * RNORM_SAFETY
