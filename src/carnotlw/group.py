"""Exact algebra for corank-1 Carnot groups.

A group here is R^(d+2n) x R with coordinates (x_1..x_d, x_{d+1}..x_{d+2n}, t):
d commuting directions, n symplectic pairs with weights alpha, and a single
vertical direction t.  The product twists t by the weighted symplectic form of
the pair block; everything else is Euclidean.  All operations are exact up to
floating point -- no discretisation happens in this module.

Indices follow the mathematical convention: projections and horizontal
directions are numbered j = 1 .. d+2n (+1 for the vertical projection), and
pair i = 1 .. n couples coordinates d+2i-1 and d+2i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "CorankGroup",
    "GroupPoint",
    "group_from_json",
    "group_to_dict",
    "identity",
    "point",
    "multiply",
    "inverse",
    "dilate",
    "project",
    "project_points",
    "decompose",
    "projected_dilate",
    "horizontal_gradient",
    "t_derivative",
]


@dataclass(frozen=True)
class CorankGroup:
    """Corank-1 Carnot group with d commuting directions and n weighted pairs.

    alpha must be positive and nondecreasing; its length is n.
    """

    d: int
    n: int
    alpha: tuple[float, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) != self.n:
            raise ValueError(f"alpha must have length n={self.n}, got {len(alpha)}")
        if alpha[0] <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if any(a > b for a, b in zip(alpha, alpha[1:])):
            raise ValueError(f"alpha must be nondecreasing, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def horizontal_dim(self) -> int:
        """Number of horizontal directions d+2n."""
        return self.d + 2 * self.n

    @property
    def topo_dim(self) -> int:
        """Topological dimension d+2n+1."""
        return self.d + 2 * self.n + 1

    @property
    def homogeneous_dim(self) -> int:
        """Homogeneous dimension Q = d+2n+2 (t counts twice under dilation)."""
        return self.d + 2 * self.n + 2

    def pair_of(self, j: int) -> Optional[int]:
        """Pair index i (1-based) owning horizontal direction j, None if j <= d."""
        self._check_direction(j)
        if j <= self.d:
            return None
        return (j - self.d + 1) // 2

    def partner(self, j: int) -> int:
        """The other horizontal direction of j's pair (1-based)."""
        i = self.pair_of(j)
        if i is None:
            raise ValueError(f"direction {j} is commuting and has no partner")
        a, b = self.d + 2 * i - 1, self.d + 2 * i
        return b if j == a else a

    def _check_direction(self, j: int) -> None:
        if not 1 <= j <= self.horizontal_dim:
            raise ValueError(
                f"horizontal direction must be in 1..{self.horizontal_dim}, got {j}"
            )

    def check_projection_index(self, j: int) -> None:
        if not 1 <= j <= self.topo_dim:
            raise ValueError(
                f"projection index must be in 1..{self.topo_dim}, got {j}"
            )


class GroupPoint:
    """A point (x, t) with x in R^(d+2n) and vertical coordinate t."""

    __slots__ = ("x", "t")

    def __init__(self, x: Sequence[float], t: float):
        arr = np.array(x, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"x must be a flat vector, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "t", float(t))

    def __setattr__(self, name, value):
        raise AttributeError("GroupPoint is immutable")

    def as_array(self) -> np.ndarray:
        """Coordinates as a flat array (x_1, ..., x_{d+2n}, t)."""
        return np.append(self.x, self.t)

    def __repr__(self):
        coords = ", ".join(f"{v:g}" for v in self.x)
        return f"GroupPoint([{coords}], t={self.t:g})"

    def __eq__(self, other):
        if not isinstance(other, GroupPoint):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.x, other.x)


def group_from_json(text: str) -> CorankGroup:
    """Parse a group description '{"d": .., "n": .., "alpha": [..]}'."""
    try:
        obj = json.loads(text)
        return CorankGroup(int(obj["d"]), int(obj["n"]), tuple(obj["alpha"]))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid group description: {exc}") from exc


def group_to_dict(G: CorankGroup) -> dict:
    """The description ``group_from_json`` reads, as a JSON-ready dict."""
    return {"d": G.d, "n": G.n, "alpha": list(G.alpha)}


def identity(G: CorankGroup) -> GroupPoint:
    return GroupPoint(np.zeros(G.horizontal_dim), 0.0)


def point(G: CorankGroup, coords: Sequence[float]) -> GroupPoint:
    """Build a point from the d+2n+1 coordinates (x..., t)."""
    arr = np.asarray(coords, dtype=float)
    if arr.shape != (G.topo_dim,):
        raise ValueError(
            f"expected {G.topo_dim} coordinates for {G}, got shape {arr.shape}"
        )
    return GroupPoint(arr[:-1], arr[-1])


def _check_point(G: CorankGroup, p: GroupPoint) -> None:
    if p.x.shape != (G.horizontal_dim,):
        raise ValueError(
            f"point has horizontal dimension {p.x.shape[0]}, "
            f"group needs {G.horizontal_dim}"
        )


def _symplectic(G: CorankGroup, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weighted symplectic form sum_i alpha_i (x_a y_b - x_b y_a) over pairs."""
    d = G.d
    xa, xb = x[..., d::2], x[..., d + 1 :: 2]
    ya, yb = y[..., d::2], y[..., d + 1 :: 2]
    alpha = np.asarray(G.alpha)
    return ((xa * yb - xb * ya) * alpha).sum(axis=-1)


def multiply(G: CorankGroup, p: GroupPoint, q: GroupPoint) -> GroupPoint:
    """Group product (p.x + q.x, p.t + q.t + symplectic twist / 2)."""
    _check_point(G, p)
    _check_point(G, q)
    t = p.t + q.t + 0.5 * _symplectic(G, p.x, q.x)
    return GroupPoint(p.x + q.x, t)


def inverse(G: CorankGroup, p: GroupPoint) -> GroupPoint:
    _check_point(G, p)
    return GroupPoint(-p.x, -p.t)


def dilate(G: CorankGroup, r: float, p: GroupPoint) -> GroupPoint:
    """Anisotropic dilation: x scales by r, t by r^2."""
    _check_point(G, p)
    if r <= 0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    return GroupPoint(r * p.x, r * r * p.t)


def _pair_columns(G: CorankGroup, j: int) -> tuple[int, int, float, float]:
    """0-based (own, partner) columns, weight and twist sign for direction j."""
    i = G.pair_of(j)
    assert i is not None
    a = G.d + 2 * i - 2
    b = a + 1
    own = j - 1
    partner = b if own == a else a
    # first member of the pair picks up +alpha/2 x_a x_b, second member -alpha/2
    sign = 1.0 if own == a else -1.0
    return own, partner, G.alpha[i - 1], sign


def project_points(G: CorankGroup, j: int, pts: np.ndarray) -> np.ndarray:
    """Apply the j-th projection to an (..., d+2n+1) array of coordinates.

    For j <= d+2n the image point is (x with slot j removed, t twisted by the
    pair shear); for j = d+2n+1 it is x itself.  Output has one column fewer.
    """
    G.check_projection_index(j)
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != G.topo_dim:
        raise ValueError(
            f"points must have {G.topo_dim} columns, got {pts.shape[-1]}"
        )
    if j == G.topo_dim:
        return pts[..., :-1].copy()
    x, t = pts[..., :-1], pts[..., -1]
    if j <= G.d:
        tproj = t
    else:
        own, partner, alpha, sign = _pair_columns(G, j)
        tproj = t + sign * 0.5 * alpha * x[..., own] * x[..., partner]
    keep = [c for c in range(G.horizontal_dim) if c != j - 1]
    return np.concatenate([x[..., keep], tproj[..., None]], axis=-1)


def project(G: CorankGroup, j: int, p: GroupPoint) -> np.ndarray:
    """The j-th projection of a point; a vector in R^(d+2n)."""
    _check_point(G, p)
    return project_points(G, j, p.as_array()[None, :])[0]


def decompose(G: CorankGroup, j: int, p: GroupPoint) -> tuple[GroupPoint, float]:
    """Split p = base * (ell e_j) with base in the j-th coordinate slice.

    For j <= d+2n, e_j is the j-th horizontal direction and base.x[j-1] == 0;
    for j = d+2n+1, e_j is the vertical direction and base.t == 0.
    """
    G.check_projection_index(j)
    _check_point(G, p)
    if j == G.topo_dim:
        ell = p.t
        base = GroupPoint(p.x, 0.0)
    else:
        ell = p.x[j - 1]
        step = np.zeros(G.horizontal_dim)
        step[j - 1] = -ell
        base = multiply(G, p, GroupPoint(step, 0.0))
    return base, ell


def projected_dilate(G: CorankGroup, j: int, r: float, y: np.ndarray) -> np.ndarray:
    """Dilation on the j-th projection target, matching project o dilate.

    The image of projection j <= d+2n carries d+2n-1 horizontal coordinates
    (scale by r) and one vertical coordinate (scale by r^2); the image of the
    vertical projection is all horizontal (scale by r).
    """
    G.check_projection_index(j)
    if r <= 0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != G.horizontal_dim:
        raise ValueError(
            f"projected points have {G.horizontal_dim} columns, got {y.shape[-1]}"
        )
    out = r * y
    if j <= G.horizontal_dim:
        out[..., -1] = r * r * y[..., -1]
    return out


def _default_step(p: GroupPoint, h: Optional[float]) -> float:
    if h is not None:
        if h <= 0:
            raise ValueError(f"step must be positive, got {h}")
        return h
    scale = max(1.0, float(np.max(np.abs(p.as_array()))))
    return 1e-5 * scale


def t_derivative(
    G: CorankGroup, f: Callable[[GroupPoint], float], p: GroupPoint,
    h: Optional[float] = None,
) -> float:
    """Central-difference derivative of f along the vertical direction."""
    _check_point(G, p)
    h = _default_step(p, h)
    up = GroupPoint(p.x, p.t + h)
    dn = GroupPoint(p.x, p.t - h)
    return (f(up) - f(dn)) / (2 * h)


def horizontal_gradient(
    G: CorankGroup, f: Callable[[GroupPoint], float], p: GroupPoint,
    h: Optional[float] = None,
) -> np.ndarray:
    """Central-difference left-invariant horizontal gradient at p.

    Direction j <= d differentiates along x_j; a pair direction adds the
    twist term -+ alpha/2 * partner coordinate times the t-derivative, so the
    result is the frame of left-invariant fields, not plain partials.
    """
    _check_point(G, p)
    h = _default_step(p, h)
    grad = np.zeros(G.horizontal_dim)
    dt = None
    for j in range(1, G.horizontal_dim + 1):
        e = np.zeros(G.horizontal_dim)
        e[j - 1] = h
        partial = (f(GroupPoint(p.x + e, p.t)) - f(GroupPoint(p.x - e, p.t))) / (2 * h)
        if j <= G.d:
            grad[j - 1] = partial
        else:
            if dt is None:
                dt = t_derivative(G, f, p, h)
            own, partner, alpha, sign = _pair_columns(G, j)
            # left-invariant twist: first of the pair carries -alpha/2 x_b d_t,
            # the second +alpha/2 x_a d_t
            grad[j - 1] = partial - sign * 0.5 * alpha * p.x[partner] * dt
    return grad
