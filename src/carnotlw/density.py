"""Grid densities and the entropy calculus used by the inequality harness.

Densities are midpoint samples on uniform tensor grids over a box.  All
integrals are midpoint-rule cell sums.  ``interpolate`` is multilinear and
reads zero outside the outermost cell centres; the pushforward resampler
fades linearly to zero one cell beyond them.  Entropy is
signed as S(f) = integral of f*ln(f), so it is the negative of the usual
differential entropy and subadditivity reads S(joint) >= sum of marginals.

Pushforwards under the corank-group projections need one non-trivial move:
for a pair direction the vertical coordinate is sheared by a product of two
horizontal coordinates before the fiber integral.  The shear is resampled
along the vertical axis only (its Jacobian is 1), on an output grid whose
vertical extent is enlarged by the worst-case shear over the box, keeping the
cell size unchanged.  Because the resampling shift is constant along the
vertical axis for each fiber, cell-sum mass is conserved exactly up to edge
clipping, which the enlargement prevents.

``ProductDensity`` and ``BlockDensity`` represent densities that factor over
groups of axes.  They exist because several acceptance-scale computations
live on 5-D grids that would never fit in memory if materialised; the
factored forms evaluate the same midpoint-lattice sums exactly, block by
block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy import ndimage

from .group import CorankGroup, _pair_columns

__all__ = [
    "GridDensity",
    "ProductDensity",
    "BlockDensity",
    "NumericalError",
    "density_from_function",
    "interpolate",
    "total_mass",
    "lp_norm",
    "normalize",
    "entropy",
    "marginal",
    "coordinate_pushforward",
    "corank_pushforward",
    "conditional_entropy_profile",
    "chain_rule_residual",
    "gibbs_gap",
    "dilate_density",
    "box_indicator",
    "gaussian_density",
    "gaussian_product",
    "triangle_density",
    "random_bumps",
    "random_set",
    "save_density",
    "load_density",
]

MASS_TOL = 1e-6          # entropy refuses densities further than this from mass 1
CONDITIONAL_FLOOR = 1e-12  # marginal cells below this are dropped from profiles
_CHUNK = 1 << 21         # lattice points per chunk of the midpoint walker


class NumericalError(RuntimeError):
    """A computation produced non-finite intermediate values."""


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative midpoint samples on a uniform grid over a box."""

    lower: np.ndarray
    upper: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be flat vectors of equal length")
        if values.ndim != lower.shape[0]:
            raise ValueError(
                f"values has {values.ndim} axes but the box is {lower.shape[0]}-dimensional"
            )
        if not np.all(lower < upper):
            raise ValueError(f"box must have positive extent, got {lower} .. {upper}")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        for name, arr in (("lower", lower), ("upper", upper), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.values.ndim

    @property
    def res(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def widths(self) -> np.ndarray:
        return (self.upper - self.lower) / np.array(self.res)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def max_cell_side(self) -> float:
        return float(np.max(self.widths))

    def axis_centers(self, axis: int) -> np.ndarray:
        w = self.widths[axis]
        return self.lower[axis] + w * (np.arange(self.res[axis]) + 0.5)


@dataclass(frozen=True)
class ProductDensity:
    """A density that is a product of 1-D grid densities, one per axis."""

    factors: tuple[GridDensity, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("need at least one factor")
        for g in factors:
            if g.k != 1:
                raise ValueError("every factor must be one-dimensional")
        object.__setattr__(self, "factors", factors)

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def lower(self) -> np.ndarray:
        return np.array([g.lower[0] for g in self.factors])

    @property
    def upper(self) -> np.ndarray:
        return np.array([g.upper[0] for g in self.factors])

    @property
    def res(self) -> tuple[int, ...]:
        return tuple(g.res[0] for g in self.factors)

    @property
    def max_cell_side(self) -> float:
        return max(g.max_cell_side for g in self.factors)

    def rasterize(self) -> GridDensity:
        """Materialise the full grid (small cases / tests only)."""
        values = self.factors[0].values
        for g in self.factors[1:]:
            values = np.multiply.outer(values, g.values)
        return GridDensity(self.lower, self.upper, values)


@dataclass(frozen=True)
class BlockDensity:
    """A density factoring over disjoint groups of axes.

    ``blocks`` maps tuples of global axis indices (in increasing order within
    each block, and forming a partition of 0..k-1) to grid densities on those
    axes.  Only mass and entropy are needed on this form.
    """

    blocks: tuple[tuple[tuple[int, ...], GridDensity], ...]

    def __post_init__(self):
        axes = sorted(a for axs, _ in self.blocks for a in axs)
        if axes != list(range(len(axes))):
            raise ValueError(f"block axes must partition 0..k-1, got {axes}")
        for axs, g in self.blocks:
            if len(axs) != g.k:
                raise ValueError("block dimension mismatch")

    @property
    def k(self) -> int:
        return sum(len(axs) for axs, _ in self.blocks)

    @property
    def max_cell_side(self) -> float:
        return max(g.max_cell_side for _, g in self.blocks)


Density = Union[GridDensity, ProductDensity, BlockDensity]


# ---------------------------------------------------------------------------
# sampling and interpolation

def _linear_sample(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Linearly sample ``arr`` along its last axis at fractional indices.

    ``idx`` has shape (Rp, Ru) and addresses, for each index on the
    second-to-last axis of ``arr``, sample positions along the last axis.
    Beyond the first and last samples the signal fades linearly to zero over
    one index unit, so it vanishes one cell past the outermost centre (unlike
    ``interpolate``, which is zero as soon as it leaves the centres).
    """
    rt = arr.shape[-1]
    i0 = np.floor(idx).astype(int)
    w = idx - i0
    i0c = np.clip(i0, 0, rt - 1)
    i1c = np.clip(i0 + 1, 0, rt - 1)
    m0 = ((i0 >= 0) & (i0 <= rt - 1)).astype(float)
    m1 = ((i0 + 1 >= 0) & (i0 + 1 <= rt - 1)).astype(float)
    rows = np.arange(arr.shape[-2])[:, None]
    v0 = arr[..., rows, i0c] * m0
    v1 = arr[..., rows, i1c] * m1
    return v0 * (1.0 - w) + v1 * w


def interpolate(f: GridDensity, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of f at physical points.

    Zero outside [first cell centre, last cell centre] on any axis.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != f.k:
        raise ValueError(f"points must have {f.k} columns, got {pts.shape[-1]}")
    idx = (pts - f.lower) / f.widths - 0.5
    return ndimage.map_coordinates(f.values, idx.T, order=1, mode="constant", cval=0.0)


def _lattice_chunks(lower: np.ndarray, upper: np.ndarray, res: Sequence[int]):
    """Yield (slice, points) covering the box's midpoint lattice in C order.

    Each chunk is an (N <= _CHUNK, k) array; ``slice`` locates it in the
    flattened lattice.
    """
    widths = (upper - lower) / np.array(res)
    total = int(np.prod(res))
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        rem = np.arange(start, stop)
        coords = np.empty((stop - start, len(res)))
        for axis in range(len(res) - 1, -1, -1):
            coords[:, axis] = rem % res[axis]
            rem = rem // res[axis]
        yield slice(start, stop), lower + widths * (coords + 0.5)


def density_from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: Sequence[float],
    upper: Sequence[float],
    res: Sequence[int],
) -> GridDensity:
    """Rasterize ``fn`` (vectorised over an (N, k) array) at cell midpoints."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    res = tuple(int(r) for r in np.atleast_1d(res))
    values = np.empty(int(np.prod(res)))
    for sl, pts in _lattice_chunks(lower, upper, res):
        values[sl] = fn(pts)
    return GridDensity(lower, upper, values.reshape(res))


# ---------------------------------------------------------------------------
# mass, norms, entropy

def _block_view(f: Density) -> tuple[tuple[tuple[int, ...], GridDensity], ...]:
    if isinstance(f, GridDensity):
        return ((tuple(range(f.k)), f),)
    if isinstance(f, ProductDensity):
        return tuple(((i,), g) for i, g in enumerate(f.factors))
    return f.blocks


def total_mass(f: Density) -> float:
    if isinstance(f, GridDensity):
        return float(f.values.sum() * f.cell_volume)
    return float(np.prod([total_mass(g) for _, g in _block_view(f)]))


def lp_norm(f: GridDensity, p: float) -> float:
    """Lebesgue p-norm by midpoint quadrature; p >= 1."""
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((f.values ** p).sum() * f.cell_volume) ** (1.0 / p)


def normalize(f: Density) -> Density:
    m = total_mass(f)
    if m <= 0 or not math.isfinite(m):
        raise ValueError(f"cannot normalize density of mass {m}")
    if isinstance(f, GridDensity):
        return GridDensity(f.lower, f.upper, f.values / m)
    if isinstance(f, ProductDensity):
        return ProductDensity(tuple(normalize(g) for g in f.factors))
    raise TypeError("normalize expects a grid or product density")


def _entropy_sum(f: GridDensity) -> float:
    v = f.values
    pos = v > 0
    return float(np.sum(v[pos] * np.log(v[pos])) * f.cell_volume)


def entropy(f: Density, check_mass: bool = True) -> float:
    """S(f) = integral f ln f with 0 ln 0 = 0.  Requires mass 1 up to 1e-6.

    On factored densities the cell sum splits exactly as
    sum_b S(f_b) * prod_{b' != b} mass(f_b'), which is what is evaluated.
    """
    m = total_mass(f)
    if check_mass and abs(m - 1.0) > MASS_TOL:
        raise ValueError(
            f"entropy needs a probability density (mass within {MASS_TOL} of 1), "
            f"got mass {m!r}; call normalize first"
        )
    blocks = _block_view(f)
    masses = [total_mass(g) for _, g in blocks]
    out = 0.0
    for i, (_, g) in enumerate(blocks):
        rest = float(np.prod([mm for k, mm in enumerate(masses) if k != i]))
        out += _entropy_sum(g) * rest
    return out


# ---------------------------------------------------------------------------
# marginals and pushforwards

def marginal(f: GridDensity, keep_axes: Sequence[int]) -> GridDensity:
    """Integrate out all axes not in ``keep_axes`` (kept in increasing order)."""
    keep = sorted(set(int(a) for a in keep_axes))
    if not keep or any(a < 0 or a >= f.k for a in keep):
        raise ValueError(f"keep_axes must be a nonempty subset of 0..{f.k - 1}")
    drop = tuple(a for a in range(f.k) if a not in keep)
    scale = float(np.prod([f.widths[a] for a in drop])) if drop else 1.0
    values = f.values.sum(axis=drop) * scale if drop else f.values
    return GridDensity(f.lower[keep], f.upper[keep], values)


def coordinate_pushforward(f: GridDensity, drop_axes: Sequence[int]) -> GridDensity:
    """Pushforward under deletion of ``drop_axes`` = marginal on the rest."""
    drop = set(int(a) for a in drop_axes)
    keep = [a for a in range(f.k) if a not in drop]
    return marginal(f, keep)


def _check_group_density(G: CorankGroup, f: Density) -> None:
    if f.k != G.topo_dim:
        raise ValueError(
            f"density has {f.k} axes, group needs {G.topo_dim} (x..., t)"
        )


def _shear_lattice(G: CorankGroup, j: int, f: Density, g_t: GridDensity,
                   partner_centers: np.ndarray):
    """Vertical lattice (u_lo, res_u, index) of pair projection j's output.

    The u-axis keeps g_t's cell size and grows by whole cells covering the
    worst shear over f's box.  ``index(v)`` gives, per (partner, u) cell, the
    fractional g_t index it reads at own coordinate v: t = u - sign*alpha/2*v*p.
    """
    own, partner, alpha, sign = _pair_columns(G, j)
    ca = max(abs(f.lower[own]), abs(f.upper[own]))
    cp = max(abs(f.lower[partner]), abs(f.upper[partner]))
    t_lo = g_t.lower[-1]
    dt = g_t.widths[-1]
    extra = int(np.ceil(0.5 * alpha * ca * cp / dt - 1e-12))
    res_u = g_t.res[-1] + 2 * extra
    u_lo = t_lo - extra * dt
    u_centers = u_lo + dt * (np.arange(res_u) + 0.5)

    def index(v):
        shift = sign * 0.5 * alpha * v * partner_centers
        return (u_centers[None, :] - shift[:, None] - t_lo) / dt - 0.5

    return u_lo, res_u, index


def _pad_t_if_touching(f: GridDensity) -> GridDensity:
    """Pad the vertical axis with a zero cell per side if support touches it.

    "Touches" is relative: boundary samples above 1e-7 of the peak.  Below
    that the interpolation fade loses negligible mass and no pad is needed.
    """
    peak = float(f.values.max())
    if peak <= 0:
        return f
    first = f.values[..., 0]
    last = f.values[..., -1]
    if max(float(first.max()), float(last.max())) <= 1e-7 * peak:
        return f
    warnings.warn(
        "density support touches the vertical box boundary; padding by one cell",
        stacklevel=3,
    )
    dt = f.widths[-1]
    pad = [(0, 0)] * (f.k - 1) + [(1, 1)]
    lower = f.lower.copy()
    upper = f.upper.copy()
    lower[-1] -= dt
    upper[-1] += dt
    return GridDensity(lower, upper, np.pad(f.values, pad))


def corank_pushforward(G: CorankGroup, j: int, f: Density) -> Density:
    """Density of the j-th projection applied to a density on the group.

    For a commuting direction (j <= d) and for the vertical projection this
    is a coordinate deletion.  For a pair direction the vertical axis is
    sheared by -+ alpha/2 * (own) * (partner) before integrating out the own
    axis; the output vertical extent grows by the worst shear over the box.
    Output axes are (remaining horizontal axes in order, vertical last),
    matching the projection's coordinates.
    """
    G.check_projection_index(j)
    _check_group_density(G, f)
    if isinstance(f, GridDensity):
        return _corank_pushforward_grid(G, j, f)
    if isinstance(f, ProductDensity):
        return _corank_pushforward_product(G, j, f)
    raise TypeError("corank_pushforward expects a grid or product density")


def _corank_pushforward_grid(G: CorankGroup, j: int, f: GridDensity) -> GridDensity:
    if j == G.topo_dim:
        return coordinate_pushforward(f, [f.k - 1])
    if j <= G.d:
        return coordinate_pushforward(f, [j - 1])

    f = _pad_t_if_touching(f)
    own, partner, _, _ = _pair_columns(G, j)
    t_axis = f.k - 1
    u_lo, res_u, index = _shear_lattice(G, j, f, f, f.axis_centers(partner))

    # axes of a fixed-own slab: every other axis in order, vertical last
    rest_axes = [a for a in range(f.k) if a != own]
    p_pos = rest_axes.index(partner)

    out = None
    for ia, v in enumerate(f.axis_centers(own)):
        slab = np.take(f.values, ia, axis=own)
        slab = np.moveaxis(slab, p_pos, -2)
        sheared = _linear_sample(slab, index(v))
        contrib = np.moveaxis(sheared, -2, p_pos)
        out = contrib if out is None else out + contrib
    out = out * f.widths[own]

    keep = [a for a in range(f.k) if a != own and a != t_axis]
    lower = np.append(f.lower[keep], u_lo)
    upper = np.append(f.upper[keep], u_lo + res_u * f.widths[t_axis])
    return GridDensity(lower, upper, out)


def _corank_pushforward_product(G: CorankGroup, j: int, f: ProductDensity) -> BlockDensity:
    def as_blocks(factors: Sequence[GridDensity]) -> BlockDensity:
        return BlockDensity(tuple(((i,), g) for i, g in enumerate(factors)))

    if j == G.topo_dim:
        return as_blocks(f.factors[:-1])
    if j <= G.d:
        return as_blocks(f.factors[: j - 1] + f.factors[j:])

    own, partner, _, _ = _pair_columns(G, j)
    g_own, g_p = f.factors[own], f.factors[partner]
    g_t = _pad_t_if_touching(f.factors[f.k - 1])
    u_lo, res_u, index = _shear_lattice(G, j, f, g_t, g_p.axis_centers(0))

    # 2-D fiber block on (partner, vertical): the only coupled coordinates
    block = np.zeros((g_p.res[0], res_u))
    t_row = g_t.values[None, :]
    for v, gv in zip(g_own.axis_centers(0), g_own.values):
        if gv == 0.0:
            continue
        block += gv * _linear_sample(t_row, index(v))
    block *= g_own.widths[0] * g_p.values[:, None]
    pair_grid = GridDensity(
        np.array([g_p.lower[0], u_lo]),
        np.array([g_p.upper[0], u_lo + res_u * g_t.widths[0]]),
        block,
    )

    rest = [a for a in range(f.k - 1) if a != own]  # output x axes, old labels
    blocks: list[tuple[tuple[int, ...], GridDensity]] = []
    for pos, a in enumerate(rest):
        if a == partner:
            blocks.append(((pos, len(rest)), pair_grid))
        else:
            blocks.append(((pos,), f.factors[a]))
    return BlockDensity(tuple(blocks))


# ---------------------------------------------------------------------------
# conditionals, chain rule, Gibbs

def conditional_entropy_profile(
    f: GridDensity, split: int
) -> tuple[GridDensity, np.ndarray]:
    """Marginal on the trailing block and per-cell conditional entropies.

    Axes 0..split-1 are the conditioned block X, the rest is Y.  Returns
    (f_Y, profile) where profile[y] = S(X | Y = y); cells where f_Y falls
    below the floor are NaN and carry negligible mass.
    """
    if not 1 <= split < f.k:
        raise ValueError(f"split must be in 1..{f.k - 1}, got {split}")
    res_x, res_y = f.res[:split], f.res[split:]
    nx, ny = int(np.prod(res_x)), int(np.prod(res_y))
    cv_x = float(np.prod(f.widths[:split]))
    v = f.values.reshape(nx, ny)
    fy = v.sum(axis=0) * cv_x
    profile = np.full(ny, np.nan)
    ok = fy > CONDITIONAL_FLOOR
    if np.any(ok):
        cond = v[:, ok] / fy[ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            logc = np.where(cond > 0, np.log(np.where(cond > 0, cond, 1.0)), 0.0)
        profile[ok] = (cond * logc).sum(axis=0) * cv_x
    f_y = GridDensity(f.lower[split:], f.upper[split:], fy.reshape(res_y))
    return f_y, profile.reshape(res_y)


def chain_rule_residual(f: GridDensity, split: int) -> float:
    """|S(X,Y) - S(Y) - E_Y S(X|Y)| for a probability density f."""
    f_y, profile = conditional_entropy_profile(f, split)
    cv_y = f_y.cell_volume
    mask = ~np.isnan(profile)
    mean_cond = float((f_y.values[mask] * profile[mask]).sum() * cv_y)
    return abs(entropy(f) - entropy(f_y, check_mass=False) - mean_cond)


def gibbs_gap(f: GridDensity, phi: np.ndarray) -> float:
    """Gap S(f) + ln int e^phi - int f phi, nonnegative for probability f.

    phi is a potential sampled on f's grid; -inf entries are allowed and mean
    e^phi = 0 there.  The gap vanishes exactly when e^phi is the density f.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != f.values.shape:
        raise ValueError(f"phi shape {phi.shape} != density shape {f.values.shape}")
    if np.any(np.isnan(phi)) or np.any(phi == np.inf):
        raise ValueError("phi must not contain NaN or +inf")
    with np.errstate(over="raise"):
        try:
            z = float(np.exp(phi).sum() * f.cell_volume)
        except FloatingPointError as exc:
            raise NumericalError("exp(phi) overflowed") from exc
    if z <= 0:
        raise ValueError("int e^phi must be positive")
    pos = f.values > 0
    pairing = float((f.values[pos] * phi[pos]).sum() * f.cell_volume)
    return entropy(f) + math.log(z) - pairing


def dilate_density(G: CorankGroup, r: float, f: GridDensity) -> GridDensity:
    """Mass-preserving dilation r^-Q f o delta_{1/r}: exact on the grid.

    Horizontal box edges scale by r, the vertical edge by r^2, values by
    r^-Q; cell midpoints map onto cell midpoints so no resampling occurs.
    S changes by exactly -Q ln r.
    """
    _check_group_density(G, f)
    if r <= 0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    scales = np.full(f.k, r)
    scales[-1] = r * r
    q = G.homogeneous_dim
    return GridDensity(f.lower * scales, f.upper * scales, f.values / r**q)


# ---------------------------------------------------------------------------
# presets

def box_indicator(
    lower, upper, res, box_lower=None, box_upper=None
) -> GridDensity:
    """Indicator (value 1) of a sub-box, rasterized by cell-center membership."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    res = tuple(int(r) for r in np.atleast_1d(res))
    box_lower = lower if box_lower is None else np.asarray(box_lower, float)
    box_upper = upper if box_upper is None else np.asarray(box_upper, float)

    def fn(pts: np.ndarray) -> np.ndarray:
        inside = np.all((pts >= box_lower) & (pts <= box_upper), axis=1)
        return inside.astype(float)

    return density_from_function(fn, lower, upper, res)


def gaussian_density(lower, upper, res, center=None, sigma=1.0) -> GridDensity:
    """Gaussian with the full-space normalisation, truncated by the box."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    k = lower.shape[0]
    center = np.zeros(k) if center is None else np.asarray(center, float)
    sigma = np.broadcast_to(np.asarray(sigma, float), (k,))
    norm = float(np.prod(sigma) * (2 * math.pi) ** (k / 2))

    def fn(pts: np.ndarray) -> np.ndarray:
        z = (pts - center) / sigma
        return np.exp(-0.5 * (z * z).sum(axis=1)) / norm

    return density_from_function(fn, lower, upper, res)


def gaussian_product(lower, upper, res, center=None, sigma=1.0) -> ProductDensity:
    """Axis-factored truncated Gaussian, each factor normalised to mass 1."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    res = tuple(int(r) for r in np.atleast_1d(res))
    k = lower.shape[0]
    center = np.zeros(k) if center is None else np.asarray(center, float)
    sigma = np.broadcast_to(np.asarray(sigma, float), (k,))
    factors = []
    for i in range(k):
        g = gaussian_density(lower[i : i + 1], upper[i : i + 1], (res[i],),
                             center=center[i : i + 1], sigma=sigma[i])
        factors.append(normalize(g))
    return ProductDensity(tuple(factors))


def triangle_density(res: int) -> GridDensity:
    """Uniform probability density on {0 <= x <= y <= 1} (value 2).

    Cells are rasterized by the exact fraction of the cell inside the
    triangle, so the mass is exactly 1 at every resolution.
    """
    res = int(res)
    frac = np.zeros((res, res))
    iu = np.triu_indices(res, k=1)  # cell row i (x), column j (y): inside iff i < j
    frac[iu] = 1.0
    np.fill_diagonal(frac, 0.5)
    return GridDensity(np.zeros(2), np.ones(2), 2.0 * frac)


def random_bumps(
    lower, upper, res, seed: int = 0, n_bumps: int = 4,
    spread: float = 0.14, sigma_range: tuple[float, float] = (0.035, 0.055),
) -> GridDensity:
    """Normalised random mixture of Gaussians supported well inside the box.

    Values below 1e-9 of the peak are zeroed; the cut radius is about
    6.4 sigma, so ``spread + 6.4 * sigma_range[1]`` must stay below half the
    span for the support to be genuinely compact (boundary samples exactly
    zero), which shear pushforwards rely on.  Centers are drawn within
    ``spread * span`` of the middle; sigmas are fractions of the span.
    """
    if spread + 6.4 * sigma_range[1] > 0.5:
        raise ValueError(
            f"bumps would be clipped: spread {spread} + 6.4*sigma "
            f"{sigma_range[1]} exceeds half the box span"
        )
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    rng = np.random.default_rng(seed)
    k = lower.shape[0]
    span = upper - lower
    mid = 0.5 * (lower + upper)
    centers = mid + (rng.uniform(-spread, spread, size=(n_bumps, k)) * span)
    sigmas = rng.uniform(*sigma_range, size=(n_bumps, k)) * span
    weights = rng.uniform(0.5, 1.0, size=n_bumps)

    def fn(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for c, s, w in zip(centers, sigmas, weights):
            z = (pts - c) / s
            out += w * np.exp(-0.5 * (z * z).sum(axis=1))
        return out

    raw = density_from_function(fn, lower, upper, res)
    vals = np.where(raw.values < 1e-9 * raw.values.max(), 0.0, raw.values)
    return normalize(GridDensity(raw.lower, raw.upper, vals))


def random_set(
    lower, upper, res, seed: int = 0, n_blobs: int = 3
) -> GridDensity:
    """0/1 raster of a union of random ellipsoids inside the box."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    rng = np.random.default_rng(seed)
    k = lower.shape[0]
    span = upper - lower
    mid = 0.5 * (lower + upper)
    centers = mid + (rng.uniform(-0.25, 0.25, size=(n_blobs, k)) * span)
    semi = rng.uniform(0.10, 0.30, size=(n_blobs, k)) * span

    def fn(pts: np.ndarray) -> np.ndarray:
        inside = np.zeros(pts.shape[0], dtype=bool)
        for c, s in zip(centers, semi):
            z = (pts - c) / s
            inside |= (z * z).sum(axis=1) <= 1.0
        return inside.astype(float)

    return density_from_function(fn, lower, upper, res)


# ---------------------------------------------------------------------------
# serialization

def save_density(path: str, f: GridDensity) -> None:
    """Write a density; .npz for binary, anything else as the text format."""
    if str(path).endswith(".npz"):
        np.savez_compressed(path, lower=f.lower, upper=f.upper, values=f.values)
        return
    with open(path, "w") as fh:
        fh.write(f"{f.k}\n")
        fh.write(" ".join(repr(float(v)) for v in f.lower) + "\n")
        fh.write(" ".join(repr(float(v)) for v in f.upper) + "\n")
        fh.write(" ".join(str(r) for r in f.res) + "\n")
        np.savetxt(fh, f.values.reshape(-1, 1))


def load_density(path: str) -> GridDensity:
    if str(path).endswith(".npz"):
        with np.load(path) as data:
            return GridDensity(data["lower"], data["upper"], data["values"])
    with open(path) as fh:
        try:
            k = int(fh.readline())
            lower = np.array([float(v) for v in fh.readline().split()])
            upper = np.array([float(v) for v in fh.readline().split()])
            res = tuple(int(v) for v in fh.readline().split())
            if len(lower) != k or len(upper) != k or len(res) != k:
                raise ValueError("header dimensions disagree")
            values = np.loadtxt(fh).reshape(res)
        except (ValueError, OSError) as exc:
            raise ValueError(f"malformed density file {path}: {exc}") from exc
    return GridDensity(lower, upper, values)
