"""Inequality verifiers, scaled entropy data, and the proof-chain checks.

Every check returns a ``Report`` carrying both sides of an inequality, a
declared tolerance, and enough metadata to reproduce the run.  A report
passes when rhs - lhs >= -tolerance; the tolerance models discretisation
error only, never the mathematical margin.

Tolerance model: with ``r`` the smallest per-axis resolution entering a
computation, smooth quadrature errors scale like r^-2 and rasterized set
measures like r^-1.  The coefficients below were calibrated on the
closed-form cases in the test suite (unit cubes, truncated Gaussians) so the
declared tolerance sits well above the observed discretisation error at the
calibration resolutions while staying far below genuine inequality margins.

Exponent bookkeeping is exact: ``ScaledData`` stores dual exponents and the
structure of its constant (a power of the transform norm over powers of the
pair weights) as rationals, so product combinations reproduce closed-form
exponents with zero tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .density import (
    BlockDensity,
    Density,
    GridDensity,
    ProductDensity,
    _lattice_chunks,
    coordinate_pushforward,
    corank_pushforward,
    entropy,
    interpolate,
    lp_norm,
    total_mass,
)
from .group import CorankGroup, _pair_columns, group_to_dict, project_points
from .radon import default_radon_norm

__all__ = [
    "Report",
    "ScaledData",
    "resolve_rnorm",
    "quad_axis_resolution",
    "multilinear_lhs",
    "pullback_product",
    "duality_bridge_residual",
    "verify_lw",
    "verify_nonlinear_lw",
    "verify_set_lw",
    "euclidean_set_lw",
    "corank_constants",
    "product_combine",
    "product_combine_line",
    "subadditivity_check",
    "proof_chain_checks",
    "level_set_check",
    "sobolev_check",
    "isoperimetric_check",
]

SMOOTH_TOL_COEFF = 100.0  # tol = coeff * scale / r^2 for smooth quadratures
ENTROPY_TOL_COEFF = 60.0  # tol = coeff / r^2 for entropy comparisons
SET_TOL_COEFF = 2.0       # tol = coeff * scale / r for rasterized measures
MAX_QUAD_CELLS = 1 << 24


# ---------------------------------------------------------------------------
# reports and scaled data

@dataclass
class Report:
    """Two sides of an inequality check with a declared tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def deficit(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.deficit >= -self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "metadata": self.metadata,
        }

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name:<18} lhs={self.lhs: .6e} rhs={self.rhs: .6e} "
            f"deficit={self.deficit: .3e} tol={self.tolerance:.2e} {status}"
        )


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"exact rational expected (Fraction/int/'p/q'), got {value!r}; "
        "floats would silently lose exactness"
    )


@dataclass(frozen=True)
class ScaledData:
    """Dual exponents c_j and the exact structure of a sharp-scaling constant.

    The constant is R^rnorm_pow / prod alpha^pow over the recorded pair
    weights, with R the transform-norm configuration value; its logarithm is
    the additive constant of the entropy form.  When the homogeneous
    dimension is known, sum(c) must equal q/(q-1) exactly.
    """

    c: tuple[Fraction, ...]
    rnorm_pow: Fraction = Fraction(0)
    alpha_pows: tuple[tuple[float, Fraction], ...] = ()
    q_hom: Optional[Fraction] = None

    def __post_init__(self):
        c = tuple(_as_fraction(v) for v in self.c)
        if not c or any(v <= 0 for v in c):
            raise ValueError(f"exponents must be positive, got {c}")
        pows = tuple((float(a), _as_fraction(p)) for a, p in self.alpha_pows)
        q = None if self.q_hom is None else _as_fraction(self.q_hom)
        if q is not None and sum(c) != q / (q - 1):
            raise ValueError(
                f"sum of exponents {sum(c)} != Q/(Q-1) for Q={q}"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rnorm_pow", _as_fraction(self.rnorm_pow))
        object.__setattr__(self, "alpha_pows", pows)
        object.__setattr__(self, "q_hom", q)

    @property
    def lebesgue_exponents(self) -> tuple[Fraction, ...]:
        return tuple(1 / v for v in self.c)

    def log_constant(self, r_norm: float) -> float:
        out = float(self.rnorm_pow) * math.log(r_norm)
        for alpha, pw in self.alpha_pows:
            out -= float(pw) * math.log(alpha)
        return out

    def constant(self, r_norm: float) -> float:
        return math.exp(self.log_constant(r_norm))


def resolve_rnorm(r_norm: Optional[float] = None) -> float:
    """Explicit value > CARNOT_LW_RNORM environment > computed default."""
    if r_norm is None:
        env = os.environ.get("CARNOT_LW_RNORM")
        if env is not None:
            try:
                r_norm = float(env)
            except ValueError as exc:
                raise ValueError(f"CARNOT_LW_RNORM={env!r} is not a number") from exc
        else:
            r_norm = default_radon_norm()
    r_norm = float(r_norm)
    if not r_norm > 0:
        raise ValueError(f"transform norm must be positive, got {r_norm}")
    return r_norm


# ---------------------------------------------------------------------------
# constants and product combinations

def corank_constants(G: CorankGroup) -> ScaledData:
    """Dual exponents and constant structure of the group's inequality.

    Commuting directions carry 1/(d+2n+1), pair directions
    (n+1)/(n(d+2n+1)); the constant is R^(3/(d+2n+1)) over
    prod(alpha)^(1/(n(d+2n+1))).
    """
    topo = G.topo_dim
    c = (Fraction(1, topo),) * G.d + (Fraction(G.n + 1, G.n * topo),) * (2 * G.n)
    return ScaledData(
        c=c,
        rnorm_pow=Fraction(3, topo),
        alpha_pows=tuple((a, Fraction(1, G.n * topo)) for a in G.alpha),
        q_hom=Fraction(G.homogeneous_dim),
    )


def product_combine(a: ScaledData, b: ScaledData) -> ScaledData:
    """Scaled data of the product of two groups from the factors' data.

    With s = sum(a.c), s' = sum(b.c) (both > 1), the combined exponents are
    c_j (s'-1)/(s s'-1) and c'_j (s-1)/(s s'-1), and the log-constant mixes
    with the weights (s'-1)/(s s'-1) and (s-1)/(s s'-1); all rational
    arithmetic is exact.
    """
    s_a, s_b = sum(a.c), sum(b.c)
    if s_a <= 1 or s_b <= 1:
        raise ValueError(f"both exponent sums must exceed 1, got {s_a}, {s_b}")
    den = s_a * s_b - 1
    w_a = (s_b - 1) / den
    w_b = (s_a - 1) / den
    return ScaledData(
        c=tuple(v * w_a for v in a.c) + tuple(v * w_b for v in b.c),
        rnorm_pow=a.rnorm_pow * w_a + b.rnorm_pow * w_b,
        alpha_pows=tuple((al, pw * w_a) for al, pw in a.alpha_pows)
        + tuple((al, pw * w_b) for al, pw in b.alpha_pows),
        q_hom=None if a.q_hom is None or b.q_hom is None else a.q_hom + b.q_hom,
    )


def product_combine_line(a: ScaledData) -> ScaledData:
    """Scaled data of (real line) x (group): prepends exponent (s-1)/s."""
    s = sum(a.c)
    if s <= 1:
        raise ValueError(f"exponent sum must exceed 1, got {s}")
    return ScaledData(
        c=((s - 1) / s,) + tuple(v / s for v in a.c),
        rnorm_pow=a.rnorm_pow / s,
        alpha_pows=tuple((al, pw / s) for al, pw in a.alpha_pows),
        q_hom=None if a.q_hom is None else a.q_hom + 1,
    )


# ---------------------------------------------------------------------------
# multilinear quadrature

def quad_axis_resolution(dim: int, res: int) -> int:
    """Per-axis quadrature resolution honouring a res^3 total-point budget.

    Up to three dimensions the nominal resolution is used directly; above,
    the per-axis count shrinks so the total stays near res^3.
    """
    if dim <= 3:
        per_axis = int(res)
    else:
        per_axis = max(8, round(res ** (3.0 / dim)))
    cap = int(MAX_QUAD_CELLS ** (1.0 / dim) + 1e-9)
    return max(8, min(per_axis, cap))


def _interval_product(lo1, hi1, lo2, hi2) -> tuple[float, float]:
    vals = [lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2]
    return min(vals), max(vals)


def _integration_box(
    G: CorankGroup, fs: Sequence[GridDensity], include_last: bool
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Bounding box of the support of prod f_j(pi_j(x,t)), or None if empty."""
    m = G.horizontal_dim
    lo = np.full(G.topo_dim, -np.inf)
    hi = np.full(G.topo_dim, np.inf)
    js = list(range(1, m + 1)) + ([G.topo_dim] if include_last else [])
    for j, f in zip(js, fs):
        if j == G.topo_dim:
            for i in range(m):
                lo[i] = max(lo[i], f.lower[i])
                hi[i] = min(hi[i], f.upper[i])
        else:
            for i in range(m):
                if i == j - 1:
                    continue
                pos = i - (1 if i > j - 1 else 0)
                lo[i] = max(lo[i], f.lower[pos])
                hi[i] = min(hi[i], f.upper[pos])
    if np.any(lo[:m] >= hi[:m]):
        return None
    for j, f in zip(js, fs):
        if j == G.topo_dim:
            continue
        tl, th = f.lower[-1], f.upper[-1]
        if j > G.d:
            own, partner, alpha, sign = _pair_columns(G, j)
            s_lo, s_hi = _interval_product(
                lo[own], hi[own], lo[partner], hi[partner]
            )
            s_lo, s_hi = sign * 0.5 * alpha * np.array([s_lo, s_hi])
            s_lo, s_hi = min(s_lo, s_hi), max(s_lo, s_hi)
            tl, th = tl - s_hi, th - s_lo
        lo[-1] = max(lo[-1], tl)
        hi[-1] = min(hi[-1], th)
    if not np.all(lo < hi):
        return None
    return lo, hi


def _validate_factors(
    G: CorankGroup, fs: Sequence[GridDensity], include_last: bool
) -> None:
    want = G.horizontal_dim + (1 if include_last else 0)
    if len(fs) != want:
        raise ValueError(f"need {want} factor densities, got {len(fs)}")
    for f in fs:
        if f.k != G.horizontal_dim:
            raise ValueError(
                f"factors live on R^{G.horizontal_dim}, got a {f.k}-D density"
            )


def _pullback_lattice(G, fs, include_last, quad_res):
    """(lo, hi, res_axes, chunks) of ``multilinear_lhs``'s lattice, or None.

    ``chunks`` yields (slice, prod_j f_j(pi_j(x,t))) chunk by chunk; a chunk
    stops multiplying once its product is all zero.
    """
    _validate_factors(G, fs, include_last)
    box = _integration_box(G, fs, include_last)
    if box is None:
        return None
    if quad_res is None:
        quad_res = max(max(f.res) for f in fs)
    lo, hi = box
    res_axes = (quad_axis_resolution(G.topo_dim, quad_res),) * G.topo_dim
    js = list(range(1, G.horizontal_dim + 1)) + (
        [G.topo_dim] if include_last else []
    )

    def chunks():
        for sl, pts in _lattice_chunks(lo, hi, res_axes):
            prod = None
            for j, f in zip(js, fs):
                vals = interpolate(f, project_points(G, j, pts))
                prod = vals if prod is None else prod * vals
                if not prod.any():
                    break
            yield sl, prod

    return lo, hi, res_axes, chunks()


def multilinear_lhs(
    G: CorankGroup,
    fs: Sequence[GridDensity],
    include_last: bool = False,
    quad_res: Optional[int] = None,
) -> float:
    """Tensor-grid quadrature of integral prod_j f_j(pi_j(x,t)) dx dt.

    The grid covers the intersection of the pulled-back supports; its
    per-axis resolution defaults to the budgeted value for the nominal
    resolution max(f.res).
    """
    lattice = _pullback_lattice(G, fs, include_last, quad_res)
    if lattice is None:
        return 0.0
    lo, hi, res_axes, chunks = lattice
    cell = float(np.prod((hi - lo) / res_axes[0]))
    total = 0.0
    for _, prod in chunks:
        total += float(prod.sum())
    value = total * cell
    if not math.isfinite(value):
        raise FloatingPointError("quadrature produced a non-finite value")
    return value


def pullback_product(
    G: CorankGroup,
    fs: Sequence[GridDensity],
    include_last: bool = False,
    quad_res: Optional[int] = None,
    normalized: bool = True,
) -> GridDensity:
    """Materialise prod_j f_j(pi_j(x,t)) on the quadrature grid.

    These multiplicative densities are the equality candidates of the dual
    entropy form.  Resolution is budgeted as in ``multilinear_lhs``; the
    total cell count must stay below the materialisation cap.
    """
    lattice = _pullback_lattice(G, fs, include_last, quad_res)
    if lattice is None:
        raise ValueError("pulled-back supports do not intersect")
    lo, hi, res_axes, chunks = lattice
    values = np.empty(int(np.prod(res_axes)))
    for sl, prod in chunks:
        values[sl] = prod
    out = GridDensity(lo, hi, values.reshape(res_axes))
    if normalized:
        mass = total_mass(out)
        if mass <= 0:
            raise ValueError("pullback product has zero mass")
        out = GridDensity(lo, hi, out.values / mass)
    return out


def duality_bridge_residual(
    G: CorankGroup,
    fs: Sequence[GridDensity],
    include_last: bool = False,
    quad_res: Optional[int] = None,
) -> float:
    """Residual of int f ln F - S(f) = ln int F for f = F / int F.

    F is the pullback product; the three terms are evaluated by independent
    cell sums, so the residual measures pure floating-point error and should
    sit at the 1e-10 scale regardless of resolution.
    """
    raw = pullback_product(G, fs, include_last, quad_res, normalized=False)
    cv = raw.cell_volume
    mass = float(raw.values.sum() * cv)
    if mass <= 0:
        raise ValueError("pullback product has zero mass")
    f_vals = raw.values / mass
    pos = raw.values > 0
    log_f_big = np.log(raw.values[pos])
    pair = float((f_vals[pos] * log_f_big).sum() * cv)
    ent = float((f_vals[pos] * np.log(f_vals[pos])).sum() * cv)
    return abs(pair - ent - math.log(mass))


# ---------------------------------------------------------------------------
# inequality verifiers

def _min_res(fs: Sequence[Density]) -> int:
    return min(min(f.res) for f in fs)


def verify_lw(
    G: CorankGroup,
    fs: Sequence[GridDensity],
    r_norm: Optional[float] = None,
    quad_res: Optional[int] = None,
) -> Report:
    """Check the d+2n-factor inequality with scale-sharp exponents."""
    sd = corank_constants(G)
    rn = resolve_rnorm(r_norm)
    const = sd.constant(rn)
    exps = sd.lebesgue_exponents
    _validate_factors(G, fs, include_last=False)
    rhs = const
    for f, p in zip(fs, exps):
        rhs *= lp_norm(f, float(p))
    lhs = multilinear_lhs(G, fs, include_last=False, quad_res=quad_res)
    r = _min_res(fs)
    tol = SMOOTH_TOL_COEFF * max(rhs, lhs, 1e-300) / r**2
    return Report(
        "lw",
        lhs,
        rhs,
        tol,
        {
            "group": group_to_dict(G),
            "r_norm": rn,
            "constant": const,
            "exponents": [str(p) for p in exps],
            "min_res": r,
        },
    )


def verify_nonlinear_lw(
    G: CorankGroup,
    fs: Sequence[GridDensity],
    quad_res: Optional[int] = None,
) -> Report:
    """Check the full (d+2n+1)-factor inequality with constant one."""
    _validate_factors(G, fs, include_last=True)
    p = G.horizontal_dim  # = d+2n, the single exponent of the full family
    rhs = 1.0
    for f in fs:
        rhs *= lp_norm(f, float(p))
    lhs = multilinear_lhs(G, fs, include_last=True, quad_res=quad_res)
    r = _min_res(fs)
    tol = SMOOTH_TOL_COEFF * max(rhs, lhs, 1e-300) / r**2
    return Report(
        "nonlinear-lw",
        lhs,
        rhs,
        tol,
        {
            "group": group_to_dict(G),
            "constant": 1.0,
            "exponent": p,
            "min_res": r,
        },
    )


def _check_indicator(E: GridDensity) -> None:
    v = E.values
    if not np.all((v == 0) | (v == 1)):
        raise ValueError("set rasters must have 0/1 values")


def _projected_measure_from_mask(
    G: CorankGroup, j: int, E: GridDensity, mask: np.ndarray
) -> float:
    """Rasterized measure of pi_j(occupied cells), on E's own grid scale.

    Horizontal output axes reuse the input cell indices exactly; only the
    sheared vertical coordinate is re-binned (at the input vertical width).
    """
    idx = np.argwhere(mask)
    if idx.shape[0] == 0:
        return 0.0
    m = G.horizontal_dim
    dt = float(E.widths[-1])
    keep = [a for a in range(m) if a != j - 1]
    if j <= G.d:
        u_idx = idx[:, -1]
        n_u = E.res[-1]
    else:
        own, partner, alpha, sign = _pair_columns(G, j)
        own_c = E.lower[own] + E.widths[own] * (idx[:, own] + 0.5)
        par_c = E.lower[partner] + E.widths[partner] * (idx[:, partner] + 0.5)
        t_c = E.lower[-1] + dt * (idx[:, -1] + 0.5)
        u = t_c + sign * 0.5 * alpha * own_c * par_c
        s_lo, s_hi = _interval_product(
            E.lower[own], E.upper[own], E.lower[partner], E.upper[partner]
        )
        s_lo, s_hi = np.sort(sign * 0.5 * alpha * np.array([s_lo, s_hi]))
        u_lo = E.lower[-1] + math.floor(s_lo / dt) * dt
        u_hi = E.upper[-1] + math.ceil(s_hi / dt) * dt
        n_u = int(round((u_hi - u_lo) / dt))
        u_idx = np.clip(np.floor((u - u_lo) / dt).astype(int), 0, n_u - 1)
    dims = tuple(E.res[a] for a in keep) + (n_u,)
    cols = [idx[:, a] for a in keep] + [u_idx]
    ids = np.ravel_multi_index(cols, dims)
    count = np.unique(ids).size
    cell = float(np.prod([E.widths[a] for a in keep])) * dt
    return count * cell


def verify_set_lw(
    G: CorankGroup, E: GridDensity, r_norm: Optional[float] = None
) -> Report:
    """Check m(E) <= C * prod_j m(pi_j E)^{c_j} on a 0/1 raster."""
    if E.k != G.topo_dim:
        raise ValueError(f"set raster must be {G.topo_dim}-D, got {E.k}-D")
    _check_indicator(E)
    sd = corank_constants(G)
    rn = resolve_rnorm(r_norm)
    mask = E.values > 0
    m_e = float(mask.sum()) * E.cell_volume
    measures = []
    rhs = sd.constant(rn)
    for j, c in zip(range(1, G.horizontal_dim + 1), sd.c):
        m_j = _projected_measure_from_mask(G, j, E, mask)
        measures.append(m_j)
        rhs *= m_j ** float(c)
    r = min(E.res)
    tol = SET_TOL_COEFF * max(rhs, m_e, 1e-300) / r
    return Report(
        "set-lw",
        m_e,
        rhs,
        tol,
        {
            "group": group_to_dict(G),
            "r_norm": rn,
            "projected_measures": measures,
            "min_res": r,
        },
    )


def euclidean_set_lw(E: GridDensity) -> Report:
    """Classical coordinate-projection set inequality (constant one).

    On cell rasters this is the discrete inequality on the index lattice,
    so it holds exactly and bricks give equality to machine precision.
    """
    _check_indicator(E)
    if E.k < 2:
        raise ValueError("need at least two axes")
    mask = E.values > 0
    m_e = float(mask.sum()) * E.cell_volume
    rhs = 1.0
    measures = []
    for axis in range(E.k):
        proj = mask.any(axis=axis)
        m_j = float(proj.sum()) * E.cell_volume / E.widths[axis]
        measures.append(m_j)
        rhs *= m_j ** (1.0 / (E.k - 1))
    tol = 1e-9 * max(rhs, m_e, 1e-300)
    return Report(
        "euclidean-set-lw", m_e, rhs, tol, {"projected_measures": measures}
    )


# ---------------------------------------------------------------------------
# entropy side

def subadditivity_check(
    G: CorankGroup,
    f: Density,
    sd: Optional[ScaledData] = None,
    r_norm: Optional[float] = None,
) -> Report:
    """Check sum_j c_j S(pushforward_j) <= S(f) + ln(constant).

    ``sd`` defaults to the group's own scaled data; passing another valid
    exponent/constant pair checks that entropy form instead.
    """
    if sd is None:
        sd = corank_constants(G)
    if len(sd.c) != G.horizontal_dim:
        raise ValueError(
            f"scaled data carries {len(sd.c)} exponents, group has "
            f"{G.horizontal_dim} projections"
        )
    rn = resolve_rnorm(r_norm)
    s_joint = entropy(f)
    lhs = 0.0
    push_entropies = []
    for j, c in zip(range(1, G.horizontal_dim + 1), sd.c):
        g = corank_pushforward(G, j, f)
        s_j = entropy(g, check_mass=False)
        push_entropies.append(s_j)
        lhs += float(c) * s_j
    rhs = s_joint + sd.log_constant(rn)
    r = min(f.res)
    tol = ENTROPY_TOL_COEFF / r**2
    return Report(
        "subadditivity",
        lhs,
        rhs,
        tol,
        {
            "group": group_to_dict(G),
            "r_norm": rn,
            "joint_entropy": s_joint,
            "pushforward_entropies": push_entropies,
            "min_res": r,
        },
    )


def _entropy_drop_axes(f: Density, drop: Sequence[int]) -> float:
    """Entropy of the marginal after integrating out ``drop`` axes."""
    drop = sorted(set(drop))
    if isinstance(f, GridDensity):
        if len(drop) == f.k:
            return 0.0
        return entropy(coordinate_pushforward(f, drop), check_mass=False)
    if isinstance(f, ProductDensity):
        kept = [g for a, g in enumerate(f.factors) if a not in drop]
        if not kept:
            return 0.0
        block = BlockDensity(tuple(((i,), g) for i, g in enumerate(kept)))
        return entropy(block, check_mass=False)
    raise TypeError("expected a grid or product density")


def proof_chain_checks(
    G: CorankGroup, f: Density, r_norm: Optional[float] = None
) -> list[Report]:
    """The four entropy steps chaining pair slices to the full inequality.

    Works on the pure-pair groups (d = 0) with a normalised density on
    R^(2n+1).  Product-form inputs are evaluated blockwise on the same
    midpoint lattice, which is how 5-D resolutions stay tractable.
    Steps: per-pair slice bound, its sum, pair-deletion subadditivity
    (vacuous at n = 1), and the full-family pushforward bound.
    """
    if G.d != 0:
        raise ValueError("proof chain applies to the d=0 groups")
    n = G.n
    rn = resolve_rnorm(r_norm)
    c0 = math.log(rn)
    s_joint = entropy(f)
    s_push = [
        entropy(corank_pushforward(G, j, f), check_mass=False)
        for j in range(1, 2 * n + 1)
    ]
    s_x = _entropy_drop_axes(f, [2 * n])
    s_x_pair = [
        _entropy_drop_axes(f, [2 * i, 2 * i + 1, 2 * n]) for i in range(n)
    ]
    r = min(f.res)
    tol = ENTROPY_TOL_COEFF / r**2
    meta = {
        "group": group_to_dict(G),
        "r_norm": rn,
        "min_res": r,
    }

    pair_rows = []
    for i in range(n):
        lhs_i = s_push[2 * i] + s_push[2 * i + 1]
        rhs_i = (
            0.5 * s_x_pair[i]
            + 1.5 * s_joint
            + 1.5 * c0
            - 0.5 * math.log(G.alpha[i])
        )
        pair_rows.append({"pair": i + 1, "lhs": lhs_i, "rhs": rhs_i})
    worst = min(pair_rows, key=lambda row: row["rhs"] - row["lhs"])
    main1 = Report(
        "main1", worst["lhs"], worst["rhs"], tol, {**meta, "pairs": pair_rows}
    )
    main2 = Report(
        "main2",
        sum(row["lhs"] for row in pair_rows),
        sum(row["rhs"] for row in pair_rows),
        tol,
        dict(meta),
    )
    if n >= 2:
        main3 = Report(
            "main3", sum(s_x_pair), (n - 1) * s_x, tol,
            {**meta, "pair_marginal_entropies": s_x_pair, "x_entropy": s_x},
        )
    else:
        main3 = Report(
            "main3", 0.0, 0.0, tol, {**meta, "note": "vacuous for n=1"}
        )
    main4 = Report(
        "main4",
        sum(s_push) + s_x,
        2 * n * s_joint,
        tol,
        {**meta, "joint_entropy": s_joint},
    )
    return [main1, main2, main3, main4]


# ---------------------------------------------------------------------------
# level sets, functional consequences

def _horizontal_fields(G: CorankGroup, f: GridDensity) -> list[np.ndarray]:
    """Finite-difference left-invariant horizontal derivatives on the grid."""
    if f.k != G.topo_dim:
        raise ValueError(f"field must be {G.topo_dim}-D, got {f.k}-D")
    spacings = [float(w) for w in f.widths]
    grads = np.gradient(f.values, *spacings)
    if f.k == 1:
        grads = [grads]
    dt = grads[-1]
    out = []
    for j in range(1, G.horizontal_dim + 1):
        if j <= G.d:
            out.append(grads[j - 1])
            continue
        own, partner, alpha, sign = _pair_columns(G, j)
        shape = [1] * f.k
        shape[partner] = f.res[partner]
        coord = f.axis_centers(partner).reshape(shape)
        out.append(grads[own] - sign * 0.5 * alpha * coord * dt)
    return out


def _gradient_l1(G: CorankGroup, f: GridDensity) -> float:
    fields = _horizontal_fields(G, f)
    sq = np.zeros_like(fields[0])
    for arr in fields:
        sq += arr * arr
    return float(np.sqrt(sq).sum() * f.cell_volume)


def level_set_check(
    G: CorankGroup,
    f: GridDensity,
    floor_cells: int = 16,
    max_bands: int = 12,
) -> Report:
    """Dyadic band estimate: projected band measures against slab variation.

    For each dyadic band F_k = {2^(k-1) <= f < 2^k} with at least
    ``floor_cells`` cells, and every horizontal direction j, checks
    m(pi_j F_k) <= 2^(2-k) * int_{F_(k-1)} |X_j f|.  The report carries the
    worst (j, k) row; it fails if any row does.
    """
    v = f.values
    vmax = float(v.max())
    if vmax <= 0:
        raise ValueError("density is identically zero")
    fields = _horizontal_fields(G, f)
    cv = f.cell_volume
    k_hi = math.floor(math.log2(vmax)) + 1
    rows = []
    for k in range(k_hi, k_hi - max_bands, -1):
        band = (v >= 2.0 ** (k - 1)) & (v < 2.0**k)
        below = (v >= 2.0 ** (k - 2)) & (v < 2.0 ** (k - 1))
        if band.sum() < floor_cells:
            continue
        for j in range(1, G.horizontal_dim + 1):
            lhs = _projected_measure_from_mask(G, j, f, band)
            rhs = 2.0 ** (2 - k) * float(np.abs(fields[j - 1])[below].sum() * cv)
            rows.append({"j": j, "k": k, "lhs": lhs, "rhs": rhs})
    if not rows:
        raise ValueError("no dyadic band above the cell floor")
    r = min(f.res)
    scale = max(max(row["rhs"] for row in rows), max(row["lhs"] for row in rows))
    tol = SET_TOL_COEFF * max(scale, 1e-300) / r
    worst = min(rows, key=lambda row: row["rhs"] - row["lhs"])
    return Report(
        "level-set",
        worst["lhs"],
        worst["rhs"],
        tol,
        {
            "group": group_to_dict(G),
            "rows": rows,
            "min_res": r,
        },
    )


def _chain_constant(G: CorankGroup, rn: float) -> float:
    sd = corank_constants(G)
    q = G.homogeneous_dim
    return 4.0 * sd.constant(rn) ** ((q - 1) / q)


def sobolev_check(
    G: CorankGroup, f: GridDensity, r_norm: Optional[float] = None
) -> Report:
    """Check ||f||_{Q/(Q-1)} <= C_chain ||grad_H f||_1.

    C_chain = 4 * C^{(Q-1)/Q} comes from running the set inequality over
    dyadic level sets of f and collapsing the per-direction norms into the
    full horizontal gradient.
    """
    rn = resolve_rnorm(r_norm)
    q = G.homogeneous_dim
    p = q / (q - 1)
    lhs = float((np.abs(f.values) ** p).sum() * f.cell_volume) ** (1.0 / p)
    c_chain = _chain_constant(G, rn)
    rhs = c_chain * _gradient_l1(G, f)
    r = min(f.res)
    tol = SMOOTH_TOL_COEFF * max(rhs, lhs, 1e-300) / r**2
    return Report(
        "sobolev",
        lhs,
        rhs,
        tol,
        {
            "group": group_to_dict(G),
            "r_norm": rn,
            "chain_constant": c_chain,
            "exponent": p,
            "min_res": r,
        },
    )


def isoperimetric_check(
    G: CorankGroup,
    E: GridDensity,
    width: Optional[float] = None,
    r_norm: Optional[float] = None,
) -> Report:
    """Check m(E)^{(Q-1)/Q} <= C_chain * perimeter(mollified indicator).

    The indicator is smoothed by a Gaussian of physical ``width`` (default
    twice the largest cell side); the horizontal variation of the smoothed
    field estimates the perimeter from below as width shrinks.
    """
    _check_indicator(E)
    if E.k != G.topo_dim:
        raise ValueError(f"set raster must be {G.topo_dim}-D, got {E.k}-D")
    rn = resolve_rnorm(r_norm)
    if width is None:
        width = 2.0 * float(np.max(E.widths))
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    sigma_cells = width / E.widths
    chi = ndimage.gaussian_filter(E.values, sigma=sigma_cells, mode="constant")
    # the mollified indicator is nonnegative, so it is a grid density
    perimeter = _gradient_l1(G, GridDensity(E.lower, E.upper, chi))
    q = G.homogeneous_dim
    m_e = float((E.values > 0).sum()) * E.cell_volume
    lhs = m_e ** ((q - 1) / q)
    c_chain = _chain_constant(G, rn)
    rhs = c_chain * perimeter
    r = min(E.res)
    tol = SET_TOL_COEFF * max(rhs, lhs, 1e-300) / r
    return Report(
        "isoperimetric",
        lhs,
        rhs,
        tol,
        {
            "group": group_to_dict(G),
            "r_norm": rn,
            "width": width,
            "perimeter": perimeter,
            "chain_constant": c_chain,
            "min_res": r,
        },
    )
