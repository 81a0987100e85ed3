"""Seeded check workloads of the carnotlw benchmark.

A workload is a fixed mix of checks, called a round.  Round ``i`` of a run
with seed ``s`` builds its inputs from ``case = 1000 * s + i``, so the same
seed gives the same inputs, and every round does the same kind and amount
of work.  One check (an ``Op``) is building its inputs plus running its
verifier; it returns the rows that the output digest covers.

Every layer entry point a check calls comes from a ``calls`` namespace
(see ``layer_calls``), so the traced run can wrap the benchmark's direct
calls into each layer without touching the package.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from carnotlw import brascamp_lieb, density, harness, radon
from carnotlw.brascamp_lieb import corank_linearized_datum, lw_datum, pair_deletion_datum
from carnotlw.group import CorankGroup
from carnotlw.harness import Report, quad_axis_resolution

# Every check passes this transform norm explicitly, as the verifier
# acceptance test does, so the lazily computed default never runs inside a
# timed check.
R_NORM = 2.1
NOMINAL_RES = 96        # the verifier battery's nominal per-axis resolution
FACTOR_HALF = 1.2       # the CLI's box for random factor densities
PRODUCT_HALF = 8.0      # the CLI's box for the product-Gaussian proof chain
CHAIN_RES = 256         # per-axis resolution of the 5-D product chain
SUBADD_RES = 128        # per-axis resolution of the subadditivity densities
SUBADD_PER_ROUND = 8
CONSEQUENCE_RES = 64    # the CLI's default resolution for sobolev-check
FAMILY_HALF = 1.6       # the transform family's box (disk: 1.2, as in radon)
DISK_HALF = 1.2
RADON_RES = (192, 256)
MASS_ANGLES = 16        # angles of the extra transform that checks the masses
MASS_TOL = 1e-3         # projected masses equal the density's mass within this
BL_TOL = 1e-6           # geometric constants equal 1 within this
BL_STARTS = 6           # the CLI's default --starts

H1 = CorankGroup(0, 1, (1.0,))
D1N1 = CorankGroup(1, 1, (1.0,))
H2 = CorankGroup(0, 2, (1.0, 2.0))
BATTERY_GROUPS = {"h1": H1, "d1n1": D1N1, "h2:1,2": H2}

# Layer entry points the checks call directly, by span name.
DIRECT = {
    "density.random_bumps": density.random_bumps,
    "density.random_set": density.random_set,
    "density.gaussian_density": density.gaussian_density,
    "density.gaussian_product": density.gaussian_product,
    "density.density_from_function": density.density_from_function,
    "density.lp_norm": density.lp_norm,
    "harness.verify_lw": harness.verify_lw,
    "harness.verify_nonlinear_lw": harness.verify_nonlinear_lw,
    "harness.verify_set_lw": harness.verify_set_lw,
    "harness.subadditivity_check": harness.subadditivity_check,
    "harness.proof_chain_checks": harness.proof_chain_checks,
    "harness.sobolev_check": harness.sobolev_check,
    "harness.level_set_check": harness.level_set_check,
    "radon.radon_ratio": radon.radon_ratio,
    "radon.radon_transform": radon.radon_transform,
    "brascamp_lieb.bl_constant": brascamp_lieb.bl_constant,
}


class Row(NamedTuple):
    """One verdict of a check: the fields the output digest covers."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool


class Op(NamedTuple):
    """One check.  ``run`` returns its rows and any further output values."""

    name: str
    run: Callable[[], tuple[list[Row], dict]]


def layer_calls(wrap: Callable | None = None) -> SimpleNamespace:
    """The direct entry points, each passed through ``wrap(name, fn)`` if given."""
    return SimpleNamespace(**{
        name.split(".", 1)[1]: fn if wrap is None else wrap(name, fn)
        for name, fn in DIRECT.items()
    })


def group_label(G: CorankGroup) -> str:
    for label, known in BATTERY_GROUPS.items():
        if known == G:
            return label
    return f"d{G.d}n{G.n}:" + ",".join(f"{a:g}" for a in G.alpha)


def _report_rows(*reports: Report) -> tuple[list[Row], dict]:
    return [Row(r.name, r.lhs, r.rhs, r.tolerance, r.passed) for r in reports], {}


# ---------------------------------------------------------------------------
# verify-battery: the verifier acceptance mix at nominal resolution 96


def _bump_factors(c, G: CorankGroup, seed: int, count: int) -> list:
    """Random factor densities exactly as the CLI's ``bumps`` preset builds them."""
    m = G.horizontal_dim
    r = quad_axis_resolution(m, NOMINAL_RES)
    lo = -FACTOR_HALF * np.ones(m)
    return [
        c.random_bumps(lo, -lo, (r,) * m, seed=seed + 101 * j,
                       spread=0.05, sigma_range=(0.05, 0.07))
        for j in range(count)
    ]


def _verify_battery(c, seed: int, index: int) -> list[Op]:
    case = 1000 * seed + index
    ops = []
    for label, G in BATTERY_GROUPS.items():
        k = G.topo_dim
        m = G.horizontal_dim

        def lw(G=G, m=m):
            fs = _bump_factors(c, G, case, m)
            return _report_rows(c.verify_lw(G, fs, r_norm=R_NORM))

        def nonlinear(G=G, m=m):
            fs = _bump_factors(c, G, case + 500, m + 1)
            return _report_rows(c.verify_nonlinear_lw(G, fs))

        def set_lw(G=G, k=k):
            r = quad_axis_resolution(k, NOMINAL_RES)
            E = c.random_set(-np.ones(k), np.ones(k), (r,) * k, seed=case)
            return _report_rows(c.verify_set_lw(G, E, r_norm=R_NORM))

        ops += [
            Op(f"lw:{label}:{case}", lw),
            Op(f"nonlinear-lw:{label}:{case}", nonlinear),
            Op(f"set-lw:{label}:{case}", set_lw),
        ]
    return ops


# ---------------------------------------------------------------------------
# entropy-chain: shear pushforwards and entropy sums, no quadrature


def _entropy_chain(c, seed: int, index: int) -> list[Op]:
    case = 1000 * seed + index
    box3 = FACTOR_HALF * np.ones(3)
    ops = []
    for j in range(SUBADD_PER_ROUND):
        sub_seed = SUBADD_PER_ROUND * case + j

        def subadditivity(sub_seed=sub_seed):
            f = c.random_bumps(-box3, box3, (SUBADD_RES,) * 3, seed=sub_seed)
            return _report_rows(c.subadditivity_check(H1, f, r_norm=R_NORM))

        ops.append(Op(f"subadditivity:h1:{sub_seed}", subadditivity))

    def chain():
        # the CLI's product Gaussian for proof-chain --form product
        rng = np.random.default_rng(case)
        centers = rng.uniform(-0.5, 0.5, size=H2.topo_dim)
        sigmas = rng.uniform(0.8, 1.2, size=H2.topo_dim)
        half = PRODUCT_HALF * np.ones(H2.topo_dim)
        f = c.gaussian_product(-half, half, (CHAIN_RES,) * H2.topo_dim,
                               center=centers, sigma=sigmas)
        return _report_rows(*c.proof_chain_checks(H2, f, r_norm=R_NORM))

    def consequence_input():
        return c.random_bumps(-box3, box3, (CONSEQUENCE_RES,) * 3, seed=case)

    ops += [
        Op(f"proof-chain:h2:1,2:{case}", chain),
        Op(f"sobolev:h1:{case}", lambda: _report_rows(
            c.sobolev_check(H1, consequence_input(), r_norm=R_NORM))),
        Op(f"level-set:h1:{case}", lambda: _report_rows(
            c.level_set_check(H1, consequence_input()))),
    ]
    return ops


# ---------------------------------------------------------------------------
# transform-constants: the Radon transform and the Brascamp-Lieb ascent


def _family_member(c, member: str, res: int):
    """The transform's default-family densities, built from public functions."""
    kind, _, arg = member.partition(":")
    box = FAMILY_HALF * np.ones(2)
    if kind == "disk":
        half = DISK_HALF * np.ones(2)
        return c.density_from_function(
            lambda pts: ((pts * pts).sum(axis=1) <= 1.0).astype(float),
            -half, half, (res, res))
    if kind == "gauss":
        return c.gaussian_density(-box, box, (res, res), sigma=float(arg))
    if kind == "aniso":
        sx, sy = (float(v) for v in arg.split(","))
        return c.gaussian_density(-box, box, (res, res), sigma=(sx, sy))
    return c.random_bumps(-box, box, (res, res), seed=int(arg))


def _transform_check(c, member: str, res: int):
    f = _family_member(c, member, res)
    ratio = c.radon_ratio(f)
    # radon_ratio does not return its sinogram, so a few-angle transform at
    # the same line spacing checks that each projection keeps the mass (the
    # 1-norm of the nonnegative density)
    sino = c.radon_transform(f, MASS_ANGLES, res)
    masses = sino.values.sum(axis=1) * (2 * sino.s_max / sino.n_offsets)
    rel = masses / c.lp_norm(f, 1.0)
    worst = float(rel[np.argmax(np.abs(rel - 1.0))])
    row = Row(f"radon-mass:{member}@{res}", worst, 1.0, MASS_TOL,
              abs(worst - 1.0) <= MASS_TOL)
    return [row], {"ratio": ratio}


BL_DATA = {
    "lw:3": lambda: lw_datum(3),
    "lw:4": lambda: lw_datum(4),
    "pair:3": lambda: pair_deletion_datum(3),
    "corank:h2:1,2": lambda: corank_linearized_datum(H2),
}


def _bl_check(c, label: str, start_seed: int):
    est = c.bl_constant(BL_DATA[label](), seed=start_seed, n_starts=BL_STARTS)
    row = Row(f"bl:{label}", est.estimate, 1.0, BL_TOL,
              abs(est.estimate - 1.0) <= BL_TOL)
    return [row], {"converged": est.converged}


def _transform_constants(c, seed: int, index: int) -> list[Op]:
    case = 1000 * seed + index
    # seed 0, round 0 is exactly the package's default family
    family = ("disk", "gauss:0.35", "aniso:0.45,0.25",
              f"bumps:{2 * case}", f"bumps:{2 * case + 1}")
    ops = [
        Op(f"radon:{member}@{res}",
           lambda member=member, res=res: _transform_check(c, member, res))
        for res in RADON_RES for member in family
    ]
    # The ascent's start seed follows the round, not the workload seed: its
    # cost varies about threefold between start seeds, which would otherwise
    # become run-to-run noise.  Round 0 uses the CLI's default seed 0.
    ops += [
        Op(f"bl:{label}:start{index}",
           lambda label=label: _bl_check(c, label, index))
        for label in BL_DATA
    ]
    return ops


WORKLOADS = {
    "verify-battery": _verify_battery,
    "entropy-chain": _entropy_chain,
    "transform-constants": _transform_constants,
}


def make_round(workload: str, calls: SimpleNamespace, seed: int, index: int) -> list[Op]:
    return WORKLOADS[workload](calls, seed, index)


def warm_up() -> None:
    """Touch every layer at toy sizes so lazy imports finish before timing."""
    c = layer_calls()
    fs = [c.random_bumps([-1, -1], [1, 1], (16, 16), seed=j) for j in range(3)]
    c.verify_lw(H1, fs[:2], r_norm=R_NORM)
    c.verify_nonlinear_lw(H1, fs)
    c.verify_set_lw(H1, c.random_set(-np.ones(3), np.ones(3), (16,) * 3), r_norm=R_NORM)
    f = c.random_bumps(-np.ones(3), np.ones(3), (24,) * 3)
    c.subadditivity_check(H1, f, r_norm=R_NORM)
    c.sobolev_check(H1, f, r_norm=R_NORM)
    c.level_set_check(H1, f)
    half = PRODUCT_HALF * np.ones(5)
    g = c.gaussian_product(-half, half, (12,) * 5)
    c.proof_chain_checks(H2, g, r_norm=R_NORM)
    c.radon_ratio(_family_member(c, "disk", 24))
    c.bl_constant(lw_datum(3), n_starts=1, max_iter=3)
