"""Command line front end: seeded desk-scale checks with deterministic output.

Every subcommand prints one JSON object per result line (sorted keys, no
timestamps), so identical configuration and seed give byte-identical output.
Exit codes: 0 all checks passed, 1 at least one inequality violated,
2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .brascamp_lieb import (
    bl_constant,
    check_geometric,
    check_scaling,
    corank_linearized_datum,
    datum_from_json,
    lw_datum,
    pair_deletion_datum,
)
from .density import (
    NumericalError,
    box_indicator,
    gaussian_density,
    gaussian_product,
    random_bumps,
    random_set,
)
from .group import CorankGroup, group_from_json
from .harness import (
    Report,
    corank_constants,
    isoperimetric_check,
    level_set_check,
    product_combine,
    product_combine_line,
    proof_chain_checks,
    quad_axis_resolution,
    resolve_rnorm,
    sobolev_check,
    subadditivity_check,
    verify_lw,
    verify_nonlinear_lw,
    verify_set_lw,
)
from .radon import RNORM_SAFETY, default_family, estimate_radon_norm_lb

FACTOR_HALF = 1.2   # half-width of the box carrying random factor densities
PRODUCT_HALF = 8.0  # half-width for product-Gaussian proof-chain inputs


class CLIError(ValueError):
    """Bad user input (group string, datum, descriptor)."""


def parse_group(text: str) -> CorankGroup:
    """Parse 'h<n>', 'h<n>:a1,..,an', 'd<d>n<n>[:a1,..]', or inline JSON."""
    text = text.strip()
    try:
        if text.startswith("{"):
            return group_from_json(text)
        body = text.lower()
        alphas: Optional[tuple[float, ...]] = None
        if ":" in body:
            body, alpha_part = body.split(":", 1)
            alphas = tuple(float(v) for v in alpha_part.split(","))
        if body.startswith("h"):
            d, n = 0, int(body[1:])
        elif body.startswith("d") and "n" in body:
            d_part, n_part = body[1:].split("n", 1)
            d, n = int(d_part), int(n_part)
        else:
            raise ValueError(f"unrecognised group {text!r}")
        if alphas is None:
            alphas = (1.0,) * n
        return CorankGroup(d=d, n=n, alpha=alphas)
    except (ValueError, TypeError) as exc:
        raise CLIError(f"cannot parse group {text!r}: {exc}") from exc


def _factor_box(G: CorankGroup) -> tuple[np.ndarray, np.ndarray]:
    m = G.horizontal_dim
    return -FACTOR_HALF * np.ones(m), FACTOR_HALF * np.ones(m)


def _random_factors(G: CorankGroup, res: int, seed: int, count: int,
                    preset: str = "bumps"):
    lo, hi = _factor_box(G)
    m = G.horizontal_dim
    r = quad_axis_resolution(m, res)
    if preset == "gauss":
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            center = rng.uniform(-0.05, 0.05, size=m)
            sigma = rng.uniform(0.12, 0.16, size=m) * FACTOR_HALF
            out.append(gaussian_density(lo, hi, (r,) * m, center=center,
                                        sigma=sigma))
        return out
    if preset != "bumps":
        raise CLIError(f"unknown preset {preset!r}")
    return [
        random_bumps(lo, hi, (r,) * m, seed=seed + 101 * j,
                     spread=0.05, sigma_range=(0.05, 0.07))
        for j in range(count)
    ]


def _random_density(G: CorankGroup, res: int, seed: int):
    k = G.topo_dim
    r = quad_axis_resolution(k, res)
    lo = -FACTOR_HALF * np.ones(k)
    return random_bumps(lo, -lo, (r,) * k, seed=seed)


def _product_gaussian(G: CorankGroup, res: int, seed: int):
    k = G.topo_dim
    rng = np.random.default_rng(seed)
    lo = -PRODUCT_HALF * np.ones(k)
    centers = rng.uniform(-0.5, 0.5, size=k)
    sigmas = rng.uniform(0.8, 1.2, size=k)
    return gaussian_product(lo, -lo, (res,) * k, center=centers, sigma=sigmas)


# ---------------------------------------------------------------------------
# subcommands (each returns a list of Report | dict)

def cmd_lw_verify(args) -> list:
    G = parse_group(args.group)
    out = []
    for trial in range(args.trials):
        fs = _random_factors(G, args.res, args.seed + 1000 * trial,
                             G.horizontal_dim, preset=args.preset)
        rep = verify_lw(G, fs, r_norm=args.rnorm)
        rep.metadata["trial"] = trial
        out.append(rep)
    return out


def cmd_nonlinear_lw(args) -> list:
    G = parse_group(args.group)
    out = []
    for trial in range(args.trials):
        fs = _random_factors(G, args.res, args.seed + 1000 * trial,
                             G.horizontal_dim + 1, preset=args.preset)
        rep = verify_nonlinear_lw(G, fs)
        rep.metadata["trial"] = trial
        out.append(rep)
    return out


def cmd_set_lw(args) -> list:
    G = parse_group(args.group)
    k = G.topo_dim
    r = quad_axis_resolution(k, args.res)
    if args.cube:
        E = box_indicator(np.zeros(k), np.ones(k), (r,) * k,
                          box_lower=np.zeros(k), box_upper=np.ones(k))
    else:
        lo = -np.ones(k)
        E = random_set(lo, -lo, (r,) * k, seed=args.seed)
    return [verify_set_lw(G, E, r_norm=args.rnorm)]


def cmd_entropy_check(args) -> list:
    G = parse_group(args.group)
    f = _random_density(G, args.res, args.seed)
    return [subadditivity_check(G, f, r_norm=args.rnorm)]


def cmd_proof_chain(args) -> list:
    G = parse_group(args.group)
    if args.form == "product":
        f = _product_gaussian(G, args.res, args.seed)
    else:
        f = _random_density(G, args.res, args.seed)
    return proof_chain_checks(G, f, r_norm=args.rnorm)


def cmd_radon_norm(args) -> list:
    resolutions = tuple(args.res_list or (160,))
    family = tuple(args.family) if args.family else default_family()
    bound = estimate_radon_norm_lb(family=family, resolutions=resolutions)
    return [
        {
            "kind": "radon-norm",
            "lower_bound": bound.lb,
            "best_density": bound.best,
            "ratios": bound.ratios,
            "configured_norm": bound.lb * RNORM_SAFETY,
            "safety": RNORM_SAFETY,
            "resolutions": list(resolutions),
        }
    ]


def cmd_bl_constant(args) -> list:
    if args.datum_json:
        datum = datum_from_json(args.datum_json)
    elif args.canonical:
        kind, _, rest = args.canonical.partition(":")
        if kind == "lw":
            datum = lw_datum(int(rest))
        elif kind == "pair":
            datum = pair_deletion_datum(int(rest))
        elif kind == "corank":
            datum = corank_linearized_datum(parse_group(rest))
        else:
            raise CLIError(f"unknown canonical datum {args.canonical!r}")
    else:
        raise CLIError("provide --datum-json or --canonical")
    est = bl_constant(datum, seed=args.seed, n_starts=args.starts)
    return [
        {
            "kind": "bl-constant",
            "constant": est.estimate,
            "converged": est.converged,
            "note": est.note,
            "scaling_ok": check_scaling(datum),
            "geometric": check_geometric(datum),
            "exponents": list(map(float, datum.exps)),
        }
    ]


def cmd_product_combine(args) -> list:
    if args.left or args.right:
        if not (args.left and args.right):
            raise CLIError("--left and --right must be given together")
        parts = [args.left, args.right]
    elif args.groups:
        parts = [s.strip() for s in args.groups.split(",") if s.strip()]
    else:
        parts = []
    if not parts:
        raise CLIError("need at least one group (--groups or --left/--right)")
    data = [corank_constants(parse_group(p)) for p in parts]
    combined = data[0]
    for nxt in data[1:]:
        combined = product_combine(combined, nxt)
    for _ in range(args.lines):
        combined = product_combine_line(combined)
    rn = resolve_rnorm(args.rnorm)
    return [
        {
            "kind": "product-combine",
            "groups": parts,
            "lines": args.lines,
            "exponents": [str(c) for c in combined.c],
            "rnorm_power": str(combined.rnorm_pow),
            "alpha_powers": [[a, str(p)] for a, p in combined.alpha_pows],
            "q_hom": None if combined.q_hom is None else str(combined.q_hom),
            "constant": combined.constant(rn),
            "r_norm": rn,
        }
    ]


def cmd_sobolev_check(args) -> list:
    G = parse_group(args.group)
    f = _random_density(G, args.res, args.seed)
    return [
        sobolev_check(G, f, r_norm=args.rnorm),
        level_set_check(G, f),
    ]


def cmd_iso_check(args) -> list:
    G = parse_group(args.group)
    k = G.topo_dim
    r = quad_axis_resolution(k, args.res)
    lo = -np.ones(k)
    E = random_set(lo, -lo, (r,) * k, seed=args.seed)
    return [isoperimetric_check(G, E, r_norm=args.rnorm)]


def _exact_identity_report(name: str, ok: bool, detail: str) -> Report:
    return Report(name, 0.0, 0.0 if ok else -1.0, 0.0, {"detail": detail})


def cmd_suite(args) -> list:
    out: list = []
    res, seed = args.res, args.seed
    h1 = CorankGroup(0, 1, (1.0,))
    if args.name in ("paper-core", "all"):
        fs = _random_factors(h1, res, seed, 2)
        out.append(verify_lw(h1, fs, r_norm=args.rnorm))
        fs3 = _random_factors(h1, res, seed + 7, 3)
        out.append(verify_nonlinear_lw(h1, fs3))
        k = h1.topo_dim
        r = quad_axis_resolution(k, res)
        cube = box_indicator(np.zeros(k), np.ones(k), (r,) * k,
                             box_lower=np.zeros(k), box_upper=np.ones(k))
        out.append(verify_set_lw(h1, cube, r_norm=args.rnorm))
        out.append(verify_set_lw(
            h1, random_set(-np.ones(k), np.ones(k), (r,) * k, seed=seed),
            r_norm=args.rnorm))
    if args.name in ("entropy", "all"):
        out.append(subadditivity_check(h1, _random_density(h1, res, seed),
                                       r_norm=args.rnorm))
        out.extend(proof_chain_checks(
            h1, _product_gaussian(h1, max(res, 64), seed), r_norm=args.rnorm))
        h2 = CorankGroup(0, 2, (1.0, 1.0))
        out.extend(proof_chain_checks(
            h2, _product_gaussian(h2, max(res, 64), seed), r_norm=args.rnorm))
    if args.name in ("products", "all"):
        a = corank_constants(h1)
        both = product_combine(a, a)
        ok = (
            tuple(both.c) == (Fraction(2, 7),) * 4
            and both.rnorm_pow == Fraction(6, 7)
        )
        out.append(_exact_identity_report(
            "product-exponents", ok,
            "pair x pair exponents 2/7, transform power 6/7"))
        lined = product_combine_line(corank_constants(h1))
        target = corank_constants(CorankGroup(1, 1, (1.0,)))
        ok2 = lined.c == target.c and lined.rnorm_pow == target.rnorm_pow
        out.append(_exact_identity_report(
            "line-combine", ok2,
            "line x pair data equals the d=1 group's data"))
    if args.name in ("sobolev", "all"):
        f = _random_density(h1, res, seed)
        out.append(sobolev_check(h1, f, r_norm=args.rnorm))
        out.append(level_set_check(h1, f))
        k = h1.topo_dim
        r = quad_axis_resolution(k, res)
        E = random_set(-np.ones(k), np.ones(k), (r,) * k, seed=seed)
        out.append(isoperimetric_check(h1, E, r_norm=args.rnorm))
    if not out:
        raise CLIError(f"unknown suite {args.name!r}")
    return out


# ---------------------------------------------------------------------------
# wiring

class _Parser(argparse.ArgumentParser):
    """Whole option names only (``--res`` must not pass for ``--res-list``);
    usage errors become one ``error:`` line and exit code 2 via main."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CLIError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _add_common(p, res_default=None, seed=True, rnorm=True):
    """Attach the shared options the subcommand reads; no --res if no default."""
    if res_default is not None:
        p.add_argument("--res", type=_positive_int, default=res_default,
                       help="nominal per-axis resolution budget")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if rnorm:
        p.add_argument("--rnorm", type=float, default=None,
                       help="transform-norm value (else env CARNOT_LW_RNORM, "
                            "else computed default)")
    p.add_argument("--out", type=str, default=None,
                   help="also write the JSON lines to this file")
    p.add_argument("--csv", type=str, default=None,
                   help="write a CSV table of the checks to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="carnotlw",
        description="Desk-scale checks of projection inequalities on "
                    "corank-one groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lw-verify", help="scale-sharp multilinear inequality")
    p.add_argument("--group", default="h1")
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--preset", choices=("bumps", "gauss"), default="bumps",
                   help="factor-density family")
    _add_common(p, 96)
    p.set_defaults(func=cmd_lw_verify)

    p = sub.add_parser("nonlinear-lw", help="full-family inequality, constant 1")
    p.add_argument("--group", default="h1")
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--preset", choices=("bumps", "gauss"), default="bumps")
    _add_common(p, 96)
    p.set_defaults(func=cmd_nonlinear_lw)

    p = sub.add_parser("set-lw", help="set-measure inequality on a 0/1 raster")
    p.add_argument("--group", default="h1")
    p.add_argument("--cube", action="store_true",
                   help="use the unit cube instead of a random set")
    _add_common(p, 64)
    p.set_defaults(func=cmd_set_lw)

    p = sub.add_parser("entropy-check", help="pushforward entropy subadditivity")
    p.add_argument("--group", default="h1")
    _add_common(p, 96)
    p.set_defaults(func=cmd_entropy_check)

    p = sub.add_parser("proof-chain", help="the four chained entropy steps")
    p.add_argument("--group", default="h1")
    p.add_argument("--form", choices=("product", "grid"), default="product")
    _add_common(p, 64)
    p.set_defaults(func=cmd_proof_chain)

    p = sub.add_parser("radon-norm", help="transform-norm lower bound scan")
    p.add_argument("--res-list", type=_positive_int, nargs="*", default=None)
    p.add_argument("--family", type=str, nargs="*", default=None)
    _add_common(p, seed=False, rnorm=False)
    p.set_defaults(func=cmd_radon_norm)

    p = sub.add_parser("bl-constant", help="Gaussian-saturated constant of a datum")
    p.add_argument("--datum-json", type=str, default=None)
    p.add_argument("--canonical", type=str, default=None,
                   help="lw:<k> | pair:<n> | corank:<group>")
    p.add_argument("--starts", type=_positive_int, default=6)
    _add_common(p, rnorm=False)
    p.set_defaults(func=cmd_bl_constant)

    p = sub.add_parser("product-combine", help="exact exponents for products")
    p.add_argument("--groups", type=str, default=None,
                   help="comma-separated group names, combined in order")
    p.add_argument("--left", type=str, default=None)
    p.add_argument("--right", type=str, default=None)
    p.add_argument("--lines", type=int, default=0,
                   help="then combine with this many real-line factors")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_product_combine)

    p = sub.add_parser("sobolev-check", help="gradient and level-set bounds")
    p.add_argument("--group", default="h1")
    _add_common(p, 64)
    p.set_defaults(func=cmd_sobolev_check)

    p = sub.add_parser("iso-check", help="isoperimetric consequence on a raster")
    p.add_argument("--group", default="h1")
    _add_common(p, 48)
    p.set_defaults(func=cmd_iso_check)

    p = sub.add_parser("suite", help="named bundles of checks")
    p.add_argument("--name", default="paper-core",
                   choices=("paper-core", "entropy", "products", "sobolev",
                            "all"))
    _add_common(p, 48)
    p.set_defaults(func=cmd_suite)

    return ap


def _emit(results: list, args) -> int:
    json_lines = []
    rows = []
    any_failed = False
    for item in results:
        if isinstance(item, Report):
            d = item.to_dict()
            rows.append(d)
            if not item.passed:
                any_failed = True
            print(item.line())
        else:
            d = dict(item)
            print(json.dumps(d, sort_keys=True))
        json_lines.append(json.dumps(d, sort_keys=True))
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write("\n".join(json_lines) + "\n")
    if getattr(args, "csv", None) and rows:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "lhs", "rhs", "deficit", "tolerance",
                             "passed"])
            for d in rows:
                writer.writerow([d["name"], repr(d["lhs"]), repr(d["rhs"]),
                                 repr(d["deficit"]), repr(d["tolerance"]),
                                 d["passed"]])
    return 1 if any_failed else 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        results = args.func(args)
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return _emit(results, args)


if __name__ == "__main__":
    sys.exit(main())
