"""Seeded, closed-loop benchmark of carnotlw's inequality checks.

Run from the repository root:

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 20 --trace 0

One caller in one process runs whole rounds of a workload's checks, each
check after the previous one has returned, until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and then traced and reports the per-layer metrics.  The last
line of standard output is one JSON object; the full results (provenance,
per-check rows, output digests, failures) and, when traced, the spans are
written under ``perfbench/out/``.  See NOTES.md for the design.
"""

import os
import sys

# BLAS and OpenMP pools are capped at the CPUs this process may use.  This
# has to happen before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(NPROC)
# Every check passes its transform norm explicitly, and setup_s times the
# computed default, so an inherited override must not leak in.
os.environ.pop("CARNOT_LW_RNORM", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("group", "density", "harness", "radon", "brascamp_lieb", "cli")
WORKLOAD_NAMES = ("verify-battery", "entropy-chain", "transform-constants")

SETUP_REPEATS = 3
SETUP_ARGV = ("-m", "carnotlw.cli", "product-combine", "--left", "h1", "--right", "h1")
LAYER_SETUP_CODE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import carnotlw.cli\n"
    "t1 = time.perf_counter()\n"
    "from carnotlw.radon import default_radon_norm\n"
    "value = default_radon_norm()\n"
    "print(json.dumps([t1 - t0, time.perf_counter() - t1, value]))\n"
)
CHILD_TIMEOUT_S = 60
DIGEST_DIGITS = 10  # significant digits of the rounded output digest

END_TO_END = {
    "checks_per_s": "1/s",
    "check_p50_s": "s",
    "check_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "density.rasterize_s": "s/round",
    "density.rasterize_cells": "count/round",
    "density.interpolate_s": "s/round",
    "density.interpolate_points": "count/round",
    "group.project_s": "s/round",
    "group.project_points": "count/round",
    "harness.quadrature_s": "s/round",
    "harness.quadrature_cells": "count/round",
    "harness.quadrature_cells.h1": "cells/call",
    "harness.quadrature_cells.d1n1": "cells/call",
    "harness.quadrature_cells.h2_1_2": "cells/call",
    "harness.verify_self_s": "s/round",
    "harness.set_measure_s": "s/round",
    "density.lp_norm_s": "s/round",
    "density.pushforward_s": "s/round",
    "density.pushforward_out_cells": "count/round",
    "density.entropy_s": "s/round",
    "harness.chain_self_s": "s/round",
    "harness.consequence_s": "s/round",
    "radon.transform_s": "s/round",
    "radon.line_samples": "count/round",
    "radon.samples_in_box_frac": "ratio",
    "brascamp_lieb.ascent_s": "s/round",
    "brascamp_lieb.converged_frac": "ratio",
    "radon.default_norm_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s/round",
    "trace.overhead_s": "s/round",
    "trace.unattributed_s": "s/round",
    **{f"{m}.src_lines": "lines" for m in MODULES},
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# running checks


def run_op(op) -> dict:
    """Run one check; a failure of any kind is recorded and the run goes on."""
    rows, values, failure = [], {}, None
    t0 = time.perf_counter()
    try:
        rows, values = op.run()
    except Exception as exc:  # the closed loop must survive a failing check
        failure = f"raised {type(exc).__name__}: {exc}"
        values = {"traceback": traceback.format_exc()}
    seconds = time.perf_counter() - t0
    if failure is None:
        bad = [r for r in rows if not (math.isfinite(r.lhs) and math.isfinite(r.rhs))]
        failed = [r for r in rows if not r.passed]
        if not rows:
            failure = "returned no verdict"
        elif bad:
            failure = f"non-finite lhs or rhs in {bad[0].name}: {bad[0].lhs!r}, {bad[0].rhs!r}"
        elif failed:
            r = failed[0]
            failure = (f"verdict failed in {r.name}: lhs {r.lhs!r} rhs {r.rhs!r} "
                       f"tolerance {r.tolerance!r}")
    return {"name": op.name, "seconds": seconds, "failure": failure,
            "rows": [r._asdict() for r in rows], "values": values}


def closed_loop(make_round, seconds=None, rounds=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds`` rounds.

    Returns the per-round check results and the wall time.
    """
    results = []
    t0 = time.perf_counter()
    while True:
        results.append([run_op(op) for op in make_round(len(results))])
        if rounds is not None:
            if len(results) >= rounds:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    return results, time.perf_counter() - t0


def _canon(value, digits):
    if isinstance(value, bool):
        return value
    value = float(value)
    if digits is None or not math.isfinite(value):
        return repr(value)
    return f"{value:.{digits - 1}e}"


def round_digest(checks: list[dict], digits) -> str:
    """SHA-256 over each check's (name, lhs, rhs, tolerance, passed) rows.

    ``digits`` rounds every number to that many significant digits; None
    hashes the exact values.  Output values beyond the rows (a transform
    ratio, the ascent's convergence flag) are covered too.
    """
    h = hashlib.sha256()
    for check in checks:
        item = [check["name"], check["failure"] is None]
        for row in check["rows"]:
            item.append([row["name"], _canon(row["lhs"], digits), _canon(row["rhs"], digits),
                         _canon(row["tolerance"], digits), row["passed"]])
        for key in sorted(k for k in check["values"] if k != "traceback"):
            item.append([key, _canon(check["values"][key], digits)])
        h.update(json.dumps(item).encode())
    return h.hexdigest()


def digests(results: list[list[dict]]) -> dict:
    out = {"relative_rounding": f"{DIGEST_DIGITS} significant digits"}
    for label, digits in (("rounded", DIGEST_DIGITS), ("exact", None)):
        per_round = [round_digest(checks, digits) for checks in results]
        out[label] = hashlib.sha256("".join(per_round).encode()).hexdigest()
        out[f"{label}_rounds"] = per_round
    return out


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer no percentile qualifies; the maximum is given
    with rank 100.
    """
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


# ---------------------------------------------------------------------------
# set-up cost and provenance


def _child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _run_child(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def _check_combine_output(proc) -> str | None:
    if proc.returncode != 0:
        return f"product-combine exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"product-combine printed no JSON: {proc.stdout[-300:]!r}"
    if out.get("exponents") != ["2/7"] * 4 or out.get("rnorm_power") != "6/7":
        return f"product-combine gave wrong exponents: {out}"
    if not (isinstance(out.get("r_norm"), float) and out["r_norm"] > 0):
        return f"product-combine gave no positive transform norm: {out}"
    return None


def measure_setup() -> tuple[list[float], str | None]:
    """Wall times of fresh ``carnotlw.cli product-combine`` runs."""
    times, problem = [], None
    for _ in range(SETUP_REPEATS):
        seconds, proc = _run_child(SETUP_ARGV)
        times.append(seconds)
        problem = problem or _check_combine_output(proc)
    return times, problem


def measure_setup_layers() -> tuple[dict, str | None]:
    """Import time of the CLI module and the lazy default-norm computation."""
    samples, problem = [], None
    for _ in range(SETUP_REPEATS):
        _, proc = _run_child(("-c", LAYER_SETUP_CODE))
        if proc.returncode != 0:
            problem = problem or f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}"
            continue
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if not samples:
        return {"cli.import_s": math.nan, "radon.default_norm_s": math.nan}, problem
    return {
        "cli.import_s": statistics.median(s[0] for s in samples),
        "radon.default_norm_s": statistics.median(s[1] for s in samples),
        "default_radon_norm": samples[0][2],
    }, problem


def src_lines() -> dict[str, int]:
    return {m: len((SRC / "carnotlw" / f"{m}.py").read_text().splitlines()) for m in MODULES}


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "carnotlw").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": src.hexdigest(),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# the two modes


def untraced(args, rounds_with) -> dict:
    from workloads import layer_calls

    results, wall = closed_loop(rounds_with(layer_calls()), seconds=args.seconds)
    checks = [c for rnd in results for c in rnd]
    times = [c["seconds"] for c in checks]
    passed = sum(c["failure"] is None for c in checks)
    tail, rank = tail_percentile(times)
    setup_times, setup_problem = measure_setup()
    metrics = {
        # a check counts as completed when it returned a passing verdict
        "checks_per_s": passed / wall,
        "check_p50_s": statistics.median(times),
        "check_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    return {
        "results": results, "wall_s": wall, "metrics": metrics,
        "problems": [p for p in (setup_problem,) if p],
        "detail": {"rounds": len(results), "tail_percentile": rank, "tail_samples": len(times),
                   "setup_samples_s": setup_times},
    }


def traced(args, rounds_with) -> dict:
    """The same rounds untraced (half the time) and then traced."""
    from tracing import Tracer, layer_totals
    from workloads import Op, layer_calls

    plain, wall_plain = closed_loop(rounds_with(layer_calls()), seconds=args.seconds / 2)
    rounds = len(plain)
    tracer = Tracer()
    calls = layer_calls(tracer.wrap)

    def traced_round(i):
        return [Op(op.name, tracer.wrap("check", op.run)) for op in rounds_with(calls)(i)]

    with tracer.patched():
        results, wall = closed_loop(traced_round, rounds=rounds)
    totals = layer_totals(tracer.spans)
    setup, setup_problem = measure_setup_layers()
    problems = [p for p in (setup_problem,) if p]
    if digests(plain)["exact"] != digests(results)["exact"]:
        problems.append("traced outputs differ from untraced outputs")

    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit.endswith("/round"):
            metrics[name] = totals.get(name, 0.0) / rounds
        elif name in totals:
            metrics[name] = totals[name]
    attributed = sum(totals.get(n, 0.0) for n, u in PER_LAYER.items()
                     if u == "s/round" and n.split(".")[0] != "trace")
    metrics["trace.wall_s"] = wall / rounds
    metrics["trace.overhead_s"] = (wall - wall_plain) / rounds
    metrics["trace.unattributed_s"] = (wall - attributed) / rounds
    metrics["cli.import_s"] = setup["cli.import_s"]
    metrics["radon.default_norm_s"] = setup["radon.default_norm_s"]
    for module, n in src_lines().items():
        metrics[f"{module}.src_lines"] = n
    return {
        "results": plain + results, "wall_s": wall, "metrics": metrics,
        "problems": problems, "spans": tracer.spans,
        "detail": {"rounds": rounds, "untraced_wall_s": wall_plain,
                   "default_radon_norm": setup.get("default_radon_norm")},
    }


def quadrature_lines(metrics: dict) -> list[str]:
    """Cells each quadrature really used, next to the nominal res^3 budget."""
    from tracing import metric_group
    from workloads import BATTERY_GROUPS, NOMINAL_RES

    budget = NOMINAL_RES ** 3
    lines = [f"quadrature cells per check vs the nominal budget {NOMINAL_RES}^3 = {budget}:"]
    for label, G in BATTERY_GROUPS.items():
        cells = metrics[f"harness.quadrature_cells.{metric_group(label)}"]
        if cells:
            side = round(cells ** (1 / G.topo_dim))
            lines.append(f"  {label}: {cells:.0f} cells (about {side} per axis), "
                         f"{100 * cells / budget:.1f}% of the budget")
    return lines if len(lines) > 1 else []


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "carnotlw"
    if not (package / "__init__.py").is_file():
        print(f"error: no carnotlw sources at {package}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import carnotlw

    if Path(carnotlw.__file__).resolve().parent != package.resolve():
        print(f"error: carnotlw was imported from {carnotlw.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import workloads

    workloads.warm_up()

    def rounds_with(calls):
        return lambda i: workloads.make_round(args.workload, calls, args.seed, i)

    if args.trace:
        run, declared = traced(args, rounds_with), PER_LAYER
    else:
        run, declared = untraced(args, rounds_with), END_TO_END

    checks = [c for rnd in run["results"] for c in rnd]
    failures = [c for c in checks if c["failure"] is not None]
    attempted = len(checks)
    correct = not failures and not run["problems"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), "correct": correct,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "wall_s": run["wall_s"],
        "metrics": {n: {"value": run["metrics"][n], "unit": u} for n, u in declared.items()},
        **run["detail"], "problems": run["problems"],
        "failures": [{"name": c["name"], "failure": c["failure"]} for c in failures],
        "digest": digests(run["results"]), "checks": run["results"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n")

    prov = report["provenance"]
    print(f"carnotlw benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {NPROC} threads")
    print(f"Python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"{prov['machine']}, git {prov['git_revision']}, src sha256 {prov['src_sha256'][:12]}")
    print(f"rounds: {run['detail']['rounds']}"
          + (" untraced, then the same rounds traced" if args.trace else ""))
    print(f"checks: {attempted} attempted, {len(failures)} failed, "
          f"failed_frac = {len(failures) / attempted:.4g}, wall {run['wall_s']:.2f} s")
    for name, unit in declared.items():
        print(f"  {name} = {run['metrics'][name]:.6g} {unit}")
    if not args.trace:
        d = run["detail"]
        print(f"  (check_tail_s is the p{d['tail_percentile']:.1f} of {d['tail_samples']} checks)")
    else:
        for line in quadrature_lines(run["metrics"]):
            print(line)
    print(f"output digest ({DIGEST_DIGITS} significant digits): {report['digest']['rounded']}")
    for c in failures:
        print(f"FAILED {c['name']}: {c['failure']}")
    for p in run["problems"]:
        print(f"PROBLEM {p}")
    print(f"results: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
