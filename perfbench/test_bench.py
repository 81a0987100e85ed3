"""Self-test of the benchmark's own accounting.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from carnotlw import radon  # noqa: E402
from carnotlw.density import gaussian_density  # noqa: E402
from workloads import Op, Row  # noqa: E402


def _raises():
    raise FloatingPointError("synthetic")


def _faulty_round(index):
    return [
        Op("raises", _raises),
        Op("non-finite", lambda: ([Row("nan", math.nan, 1.0, 0.1, False)], {})),
        Op("verdict", lambda: ([Row("fails", 2.0, 1.0, 0.1, False)], {})),
        Op("good", lambda: ([Row("holds", 1.0, 2.0, 0.1, True)], {})),
    ]


def test_each_failure_kind_is_counted_and_the_run_continues():
    results, _ = run.closed_loop(_faulty_round, rounds=2)
    checks = [c for rnd in results for c in rnd]
    assert len(checks) == 8
    failed = {c["name"]: c["failure"] for c in checks if c["failure"] is not None}
    assert set(failed) == {"raises", "non-finite", "verdict"}
    assert failed["raises"].startswith("raised FloatingPointError")
    assert failed["non-finite"].startswith("non-finite")
    assert failed["verdict"].startswith("verdict failed")
    assert sum(c["failure"] is not None for c in checks) / len(checks) == 6 / 8


def test_same_seed_gives_the_same_digest():
    def one_round(seed):
        calls = workloads.layer_calls()
        results, _ = run.closed_loop(
            lambda i: workloads.make_round("verify-battery", calls, seed, i), rounds=1)
        return run.digests(results)

    first, again, other = one_round(3), one_round(3), one_round(4)
    assert first["exact"] == again["exact"]
    assert first["rounded"] == again["rounded"]
    assert first["rounded"] != other["rounded"]


def test_tail_percentile_leaves_ten_samples_beyond():
    times = [float(i) for i in range(90)]
    value, rank = run.tail_percentile(times)
    assert sum(t > value for t in times) == 10
    assert rank == 100.0 * 80 / 90
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_account_for_the_root_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("harness.sobolev_check", lambda: sum(range(20000)))
    middle = tracer.wrap("harness.verify_lw", lambda: [inner() for _ in range(3)])
    tracer.wrap("check", lambda: (middle(), inner()))()
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert all(t >= 0 for t in own)
    assert math.isclose(sum(own), root["end"] - root["start"], rel_tol=1e-9)


def test_line_geometry_counts_the_transform_samples():
    f = gaussian_density([-1.0, -0.5], [1.0, 0.7], (20, 30), sigma=0.4)
    tracer = tracing.Tracer()
    with tracer.patched():
        radon.radon_transform(f, 12, 18)
    points = [sp["points"] for sp in tracer.spans if sp["name"] == "density.interpolate"]
    inside, total = tracing.samples_in_box(f, 12, 18)
    assert total == sum(points)
    # brute force over the transform's own sample points
    radius = max(math.hypot(x, y) for x in (-1.0, 1.0) for y in (-0.5, 0.7))
    du = float(np.min(f.widths)) / 2.0
    u = -radius + du * (np.arange(int(np.ceil(2 * radius / du))) + 0.5)
    s = -radius + (2 * radius / 18) * (np.arange(18) + 0.5)
    count = 0
    for i in range(12):
        theta = 2 * math.pi * (i + 0.5) / 12
        normal = np.array([math.cos(theta), math.sin(theta)])
        along = np.array([-normal[1], normal[0]])
        pts = s[:, None, None] * normal + u[None, :, None] * along
        count += int(np.all((pts >= f.lower) & (pts <= f.upper), axis=-1).sum())
    assert inside == count


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
