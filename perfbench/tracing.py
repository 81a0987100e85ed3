"""In-memory spans around the layer boundaries of carnotlw.

The tracer wraps, from the benchmark's side only, two kinds of call sites:
the names one package module imports from another (patched on the
importing module for the duration of a traced pass), and the benchmark's
own direct calls into each layer.  A span records its name, start, end,
parent and a few counts taken from the call's arguments or result.  A
span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from carnotlw import harness, radon
from carnotlw.density import BlockDensity, GridDensity, ProductDensity

from workloads import BATTERY_GROUPS, group_label

# (module, imported name, span name): the cross-module call sites.
PATCHED = (
    (harness, "interpolate", "density.interpolate"),
    (harness, "project_points", "group.project_points"),
    (harness, "lp_norm", "density.lp_norm"),
    (harness, "corank_pushforward", "density.corank_pushforward"),
    (harness, "entropy", "density.entropy"),
    (harness, "multilinear_lhs", "harness.multilinear_lhs"),
    (radon, "interpolate", "density.interpolate"),
    (radon, "radon_transform", "radon.radon_transform"),
)

# Span name -> the per-layer metric its self time is added to.  The self
# time of every other span (the per-check root span) is unattributed.
RASTERIZERS = (
    "density.random_bumps",
    "density.random_set",
    "density.gaussian_density",
    "density.gaussian_product",
    "density.density_from_function",
)
SELF_TIME = {
    **{name: "density.rasterize_s" for name in RASTERIZERS},
    "density.interpolate": "density.interpolate_s",
    "group.project_points": "group.project_s",
    "harness.multilinear_lhs": "harness.quadrature_s",
    "harness.verify_lw": "harness.verify_self_s",
    "harness.verify_nonlinear_lw": "harness.verify_self_s",
    "harness.verify_set_lw": "harness.set_measure_s",
    "density.lp_norm": "density.lp_norm_s",
    "density.corank_pushforward": "density.pushforward_s",
    "density.entropy": "density.entropy_s",
    "harness.subadditivity_check": "harness.chain_self_s",
    "harness.proof_chain_checks": "harness.chain_self_s",
    "harness.sobolev_check": "harness.consequence_s",
    "harness.level_set_check": "harness.consequence_s",
    "radon.radon_ratio": "radon.transform_s",
    "radon.radon_transform": "radon.transform_s",
    "brascamp_lieb.bl_constant": "brascamp_lieb.ascent_s",
}


def metric_group(label: str) -> str:
    return label.replace(":", "_").replace(",", "_")


def _cells(d) -> int:
    if isinstance(d, GridDensity):
        return int(d.values.size)
    if isinstance(d, ProductDensity):
        return sum(int(g.values.size) for g in d.factors)
    if isinstance(d, BlockDensity):
        return sum(int(g.values.size) for _, g in d.blocks)
    return 0


def _n_points(pts) -> int:
    pts = np.asarray(pts)
    return 1 if pts.ndim == 1 else int(pts.shape[0])


def samples_in_box(f: GridDensity, n_angles: int, n_offsets: int,
                   s_max=None, oversample: float = 2.0) -> tuple[int, int]:
    """(line samples inside f's box, all line samples) of one transform.

    Uses the transform's line geometry: offsets across [-s_max, s_max], and
    along each line samples at spacing min(cell side)/oversample across the
    box's corner-radius diameter.
    """
    radius = max(math.hypot(x, y) for x in (f.lower[0], f.upper[0])
                 for y in (f.lower[1], f.upper[1]))
    s_max = radius if s_max is None else s_max
    du = float(np.min(f.widths)) / oversample
    n_u = int(np.ceil(2 * radius / du))
    theta = 2 * math.pi * (np.arange(n_angles) + 0.5) / n_angles
    ds = 2 * s_max / n_offsets
    s = -s_max + ds * (np.arange(n_offsets) + 0.5)
    normal = (np.cos(theta), np.sin(theta))
    along = (-normal[1], normal[0])
    u_lo = np.full((n_angles, n_offsets), -np.inf)
    u_hi = np.full((n_angles, n_offsets), np.inf)
    # midpoint angles give no direction component that is exactly zero in
    # floating point, so each slab bounds the line parameter on both sides
    for axis in range(2):
        base = normal[axis][:, None] * s[None, :]
        t1 = (f.lower[axis] - base) / along[axis][:, None]
        t2 = (f.upper[axis] - base) / along[axis][:, None]
        u_lo = np.maximum(u_lo, np.minimum(t1, t2))
        u_hi = np.minimum(u_hi, np.maximum(t1, t2))
    # sample k sits at u = -radius + du * (k + 0.5)
    k_lo = np.clip(np.ceil((u_lo + radius) / du - 0.5), 0, n_u)
    k_hi = np.clip(np.floor((u_hi + radius) / du - 0.5), -1, n_u - 1)
    inside = int(np.clip(k_hi - k_lo + 1, 0, None).sum())
    return inside, n_angles * n_offsets * n_u


_TRANSFORM_SIGNATURE = inspect.signature(radon.radon_transform)


def _transform_counts(args, kwargs, result) -> dict:
    bound = _TRANSFORM_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"in_box": samples_in_box(**bound.arguments)[0]}


# Span name -> counts(args, kwargs, result), taken after the span has ended.
COUNTS = {
    "density.interpolate": lambda a, k, r: {"points": _n_points(a[1])},
    "group.project_points": lambda a, k, r: {"points": _n_points(a[2]), "j": a[1]},
    "harness.multilinear_lhs": lambda a, k, r: {"group": group_label(a[0])},
    "density.corank_pushforward": lambda a, k, r: {"out_cells": _cells(r)},
    "radon.radon_transform": _transform_counts,
    "brascamp_lieb.bl_constant": lambda a, k, r: {"converged": bool(r.converged)},
    **{name: (lambda a, k, r: {"cells": _cells(r)}) for name in RASTERIZERS},
}


class Tracer:
    """Collects nested spans of one thread in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if count is not None:
                span.update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap the cross-module call sites; restore them on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHED]
        try:
            for (mod, attr, name), (_, _, orig) in zip(PATCHED, saved):
                setattr(mod, attr, self.wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)


def self_times(spans: list[dict]) -> list[float]:
    child = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - child[i] for i, sp in enumerate(spans)]


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts, summed over all spans."""
    out: dict[str, float] = defaultdict(float)
    quad_calls: dict[str, int] = defaultdict(int)
    quad_cells: dict[str, int] = defaultdict(int)
    bl_calls = 0
    for sp, own in zip(spans, self_times(spans)):
        name = sp["name"]
        parent = spans[sp["parent"]] if sp["parent"] is not None else {"name": None}
        if name in SELF_TIME:
            out[SELF_TIME[name]] += own
        out["density.rasterize_cells"] += sp.get("cells", 0)
        out["density.pushforward_out_cells"] += sp.get("out_cells", 0)
        if name == "density.interpolate":
            out["density.interpolate_points"] += sp["points"]
            if parent["name"] == "radon.radon_transform":
                out["radon.line_samples"] += sp["points"]
        elif name == "group.project_points":
            out["group.project_points"] += sp["points"]
            # every quadrature chunk projects all its cells along j = 1 first
            if parent["name"] == "harness.multilinear_lhs" and sp["j"] == 1:
                quad_cells[parent["group"]] += sp["points"]
        elif name == "harness.multilinear_lhs":
            quad_calls[sp["group"]] += 1
        elif name == "radon.radon_transform":
            out["radon.samples_in_box"] += sp["in_box"]
        elif name == "brascamp_lieb.bl_constant":
            bl_calls += 1
            out["brascamp_lieb.converged"] += sp["converged"]
    out["harness.quadrature_cells"] = float(sum(quad_cells.values()))
    for label in BATTERY_GROUPS:
        calls = quad_calls.get(label, 0)
        per_call = quad_cells.get(label, 0) / calls if calls else 0.0
        out[f"harness.quadrature_cells.{metric_group(label)}"] = per_call
    lines = out["radon.line_samples"]
    out["radon.samples_in_box_frac"] = out.pop("radon.samples_in_box", 0.0) / lines if lines else 0.0
    converged = out.pop("brascamp_lieb.converged", 0.0)
    out["brascamp_lieb.converged_frac"] = converged / bl_calls if bl_calls else 0.0
    return dict(out)
