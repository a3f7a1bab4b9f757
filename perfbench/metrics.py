"""Metric names, units and how the per-layer metrics follow from spans.

Per-layer values are per unit of work (one workload's CLI call or calls):
totals over the traced units divided by their number, except latency
percentiles, which pool every call. The five layer self times
core.build_design_matrix.self_s, encoder.self_s, sim.self_s, theory.self_s
and cli.self_s sum to trace.wall_s.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

SHAPES = ("8-3-16", "12-3-64", "16-3-256", "14-6-16")
SOURCE_KINDS = ("gaussian_iid", "laplace_iid", "uniform_iid", "gauss_markov")

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "blocks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "core.build_design_matrix.calls": ("count", "lower"),
    "core.build_design_matrix.distinct_frac": ("ratio", "higher"),
    "core.build_design_matrix.self_s": ("s", "lower"),
    "core.ns_per_entry": ("ns/entry", "lower"),
}
for _s in SHAPES:
    PER_LAYER.update({
        f"encoder.encode_min_distance.calls.{_s}": ("count", "lower"),
        f"encoder.encode_min_distance.self_s.{_s}": ("s", "lower"),
        f"encoder.encode_min_distance.p50_ms.{_s}": ("ms", "lower"),
        f"encoder.encode_min_distance.p90_ms.{_s}": ("ms", "lower"),
        f"encoder.searched.{_s}": ("count", "lower"),
        f"encoder.gated_frac.{_s}": ("ratio", "higher"),
        f"encoder.candidates.{_s}": ("count", "lower"),
        f"encoder.ns_per_candidate.{_s}": ("ns/candidate", "lower"),
    })
PER_LAYER.update({
    "encoder.all_distortions.calls": ("count", "lower"),
    "encoder.all_distortions.self_s": ("s", "lower"),
    "encoder.all_distortions.ns_per_candidate": ("ns/candidate", "lower"),
    "encoder.self_s": ("s", "lower"),
    "sim.estimate_pU1.ns_per_sample": ("ns/sample", "lower"),
    "sim.estimate_pair_prob.ns_per_sample": ("ns/sample", "lower"),
})
for _k in SOURCE_KINDS:
    PER_LAYER[f"sim.draw_source.self_s.{_k}"] = ("s", "lower")
PER_LAYER.update({
    "sim.self_s": ("s", "lower"),
    "theory.calls": ("count", "lower"),
    "theory.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifacts": ("count", "higher"),
    "cli.artifact_identical": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[list], units: int) -> Dict[str, float]:
    """Per-unit per-layer metrics from the spans of `units` traced units."""
    child = defaultdict(float)
    for name, start, end, parent, _run, _info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, _parent, _run, _info) in enumerate(spans):
        own = (end - start) - child[i]
        self_by_name[name] += own
        self_by_layer[name.split(".", 1)[0]] += own
        calls[name] += 1
    wall = sum(end - start for _n, start, end, parent, _r, _i in spans if parent < 0)

    out: Dict[str, float] = {}
    builds = [s for s in spans if s[0] == "core.build_design_matrix" and s[5]]
    entries = sum(s[5][1] for s in builds)
    build_self = self_by_name["core.build_design_matrix"]
    out["core.build_design_matrix.calls"] = len(builds) / units
    out["core.build_design_matrix.distinct_frac"] = _ratio(
        len({(s[4], s[5][0]) for s in builds}), len(builds))  # distinct within a unit
    out["core.build_design_matrix.self_s"] = build_self / units
    out["core.ns_per_entry"] = _ratio(build_self * 1e9, entries)

    per_shape = defaultdict(list)  # shape -> [(status, seconds, candidates)]
    for i, s in enumerate(spans):
        if s[0] == "encoder.encode_min_distance" and s[5]:
            shape, status, codewords = s[5]
            per_shape[shape].append((status, s[2] - s[1] - child[i], codewords))
    for shape in SHAPES:
        rows = per_shape.get(shape, [])
        ok_ms = [1e3 * sec for status, sec, _ in rows if status == "ok"]
        searched = len(ok_ms)
        seconds = sum(sec for _, sec, _ in rows)
        candidates = sum(cw for status, _, cw in rows if status == "ok")
        out[f"encoder.encode_min_distance.calls.{shape}"] = len(rows) / units
        out[f"encoder.encode_min_distance.self_s.{shape}"] = seconds / units
        out[f"encoder.encode_min_distance.p50_ms.{shape}"] = (
            float(np.percentile(ok_ms, 50)) if ok_ms else 0.0)
        out[f"encoder.encode_min_distance.p90_ms.{shape}"] = (
            float(np.percentile(ok_ms, 90)) if ok_ms else 0.0)
        out[f"encoder.searched.{shape}"] = searched / units
        out[f"encoder.gated_frac.{shape}"] = _ratio(len(rows) - searched, len(rows))
        out[f"encoder.candidates.{shape}"] = candidates / units
        out[f"encoder.ns_per_candidate.{shape}"] = _ratio(seconds * 1e9, candidates)

    alld = [s for s in spans if s[0] == "encoder.all_distortions" and s[5]]
    alld_self = self_by_name["encoder.all_distortions"]
    out["encoder.all_distortions.calls"] = len(alld) / units
    out["encoder.all_distortions.self_s"] = alld_self / units
    out["encoder.all_distortions.ns_per_candidate"] = _ratio(
        alld_self * 1e9, sum(s[5][0] for s in alld))
    out["encoder.self_s"] = self_by_layer["encoder"] / units

    for name in ("sim.estimate_pU1", "sim.estimate_pair_prob"):
        samples = sum(s[5][0] for s in spans if s[0] == name and s[5])
        out[f"{name}.ns_per_sample"] = _ratio(self_by_name[name] * 1e9, samples)
    draw = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "sim.draw_source" and s[5]:
            draw[s[5][0]] += s[2] - s[1] - child[i]
    for kind in SOURCE_KINDS:
        out[f"sim.draw_source.self_s.{kind}"] = draw[kind] / units
    out["sim.self_s"] = self_by_layer["sim"] / units

    out["theory.calls"] = sum(c for n, c in calls.items() if n.startswith("theory.")) / units
    out["theory.self_s"] = self_by_layer["theory"] / units
    out["cli.self_s"] = self_by_layer["cli"] / units
    out["trace.wall_s"] = wall / units
    return out
