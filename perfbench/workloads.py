"""The three benchmark workloads: the CLI calls that make up one unit of
work, and how the operations of a unit are read back from its artifacts.

A unit is one workload's CLI call (or calls, for bounds_check), driven
in-process through ``sparcomp.cli.main``. An operation is one size of
the emitted family (trend_sizes), one trial-log row (robustness_shared) or
one z2 cell (bounds_check), read from the call's artifacts only; the
correctness check compares operations against a stored reference or an
oracle (see checks.py).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List

# Unit sizes: "full" is what the benchmark measures, "warmup" runs the
# same code on the smallest inputs, "tiny" is for the self-test only.
SCALES = ("full", "tiny")

TREND_SIZES = ((8, 3, 16), (12, 3, 64), (16, 3, 256))
TREND_D = 0.278193
TREND_RHO2 = 2.0
ROBUST_SHAPE = (14, 6, 16)
ROBUST_D = 0.3
ROBUST_KINDS = ("gaussian_iid", "laplace_iid", "uniform_iid", "gauss_markov")
BOUNDS_SHAPE = (12, 3, 4)
BOUNDS_D = 0.7

# A trial row is (status, distortion or None, success); a trend shape row
# is (n_trials, n_errors); a cell row is (empirical_p, within_second_moment,
# within_suen, pU1, second_moment_bound, suen_bound, *pPair).
Rows = Dict[str, tuple]


def shape_key(n: int, L: int, M: int) -> str:
    return f"{n}-{L}-{M}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class CallResult:
    """What one CLI call left behind: its exit code (None if it raised)
    and captured stderr."""

    argv: List[str]
    code: object
    stderr: str


@dataclass
class Outcome:
    """Operations and artifacts of one unit. An operation whose call
    failed is absent, and so counts as failed against the expected set."""

    rows: Rows
    artifacts: Dict[str, str]


@lru_cache(maxsize=None)
def bounds_z2_grid() -> tuple:
    """The five interior z2 cells of acceptance criterion 6. Cached, so that
    after the warm-up no traced unit records the benchmark's own calls."""
    import numpy as np
    from sparcomp import make_params
    n, L, M = BOUNDS_SHAPE
    params = make_params(n, L, M, 1.0, BOUNDS_D)
    return tuple(float(z) for z in np.linspace(params.D, params.rho2, 7)[1:-1])


def rep_seed(seed: int, rep: int) -> int:
    """CLI seed of the rep-th unit of a run: seed, seed + 1, ..., so a run
    averages over inputs and most units land on recorded reference seeds."""
    return (seed + rep) % 2 ** 64


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    sizes: Dict[str, dict]
    # (seed, sizes, workdir) -> list of argv, one per CLI call
    calls: Callable[[int, dict, Path], List[List[str]]]
    # (sizes) -> source blocks decided per unit
    blocks: Callable[[dict], int]
    # (calls, workdir) -> Outcome
    collect: Callable[[List[CallResult], Path], Outcome]


def _trial_row(status: str, distortion, success: bool) -> tuple:
    return (status, None if distortion is None else float(distortion), bool(success))


# ---------------------------------------------------------------------------
# trend_sizes: exponent-trend over the criterion 9 family
# ---------------------------------------------------------------------------

def _trend_calls(seed, sizes, workdir):
    spec = ",".join(f"{n}:{L}:{M}" for n, L, M in TREND_SIZES)
    return [["exponent-trend", "--sizes", spec, "--D", repr(TREND_D),
             "--rho2", repr(TREND_RHO2), "--seed", str(seed),
             "--trials", str(sizes["trials"]),
             "--out", str(workdir / "trend.json")]]


def _trend_collect(calls, workdir):
    # exponent-trend writes no trial log, so an operation is one size of
    # the emitted family: its trial and error counts.
    (call,) = calls
    rows: Rows = {}
    artifacts: Dict[str, str] = {}
    if call.code == 0:
        out = workdir / "trend.json"
        artifacts["trend.json"] = sha256_file(out)
        for e in json.loads(out.read_text())["entries"]:
            rows[shape_key(e["n"], e["L"], e["M"])] = (e["n_trials"], e["n_errors"])
    return Outcome(rows, artifacts)


# ---------------------------------------------------------------------------
# robustness_shared: robustness over the default four source models
# ---------------------------------------------------------------------------

def _robust_calls(seed, sizes, workdir):
    n, L, M = ROBUST_SHAPE
    return [["robustness", "--n", str(n), "--L", str(L), "--M", str(M),
             "--D", repr(ROBUST_D), "--seed", str(seed),
             "--trials", str(sizes["trials"]),
             "--out", str(workdir / "robustness.json"),
             "--trial-log", str(workdir / "trials")]]


def _robust_collect(calls, workdir):
    (call,) = calls
    rows: Rows = {}
    artifacts: Dict[str, str] = {}
    if call.code == 0:
        artifacts["robustness.json"] = sha256_file(workdir / "robustness.json")
        for path in sorted(workdir.glob("trials.*.csv")):
            artifacts[path.name] = sha256_file(path)
            lines = [l for l in path.read_text().splitlines()
                     if l and not l.startswith("#")]
            for rec in csv.DictReader(lines):
                dist = None if rec["distortion"] == "nan" else float(rec["distortion"])
                rows[f"{rec['source_kind']}/{rec['trial']}"] = _trial_row(
                    rec["status"], dist, rec["success"] == "true")
    return Outcome(rows, artifacts)


# ---------------------------------------------------------------------------
# bounds_check: suen --check at the five criterion 6 cells
# ---------------------------------------------------------------------------

def _bounds_calls(seed, sizes, workdir):
    n, L, M = BOUNDS_SHAPE
    return [["suen", "--check", "--n", str(n), "--L", str(L), "--M", str(M),
             "--D", repr(BOUNDS_D), "--seed", str(seed),
             "--samples", str(sizes["samples"]),
             "--matrices", str(sizes["matrices"]), "--z2", repr(z2),
             "--out", str(workdir / f"cell{i}.json")]
            for i, z2 in enumerate(bounds_z2_grid())]


def _bounds_collect(calls, workdir):
    rows: Rows = {}
    artifacts: Dict[str, str] = {}
    for i, call in enumerate(calls):
        key = f"cell{i}"
        out = workdir / f"{key}.json"
        # exit 3 is the CLI's verdict that a bound was breached; it is a
        # valid outcome when the emitted flags say so.
        if call.code not in (0, 3) or not out.exists():
            continue
        doc = json.loads(out.read_text())
        artifacts[out.name] = sha256_file(out)
        within = (doc["within_second_moment"], doc["within_suen"])
        # flags must follow from the emitted numbers, and the exit code
        # from the flags (3-SE allowance on the empirical side)
        p = doc["empirical_p"]
        m = doc["meta"]["config"]["matrices"]
        se = math.sqrt(p * (1.0 - p) / m)
        sm, su = doc["second_moment_bound"], doc["suen"]["bound"]
        consistent = (
            doc["empirical_se"] == se
            and within == (p <= sm + 3.0 * se, p <= su + 3.0 * se)
            and call.code == (0 if all(within) else 3))
        rows[key] = ((p, *within, doc["pU1"], sm, su, *doc["pPair"]) if consistent
                     else ("inconsistent",))
    return Outcome(rows, artifacts)


WORKLOADS = {
    "trend_sizes": Workload(
        "trend_sizes", 21,
        {"full": {"trials": 20}, "tiny": {"trials": 2}, "warmup": {"trials": 1}},
        _trend_calls,
        lambda sizes: len(TREND_SIZES) * sizes["trials"], _trend_collect),
    "robustness_shared": Workload(
        "robustness_shared", 8,
        {"full": {"trials": 5}, "tiny": {"trials": 1}, "warmup": {"trials": 1}},
        _robust_calls,
        lambda sizes: len(ROBUST_KINDS) * sizes["trials"], _robust_collect),
    "bounds_check": Workload(
        "bounds_check", 6,
        {"full": {"matrices": 2000, "samples": 200_000},
         "tiny": {"matrices": 20, "samples": 2_000},
         "warmup": {"matrices": 1, "samples": 2_000}},
        _bounds_calls,
        lambda sizes: 5 * sizes["matrices"], _bounds_collect),
}
