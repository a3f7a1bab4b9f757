"""Self-test of the benchmark, with no timing gates.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks BENCHMARK.json against the metric tables, runs a tiny unit of each
workload in-process against its oracle and against a reference recorded
from that unit with one row corrupted, and checks the result line of the
benchmark program.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from functools import partial

import pytest

import checks
import metrics
import record
import run
import workloads as wl

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {n: (m["unit"], m["better"]) for n, m in e2e.items()} == metrics.END_TO_END
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert layer == metrics.PER_LAYER and len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(wl.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u, _ in list(metrics.END_TO_END.values())
               + list(metrics.PER_LAYER.values()))


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_corrupted_reference_row_counts_as_failed(name, tmp_path):
    workload = wl.WORKLOADS[name]
    tiny = workload.sizes["tiny"]
    _, outcome = run.run_unit(workload, workload.default_seed, tiny, tmp_path)
    oracle = checks.ORACLES[name](workload.default_seed, tiny)
    assert checks.count_failed(oracle, outcome.rows) == (len(oracle), 0)

    ref = json.loads(json.dumps(record.to_reference(outcome)))
    expected = checks.from_reference(ref)
    assert checks.count_failed(expected, outcome.rows) == (len(expected), 0)
    key = sorted(ref["rows"])[0]
    row = ref["rows"][key]
    ref["rows"][key] = [f"corrupted-{row[0]}"] + row[1:]
    assert checks.count_failed(checks.from_reference(ref), outcome.rows) == (len(expected), 1)


def test_wrong_coverage_estimate_counts_as_failed(tmp_path):
    workload = wl.WORKLOADS["bounds_check"]
    tiny = workload.sizes["tiny"]
    _, outcome = run.run_unit(workload, workload.default_seed, tiny, tmp_path)
    expected = checks.from_reference(json.loads(json.dumps(record.to_reference(outcome))))
    oracle = checks.ORACLES["bounds_check"](workload.default_seed, tiny)
    p, w1, w2, pU1, *rest = outcome.rows["cell0"]
    for wrong in (pU1 * (1 + 4 * checks.REL_TOL), pU1 + 0.2):
        rows = dict(outcome.rows, cell0=(p, w1, w2, wrong, *rest))
        assert checks.count_failed(expected, rows)[1] == 1
    assert checks.count_failed(oracle, rows)[1] == 1  # pU1 far from the closed form


def test_distortion_outside_tolerance_counts_as_failed():
    expected = {"a": partial(checks._same_row, ("ok", 0.25, True))}
    near = 0.25 * (1 + checks.REL_TOL / 2)
    far = 0.25 * (1 + 4 * checks.REL_TOL)
    assert checks.count_failed(expected, {"a": ("ok", near, True)}) == (1, 0)
    assert checks.count_failed(expected, {"a": ("ok", far, True)}) == (1, 1)
    assert checks.count_failed(expected, {}) == (1, 1)
    assert checks.count_failed(expected, {"a": ("ok", near, True), "b": ()}) == (2, 1)


def _bench(*args, cwd=run.ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_result_line_schema(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert set(json.loads(lines[0])["machine"]) >= {
        "nproc", "cpu_model", "cache", "python", "numpy", "scipy", "openblas",
        "blas_threads", "SPARCOMP_THREADS"}
    checked = json.loads(lines[-2])["checked"]
    result = json.loads(lines[-1])
    assert checked["reference"] + checked["oracle"] == result["attempted"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {n: v["unit"] for n, v in result["metrics"].items()} == \
        {n: u for n, (u, _) in table.items()}
    values = {n: v["value"] for n, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == "1":
        layers = sum(values[f"{layer}.self_s"] for layer in
                     ("encoder", "sim", "theory", "cli"))
        layers += values["core.build_design_matrix.self_s"]
        assert layers == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bounds_check", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


@pytest.mark.parametrize("threads", ["2", str(os.cpu_count() + 1)])
def test_refuses_more_than_one_search_thread(threads):
    env = dict(os.environ, SPARCOMP_THREADS=threads)
    proc = _bench("--workload", "bounds_check", "--seconds", "0", "--trace", "0",
                  "--scale", "tiny", env=env)
    assert proc.returncode == 2 and proc.stdout.strip() == ""
