"""Benchmark of the sparcomp command line, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload trend_sizes --seed 21 --seconds 30 --trace 0

One process runs one workload: a closed loop with a single caller that
runs the workload's unit (its CLI call or calls, see workloads.py)
through ``sparcomp.cli.main`` for about ``--seconds`` seconds after a
warm-up, then checks every unit's operations for correctness. Unit r
passes ``--seed`` + r to the CLI (the defaults are the acceptance seeds).
Units run in rounds, one unit pinned to each core per round; ``wall_s``
is the median over rounds of a round's mean unit time.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` untraced and traced units alternate, and the result carries
the per-layer metrics of the traced units (spans are written to
``.perfbench_out/``). The first line of standard output gives the machine
block; the line before the result gives how many operations were checked
against the stored reference and how many against the oracle. The last
line of standard output is the result object.

Exit codes: 0 with a result line; 2 without one, when the sources are
missing, SPARCOMP_THREADS asks for more than one search thread, or the
BLAS threads exceed the cores.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

import checks
import metrics
import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = {"full": 5, "tiny": 1}
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import sparcomp.cli; "
         "print('ready', flush=True)")


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = size
    return sizes


def _openblas() -> tuple:
    """(configuration string, threads in effect) of numpy's OpenBLAS, read
    through its own API; (None, None) when it cannot be found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return config().decode(), int(threads())
    return None, None


def machine_block() -> dict:
    import numpy
    import scipy
    blas, blas_threads = _openblas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        # OpenBLAS starts one thread per core unless told otherwise
        "blas_threads": nproc if blas_threads is None else blas_threads,
        "SPARCOMP_THREADS": os.environ.get("SPARCOMP_THREADS"),
    }


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------

def run_unit(workload: wl.Workload, seed: int, sizes: dict, workdir: Path,
             tracer: Tracer = None):
    """Run one unit at CLI seed `seed`; returns (seconds in CLI calls, Outcome)."""
    from sparcomp.cli import main
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calls = []
    wall = 0.0
    for argv in workload.calls(seed, sizes, workdir):
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stderr(err):
                if tracer is None:
                    code = main(argv)
                else:
                    code = tracer.call("cli.main", main, (argv,))
        except Exception:  # a crashing call is a failed operation, not a crashed benchmark
            code = None
            err.write(traceback.format_exc())
        wall += perf_counter() - t0
        calls.append(wl.CallResult(argv, code, err.getvalue()))
    try:
        outcome = workload.collect(calls, workdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"unreadable output: {exc!r}", file=sys.stderr)
        outcome = wl.Outcome({}, {})
    for call in calls:
        if call.code not in (0, 3):
            print(f"call {call.argv[0]} exited {call.code}: {call.stderr.strip()}",
                  file=sys.stderr)
    return wall, outcome


def probe_setup(count: int) -> list:
    """Seconds from starting a fresh interpreter until sparcomp.cli is imported."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("setup probe could not import sparcomp.cli")
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="CLI seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=wl.SCALES, default="full",
                        help="unit size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparcomp" / "cli.py").is_file():
        print(f"error: no sparcomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 64:
        print(f"error: seed {seed} outside [0, 2^64)", file=sys.stderr)
        return 2
    machine = machine_block()
    if machine["SPARCOMP_THREADS"] not in (None, "1"):
        # each unit runs pinned to one core, and search threads would
        # inherit that mask: the benchmark measures one search thread
        print(f"error: SPARCOMP_THREADS={machine['SPARCOMP_THREADS']}; the "
              "benchmark runs one search thread", file=sys.stderr)
        return 2
    if machine["blas_threads"] > machine["nproc"]:
        print(f"error: {machine['blas_threads']} BLAS threads oversubscribe "
              f"{machine['nproc']} cores", file=sys.stderr)
        return 2
    sizes = workload.sizes[args.scale]
    header = {"machine": machine, "workload": workload.name, "seed": seed,
              "sizes": sizes, "trace": args.trace}
    print(json.dumps(header), flush=True)

    setup = [] if args.trace else probe_setup(SETUP_PROBES[args.scale])
    import sparcomp.cli  # noqa: F401  (the measured process pays its import once)

    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # (CLI seed, seconds, Outcome) per unit
    # Each round runs one unit pinned to each core the process may use, so
    # a run does not depend on which core the scheduler picked for it.
    cpus = sorted(os.sched_getaffinity(0))
    try:
        run_unit(workload, seed, workload.sizes["warmup"], workdir)
        start = perf_counter()
        while True:
            round_start = perf_counter()
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                unit_seed = wl.rep_seed(seed, len(plain))
                plain.append((unit_seed, *run_unit(workload, unit_seed, sizes, workdir)))
                if tracer is not None:
                    # the traced unit repeats the inputs of the untraced one
                    tracer.run_id = f"{workload.name}-s{unit_seed}-u{len(traced)}"
                    with tracer.installed():
                        traced.append((unit_seed, *run_unit(workload, unit_seed, sizes,
                                                            workdir, tracer)))
            now = perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    checked = {"reference": 0, "oracle": 0}  # operations attempted, by check
    identical = []  # identical artifacts of each unit that has a reference
    expectations = {}
    for unit_seed, _, outcome in plain + traced:
        if unit_seed not in expectations:
            expectations[unit_seed] = checks.expectation(workload.name, unit_seed, sizes)
        expected, reference = expectations[unit_seed]
        a, f = checks.count_failed(expected, outcome.rows)
        attempted += a
        failed += f
        checked["oracle" if reference is None else "reference"] += a
        if reference is not None:
            identical.append(sum(reference["artifacts"].get(name) == digest
                                 for name, digest in outcome.artifacts.items()))

    wall_s = round_median(plain, len(cpus))
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "blocks_per_s": workload.blocks(sizes) / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        table = metrics.END_TO_END
    else:
        values = metrics.layer_metrics(tracer.spans, len(traced))
        traced_wall = round_median(traced, len(cpus))
        values["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
        values["cli.artifacts"] = statistics.mean(len(o.artifacts) for _, _, o in plain + traced)
        values["cli.artifact_identical"] = statistics.mean(identical) if identical else 0
        write_spans(header, tracer.spans, workload.name, seed)
        table = metrics.PER_LAYER

    print(json.dumps({"checked": checked}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in table.items()},
    }
    print(json.dumps(result))
    return 0


def round_median(units: list, per_round: int) -> float:
    """Median over rounds of the mean unit seconds within a round."""
    walls = [w for _, w, _ in units]
    return statistics.median(statistics.fmean(walls[i:i + per_round])
                             for i in range(0, len(walls), per_round))


def write_spans(header: dict, spans: list, workload: str, seed: int) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    with open(SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, run, info in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "run": run, "info": info}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
