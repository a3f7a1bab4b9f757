"""Record the correctness reference the benchmark compares against.

Runs every workload's full-size unit once per seed of
checks.RECORDED_SEEDS and stores, per seed, every operation's row and the
sha256 of every artifact. Record it from a commit whose outputs are known
good; the commit id goes into the files.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checks
import run
import workloads as wl


def to_reference(outcome: wl.Outcome) -> dict:
    return {"rows": {k: list(v) for k, v in sorted(outcome.rows.items())},
            "artifacts": dict(sorted(outcome.artifacts.items()))}


def write_reference(path, doc: dict) -> None:
    """JSON with one line per seed."""
    seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["seeds"].items())
    path.write_text(f'{{"recorded_from": {json.dumps(doc["recorded_from"])},\n'
                    f' "sizes": {json.dumps(doc["sizes"])},\n'
                    f' "seeds": {{\n{seeds}\n }}\n}}\n')


def record(workload: wl.Workload, sizes: dict) -> dict:
    workdir = run.WORK_DIR / f"record-{workload.name}"
    out = {}
    for seed in checks.RECORDED_SEEDS:
        _, outcome = run.run_unit(workload, seed, sizes, workdir)
        expected = checks.ORACLES[workload.name](seed, sizes)
        attempted, failed = checks.count_failed(expected, outcome.rows)
        if failed:
            raise SystemExit(f"{workload.name} seed {seed}: {failed} of "
                             f"{attempted} operations fail the oracle")
        out[str(seed)] = to_reference(outcome)
        print(f"{workload.name} seed {seed}: {attempted} operations", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in wl.WORKLOADS.items():
        sizes = workload.sizes["full"]
        doc = {"recorded_from": commit, "sizes": sizes, "seeds": record(workload, sizes)}
        write_reference(checks.reference_path(name), doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
