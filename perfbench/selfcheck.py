"""Self-check of the flow benchmark.

Run from the repository root::

    python3 perfbench/selfcheck.py --workload fig3_fast [--seed 0]

Checks that

* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports;
* two traced runs with one seed give identical quality of result,
  surrogate errors, operation counts, counters and count metrics;
* a second seed gives different generated inputs.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
    if declared != list(run.END_TO_END):
        problems.append(f"end_to_end {declared} != run.END_TO_END {run.END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if declared != layers.definitions():
        problems.append("per_layer differs from layers.definitions()")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    """One ``--trace 1`` run; returns its result line and record file."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = run.OUT_DIR / f"{workload}-seed{seed}-trace1.jsonl"
    records = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] != "span":
            records[record["type"]] = record["value"]
    return {"result": result, **records}


def deterministic(run_record: dict) -> dict:
    """Everything in a traced run that must repeat exactly."""
    units = {name: unit for name, unit, _ in layers.definitions()}
    metrics = run_record["result"]["metrics"]
    return {
        "qor": run_record["qor"],
        "checks": run_record["checks"],
        "counters": run_record["counters"],
        "metrics": {
            n: m["value"] for n, m in metrics.items() if units[n] in ("count", "ratio")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flow benchmark self-check")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    problems = check_manifest()
    first = traced_run(args.workload, args.seed)
    again = traced_run(args.workload, args.seed)
    other = traced_run(args.workload, args.seed + 1)
    for label, record in (("first", first), ("repeat", again), ("next seed", other)):
        if not record["result"]["correct"] or record["result"]["failed"]:
            problems.append(f"{label} run not correct: {record['checks']}")
    a, b = deterministic(first), deterministic(again)
    for key in a:
        if a[key] != b[key]:
            diff = {k: (a[key].get(k), b[key].get(k))
                    for k in set(a[key]) | set(b[key]) if a[key].get(k) != b[key].get(k)}
            problems.append(f"{key} differs between two runs of seed {args.seed}: {diff}")
    if first["inputs"]["fingerprint"] == other["inputs"]["fingerprint"]:
        problems.append(f"seeds {args.seed} and {args.seed + 1} generate the same inputs")

    print(f"{args.workload}: inputs {first['inputs']['size']}, "
          f"{first['checks']['attempted']} operations per traced run, qor {first['qor']}")
    for problem in problems:
        print(f"FAILED {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
