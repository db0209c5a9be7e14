"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --workloads fig3_fast spice_grid --seeds 1 2 3 4 5

For each workload and end-to-end metric it prints the median and the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound is flagged.
Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="end-to-end metric spread over seeds")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and not result["failed"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in manifest["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {metric['name']:12s} median {median:10.4f} "
                  f"spread {spread:6.3f} bound {metric['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
