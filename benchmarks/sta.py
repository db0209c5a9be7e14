"""STA performance-trajectory runner.

Times static timing on the largest benchgen circuits at the default
preset — one full-analysis section (the legacy per-gate oracle,
``tests/oracles/sta_ref.py``, vs. the levelized array graph) and one
incremental section (repeated sizing-style cost queries: legacy full
re-analysis vs.
``set_cell``/``update``/``max_delay`` on a compiled
:class:`~repro.sta.graph.TimingGraph`) — and writes one
machine-readable ``BENCH_sta.json``.  CI's bench-smoke job runs this
once per change and archives the JSON next to ``BENCH_kernels.json``,
so the numbers form a trajectory across commits.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/sta.py [-o BENCH_sta.json]
        [--repeats N] [--assert-speedup X] [--assert-graph-default]

Each scalar/vector pair is best-of-``repeats`` wall time (``scalar``
is the legacy oracle, ``vector`` the graph engine, matching the
kernels-report convention so ``benchmarks/regression.py`` tracks both
without special cases).  Observability counters recorded during the
run (``sta.*``) are embedded under ``"counters"`` so the artifact also
proves *which* timing path executed — ``--assert-speedup X`` fails the
run if the incremental-query section comes in under ``X``×, and
``--assert-graph-default`` fails it if no timing graph was built
(``sta.graph_builds`` is 0).

See ``docs/PERFORMANCE.md`` for the schema and how to add a section.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

# The reference side of each section is the legacy STA test oracle.
REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))


def best_of(fn, repeats: int) -> float:
    """Best wall-time of ``repeats`` runs [s] (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Shared fixtures.  The mapped circuits are expensive to build (seconds
# each), so they are constructed once and shared across sections.

#: Largest default-preset benchgen circuits by mapped gate count.
CIRCUITS = ("sin", "hyp")

#: Sizing-style cost queries per measurement.
QUERIES = 40

_fixtures: dict | None = None


def fixtures() -> dict:
    global _fixtures
    if _fixtures is None:
        from repro.benchgen import build_circuit
        from repro.charlib import default_library
        from repro.mapping import map_to_gates

        library = default_library(10.0)
        netlists = {}
        for name in CIRCUITS:
            aig = build_circuit(name, "default")
            netlists[name] = map_to_gates(aig, library)
        _fixtures = {"library": library, "netlists": netlists}
    return _fixtures


def _swap_schedule(netlist, library, count: int, seed: int = 7):
    """Deterministic within-family cell swaps (same footprint and pin
    order, so both engines take their cheap path — exactly the edits
    the gate sizer issues)."""
    families: dict[tuple, list[str]] = {}
    for name, cell in library.cells.items():
        if cell.is_sequential:
            continue
        families.setdefault(
            (cell.footprint, tuple(cell.input_pins)), []
        ).append(name)
    rng = random.Random(seed)
    schedule = []
    attempts = 0
    while len(schedule) < count and attempts < 100 * count:
        attempts += 1
        gi = rng.randrange(netlist.num_gates)
        cell = library[netlist.gates[gi].cell]
        alternatives = [
            c
            for c in families[(cell.footprint, tuple(cell.input_pins))]
            if c != cell.name
        ]
        if alternatives:
            schedule.append((gi, rng.choice(alternatives)))
    return schedule


# ---------------------------------------------------------------------------
# Sections.  Each returns a JSON-ready dict.


def bench_full(circuit: str, repeats: int) -> dict:
    """Full-netlist analysis: legacy loop vs. compiled graph."""
    from repro.sta.graph import TimingGraph
    from tests.oracles.sta_ref import LegacyTimingAnalyzer

    fix = fixtures()
    netlist, library = fix["netlists"][circuit], fix["library"]

    # The graph side finishes in ~10 ms, where allocator/GC spikes are
    # visible; extra repeats keep best-of stable.
    repeats = max(repeats, 8)
    legacy = LegacyTimingAnalyzer(netlist, library)
    scalar = best_of(lambda: legacy.analyze(), repeats)

    t0 = time.perf_counter()
    graph = TimingGraph(netlist, library)
    build = time.perf_counter() - t0
    vector = best_of(lambda: graph.analyze(), repeats)
    return {
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
        "build_seconds": build,
        "detail": f"{circuit}/default ({netlist.num_gates} gates), "
        "full analysis, legacy vs graph (graph compile reported "
        "separately as build_seconds)",
    }


def bench_incremental(circuit: str, repeats: int) -> dict:
    """Repeated sizing-style cost queries: one cell swap, then the new
    worst delay.  Legacy pays a full re-analysis per query; the graph
    engine re-times only the affected cone."""
    from repro.sta.graph import TimingGraph
    from tests.oracles.sta_ref import LegacyTimingAnalyzer

    fix = fixtures()
    netlist, library = fix["netlists"][circuit], fix["library"]
    schedule = _swap_schedule(netlist, library, QUERIES)

    # Legacy: mutate the netlist in place (the sizer's edit pattern)
    # and pay a full analysis per query.  The analyzer is reused so its
    # per-analyzer caches are warm.
    legacy = LegacyTimingAnalyzer(netlist, library)
    originals = list(netlist.gates)

    def legacy_queries():
        for gi, cell in schedule:
            netlist.gates[gi] = replace(netlist.gates[gi], cell=cell)
            legacy.analyze().max_delay
        netlist.gates[:] = originals

    scalar = best_of(legacy_queries, repeats)

    graph = TimingGraph(netlist, library)
    graph.analyze()
    restore = [(gi, netlist.gates[gi].cell) for gi, _ in schedule]

    def graph_queries():
        for gi, cell in schedule:
            graph.set_cell(gi, cell)
            graph.update()
            graph.max_delay()
        for gi, cell in restore:
            graph.set_cell(gi, cell)
        graph.update()

    vector = best_of(graph_queries, repeats)
    return {
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
        "detail": f"{circuit}/default ({netlist.num_gates} gates), "
        f"{QUERIES} within-family swap + worst-delay queries, legacy "
        "full re-analysis vs incremental retime",
    }


SECTIONS = {
    "sta_full": lambda repeats: bench_full(CIRCUITS[0], repeats),
    "sta_incremental": lambda repeats: bench_incremental(CIRCUITS[0], repeats),
    "sta_incremental_hyp": lambda repeats: bench_incremental(
        CIRCUITS[1], repeats
    ),
}


def run_benchmarks(repeats: int) -> dict:
    from repro import obs

    results = {}
    with obs.Tracer() as tracer:
        for name, fn in SECTIONS.items():
            print(f"[bench] {name} ...", flush=True)
            results[name] = fn(repeats)
    report = {
        "schema": "repro-bench-sta/1",
        "repeats": repeats,
        "results": results,
        "counters": {
            k: v for k, v in sorted(tracer.counters.items())
            if k.startswith("sta.")
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_sta.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        metavar="X",
        help="fail unless every incremental section reaches X x",
    )
    parser.add_argument(
        "--assert-graph-default",
        action="store_true",
        help="fail unless a timing graph was built (sta.graph_builds > 0)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, entry in report["results"].items():
        print(
            f"[bench] {name}: legacy {entry['scalar_seconds'] * 1e3:.1f} ms, "
            f"graph {entry['vector_seconds'] * 1e3:.1f} ms "
            f"({entry['speedup']:.2f}x)"
        )
    print(f"[bench] wrote {args.output}")

    status = 0
    if args.assert_graph_default and report["counters"].get("sta.graph_builds", 0) <= 0:
        print(
            "[bench] FAIL: timing graph never built (sta.graph_builds counter is 0)",
            file=sys.stderr,
        )
        status = 1
    if args.assert_speedup is not None:
        for name, entry in report["results"].items():
            if not name.startswith("sta_incremental"):
                continue
            if entry["speedup"] < args.assert_speedup:
                print(
                    f"[bench] FAIL: {name} speedup {entry['speedup']:.2f}x "
                    f"< required {args.assert_speedup:g}x",
                    file=sys.stderr,
                )
                status = 1
    if status == 0 and (args.assert_speedup or args.assert_graph_default):
        print("[bench] assertions passed")
    if report["counters"].get("sta.incremental_hits", 0) <= 0:
        print(
            "[bench] FAIL: incremental retime path never executed "
            "(sta.incremental_hits counter is 0)",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
