"""Kernel performance-trajectory runner.

Times the computational kernels the flow is built on — AIG simulation,
cut enumeration, SAT, a SPICE transient and a charlib SPICE arc (the
scalar stamping oracle vs the engine's vector stamper), a whole NLDM
grid (the trajectory batch vs the serial per-point oracle loop), a full
SPICE cell characterization, and a device Monte-Carlo sweep — and
writes one machine-readable ``BENCH_kernels.json``.  The reference
sides come from the test oracles in ``tests/oracles/spice_ref.py``.  CI's bench-smoke job runs
this once per change and archives the JSON, so the numbers form a
trajectory across commits rather than a one-off measurement.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/kernels.py [-o BENCH_kernels.json]
        [--repeats N] [--assert-batch-default] [--assert-speedup MIN]

Each section reports best-of-``repeats`` wall time; the SPICE and
charlib sections additionally report their reference/engine pair and
the derived speedup.  Observability counters recorded during the run
(``spice.kernel.*``, ``spice.batch.*``, ``charlib.spice.kernel.*``,
Newton statistics) are embedded under ``"counters"`` so the artifact
also proves *which* path executed — ``--assert-batch-default`` fails
the run if the trajectory batch never ran (``spice.batch.runs`` is 0),
and ``--assert-speedup MIN`` fails it if the whole-grid batch beats the
serial per-point loop by less than ``MIN``x.

See ``docs/PERFORMANCE.md`` for the schema and how to add a section.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

# The reference sides of the SPICE sections are the test oracles.
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
# Sections.  Each returns a JSON-ready dict.


def bench_aig_simulation(repeats: int) -> dict:
    from repro.benchgen import build_circuit

    aig = build_circuit("adder", "small")
    rng = random.Random(0)
    words = [rng.getrandbits(1024) for _ in aig.pis]
    return {
        "seconds": best_of(lambda: aig.simulate(words, width=1024), repeats),
        "detail": f"adder/small ({aig.num_ands} ands), 1024-bit words",
    }


def bench_cut_enumeration(repeats: int) -> dict:
    from repro.benchgen import build_circuit
    from repro.synth import enumerate_cuts
    from repro.synth.cuts import enumerate_structure

    # sin/small (1,420 ANDs): on adder/small the cold enumeration
    # takes ~5 ms, under the gate's noise floor.
    aig = build_circuit("sin", "small")

    def cold():
        # Each repeat enumerates: a repeat served from the cut-set
        # memo would time a dictionary lookup.
        enumerate_structure.cache_clear()
        enumerate_cuts(aig, k=4, max_cuts=8)

    return {
        "seconds": best_of(cold, repeats),
        "detail": "sin/small, k=4, max_cuts=8, cut-set memo cleared per repeat",
    }


def bench_sat(repeats: int) -> dict:
    from repro.sat import Solver

    def php():
        pigeons, holes = 6, 5
        solver = Solver()

        def var(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve() is False

    return {
        "seconds": best_of(php, repeats),
        "detail": "pigeonhole PHP(6,5), UNSAT",
    }


def _inverter_transient(simulator):
    from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
    from repro.pdk import cryo5_technology
    from repro.spice import Circuit, DC, ramp

    tech = cryo5_technology()
    circuit = Circuit("inv")
    circuit.add_vsource("vdd", "vdd", "0", DC(tech.vdd))
    circuit.add_vsource("vin", "a", "0", ramp(2e-11, 1e-11, 0.0, tech.vdd))
    circuit.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
    circuit.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
    circuit.add_capacitor("cl", "y", "0", 2e-15)
    return simulator(circuit, 10.0).transient(2e-10, 1e-12)


def bench_spice_transient(repeats: int) -> dict:
    from repro.spice import Simulator
    from tests.oracles.spice_ref import scalar_simulator

    scalar = best_of(lambda: _inverter_transient(scalar_simulator), repeats)
    vector = best_of(lambda: _inverter_transient(Simulator), repeats)
    return {
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
        "detail": "CMOS inverter, 10 K, 200 ps @ 1 ps trapezoidal",
    }


def _charlib_arc(characterizer):
    from repro.pdk import cryo5_technology
    from repro.pdk.catalog import make_aoi

    char = characterizer(cryo5_technology(), 77.0)
    cell = make_aoi("221", 2)
    return char.measure_arc(cell, "A1", "Y", True, 2e-11, 2e-15)


def bench_charlib_arc(repeats: int) -> dict:
    from functools import partial

    from repro.charlib.spice_char import SpiceCharacterizer
    from tests.oracles.spice_ref import SerialCharacterizer

    scalar = best_of(
        lambda: _charlib_arc(partial(SerialCharacterizer, scalar=True)), repeats
    )
    vector = best_of(lambda: _charlib_arc(SpiceCharacterizer), repeats)
    return {
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
        "detail": "AOI221x2 A1->Y rising arc, SPICE backend, 77 K",
    }


def _charlib_full_grid(characterizer):
    from repro.pdk import cryo5_technology
    from repro.pdk.catalog import make_inv

    tech = cryo5_technology()
    char = characterizer(tech, 77.0)
    return char.characterize_cell(make_inv(1), tech.slew_grid, tech.load_grid)


def bench_charlib_full_arc(repeats: int) -> dict:
    """Whole 7x7 NLDM grid: one trajectory batch vs the serial loop.

    This is the workload the trajectory batch exists for — all 98 arc
    transients of the grid advance in lockstep through one batched
    Newton solve per time step instead of 98 serial transients (the
    serial side is the oracle loop).  Both paths are single-shot (the
    grid takes seconds; best-of-``repeats`` would triple the
    bench-smoke budget for noise filtering the gate's tolerance
    already absorbs).
    """
    from repro.charlib.spice_char import SpiceCharacterizer
    from tests.oracles.spice_ref import SerialCharacterizer

    batch = best_of(lambda: _charlib_full_grid(SpiceCharacterizer), 1)
    vector = best_of(lambda: _charlib_full_grid(SerialCharacterizer), 1)
    return {
        "batch_seconds": batch,
        "vector_seconds": vector,
        "speedup": vector / batch,
        "detail": "INVx1 full 7x7 slew/load grid, SPICE backend, 77 K, single-shot",
    }


def bench_charlib_cell_flow(repeats: int) -> dict:
    """Full characterization entry point on the default (batch) path."""
    from repro.charlib import characterize_library
    from repro.pdk import cryo5_technology
    from repro.pdk.catalog import make_nand

    def run():
        library = characterize_library(
            cryo5_technology(),
            77.0,
            cells=[make_nand(2, 1)],
            backend="spice",
            name="bench_nand2_77k",
            cache=False,
        )
        assert not library.degraded_arcs()

    return {
        "seconds": best_of(run, 1),
        "detail": "characterize_library, NAND2x1, SPICE backend, 77 K, single-shot",
    }


def bench_monte_carlo(repeats: int) -> dict:
    from repro.device import default_nfet_5nm
    from repro.device.montecarlo import mc_device_metric

    def run():
        result = mc_device_metric(
            lambda dev, t: dev.off_current(0.7, t),
            default_nfet_5nm(),
            temperature=10.0,
            n_samples=64,
            seed=0,
        )
        assert result.std >= 0.0

    return {
        "seconds": best_of(run, repeats),
        "detail": "64-sample I_off spread at 10 K",
    }


SECTIONS = {
    "aig_simulation": bench_aig_simulation,
    "cut_enumeration": bench_cut_enumeration,
    "sat": bench_sat,
    "spice_transient": bench_spice_transient,
    "charlib_arc": bench_charlib_arc,
    "charlib_full_arc": bench_charlib_full_arc,
    "charlib_cell_flow": bench_charlib_cell_flow,
    "monte_carlo": bench_monte_carlo,
}


def run_benchmarks(repeats: int) -> dict:
    from repro import obs

    results = {}
    with obs.Tracer() as tracer:
        for name, fn in SECTIONS.items():
            print(f"[bench] {name} ...", flush=True)
            results[name] = fn(repeats)
    report = {
        "schema": "repro-bench-kernels/1",
        "repeats": repeats,
        "results": results,
        "counters": {
            k: v for k, v in sorted(tracer.counters.items())
            if k.startswith(("spice.", "charlib."))
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_kernels.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--assert-batch-default",
        action="store_true",
        help="fail unless the trajectory batch ran (spice.batch.runs > 0)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="MIN",
        help="fail unless the whole-grid charlib_full_arc section shows at "
             "least MINx batch-over-serial speedup",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, entry in report["results"].items():
        if "speedup" in entry:
            pair = [
                f"{key.removesuffix('_seconds')} {entry[key] * 1e3:.1f} ms"
                for key in ("scalar_seconds", "vector_seconds", "batch_seconds")
                if key in entry
            ]
            print(f"[bench] {name}: {', '.join(pair)} ({entry['speedup']:.2f}x)")
        else:
            print(f"[bench] {name}: {entry['seconds'] * 1e3:.2f} ms")
    print(f"[bench] wrote {args.output}")

    if args.assert_batch_default:
        if report["counters"].get("spice.batch.runs", 0) <= 0:
            print(
                "[bench] FAIL: trajectory batch never executed "
                "(spice.batch.runs counter is 0)",
                file=sys.stderr,
            )
            return 1
        print("[bench] trajectory batch confirmed by obs counters")

    if args.assert_speedup is not None:
        speedup = report["results"]["charlib_full_arc"]["speedup"]
        if speedup < args.assert_speedup:
            print(
                f"[bench] FAIL: charlib_full_arc batch speedup {speedup:.2f}x "
                f"< required {args.assert_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"[bench] charlib_full_arc speedup {speedup:.2f}x >= "
            f"{args.assert_speedup:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
