"""End-to-end flow benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload fig3_fast --seed 0 --seconds 10 --trace 0

Workloads (``WORKLOADS.md`` says why each was chosen):

* ``arith_small`` / ``fig3_fast`` -- ``repro evaluate`` on EPFL
  circuits: ``DesignContext`` + ``run_scenarios`` with all three
  scenarios, the fair clock, 512 vectors and ``jobs=1`` at 10 K; the
  seed seeds the signoff vectors;
* ``spice_grid`` -- ``characterize_library(backend="spice")`` of three
  cells drawn by the seed, on the full 7x7 NLDM grid at 10 K and 300 K.

Each run sets up several times (``setup_s`` is the median), then
repeats the workload until ``--seconds`` of timed work have passed (at
least once; ``wall_s`` is the median pass).  Each pass is checked
outside the clock.  Every set-up and pass starts cold (see
:func:`cold_start`).  ``--trace 1`` instead sets up once (traced) and
runs one untraced and one traced pass; it reports per-layer metrics
read from a ``repro.obs.Tracer`` plus the runner's own spans.  The
last line of standard output is the JSON result; spans and counters go
to ``.perfbench/<workload>-seed<seed>-trace<trace>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

#: Switches that would pick a non-default code path or serve results
#: from outside the process; the benchmark measures the defaults cold.
REFUSED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_REMOTE",
    "REPRO_FAULTS",
    "REPRO_KERNEL",
    "REPRO_STA",
    "REPRO_GUARDS",
)

SETUP_REPEATS = 3
VECTORS = 512
#: Seeded random patterns run before any SAT call of the output check.
CEC_PATTERNS = 1024
#: Combined AND nodes above which the output check skips SAT (a miter
#: that size takes seconds in the solver).  Circuits with at most
#: EXHAUSTIVE_PIS inputs are then proven by exhaustive simulation.
CEC_SAT_BUDGET = 400
EXHAUSTIVE_PIS = 16

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Output checks (outside the clock)
# ----------------------------------------------------------------------
def exhaustive_words(n: int) -> list[int]:
    """PI words enumerating all ``2**n`` input patterns."""
    width = 1 << n
    words = []
    for i in range(n):
        period = 2 << i
        block = ((1 << (1 << i)) - 1) << (1 << i)
        repeat = ((1 << width) - 1) // ((1 << period) - 1)
        words.append(block * repeat)
    return words


def prove_equivalent(a, b, seed: int) -> tuple[bool, bool]:
    """``(equivalent, proven)`` for two AIGs with matching interfaces."""
    from repro.sat.cec import check_equivalence

    result = check_equivalence(
        a, b, simulation_patterns=CEC_PATTERNS, seed=seed, sat_node_limit=CEC_SAT_BUDGET
    )
    if not result.equivalent or result.proven or a.num_pis > EXHAUSTIVE_PIS:
        return result.equivalent, result.proven
    words = exhaustive_words(a.num_pis)
    width = 1 << a.num_pis
    return a.simulate(words, width) == b.simulate(words, width), True


def check_evaluate(inputs, library, results) -> tuple[int, list[str], int]:
    """Every (circuit, scenario): CEC against the input AIG, healthy
    library arcs, no guard violations, finite positive power."""
    attempted, failures, unproven = 0, [], 0
    for aig in inputs.circuits:
        for scenario, result in results[aig.name].items():
            attempted += 1
            label = f"{aig.name}/{scenario}"
            problems = []
            if result.degraded:
                problems.append(f"degraded arcs {list(result.degraded)[:3]}")
            if result.guard_violations:
                problems.append(f"guard violations {list(result.guard_violations)[:3]}")
            power = result.power.total if result.power is not None else math.nan
            if not (math.isfinite(power) and power > 0):
                problems.append(f"power {power}")
            equivalent, proven = prove_equivalent(
                aig, result.netlist.to_aig(library), inputs.seed
            )
            unproven += not proven
            if not equivalent:
                problems.append("mapped netlist differs from its input AIG")
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
    return attempted, failures, unproven


def _tables(arc, fields):
    return [v for f in fields for row in getattr(arc, f).values for v in row]


DELAY_TABLES = ("cell_rise", "cell_fall")
SLEW_TABLES = ("rise_transition", "fall_transition")


def check_spice(inputs, libraries) -> tuple[int, list[str]]:
    """Every characterized arc: not degraded, finite delays, finite
    positive slews.  A delay may be slightly negative: with a slow
    input ramp and a light load the output crosses 50 % first (seen on
    NAND2x3 at 300 K, 128 ps slew, 0.4 fF)."""
    attempted, failures = 0, []
    for corner, library in libraries.items():
        for template in inputs.cells:
            cell = library[template.name]
            for arc in cell.arcs:
                attempted += 1
                key = f"{arc.related_pin}->{arc.output_pin}"
                label = f"{cell.name}:{key}@{corner:g}K"
                delays, slews = _tables(arc, DELAY_TABLES), _tables(arc, SLEW_TABLES)
                if key in cell.degraded_arcs:
                    failures.append(f"{label}: degraded")
                elif not all(math.isfinite(v) for v in delays):
                    failures.append(f"{label}: non-finite delay")
                elif not all(math.isfinite(v) and v > 0 for v in slews):
                    failures.append(f"{label}: non-finite or non-positive slew")
    return attempted, failures


# ----------------------------------------------------------------------
# Workload phases
# ----------------------------------------------------------------------
class Runner:
    def __init__(self, inputs, log):
        from repro.pdk.technology import cryo5_technology

        self.inputs = inputs
        self.log = log
        self.tech = cryo5_technology()
        self.evaluate = bool(inputs.circuits)

    def setup(self) -> dict:
        """Cold analytic 200-cell library (and, for flows, the
        match-table view) at every corner the workload uses."""
        from repro.charlib.engine import characterize_library
        from repro.core.artifacts import ArtifactCache
        from repro.mapping.library import TechLibraryView

        libraries = {}
        cache = ArtifactCache()
        with self.log.span("bench.setup"):
            for corner in self.inputs.corners:
                with self.log.span("bench.setup.charlib", backend="analytic", corner=corner):
                    library = characterize_library(self.tech, corner, cache=False)
                if self.evaluate:
                    with self.log.span("bench.setup.view", corner=corner):
                        TechLibraryView.for_library(library, cache=cache)
                libraries[corner] = library
        return libraries

    def run_pass(self, libraries) -> tuple[dict, float, object]:
        """One timed pass; returns (outputs, wall seconds, pass span)."""
        if self.evaluate:
            return self._evaluate_pass(libraries[self.inputs.corners[0]])
        return self._spice_pass()

    def _evaluate_pass(self, library):
        from repro.core import DesignContext, run_scenarios
        from repro.core.artifacts import ArtifactCache

        context = DesignContext.from_library(
            library, seed=self.inputs.seed, cache=ArtifactCache()
        )
        context.view  # already timed in set-up; keep it off this pass's clock
        results = {}
        with self.log.span("bench.pass") as root:
            for aig in self.inputs.circuits:
                with self.log.span("bench.evaluate", circuit=aig.name):
                    results[aig.name] = run_scenarios(
                        aig, context=context, vectors=VECTORS, jobs=1
                    )
        return results, self.log.duration(root), root

    def _spice_pass(self):
        from repro.charlib.engine import characterize_library

        libraries = {}
        with self.log.span("bench.pass") as root:
            for corner in self.inputs.corners:
                with self.log.span("bench.charlib.spice", corner=corner):
                    libraries[corner] = characterize_library(
                        self.tech,
                        corner,
                        cells=list(self.inputs.cells),
                        backend="spice",
                        slews=self.tech.slew_grid,
                        loads=self.tech.load_grid,
                        cache=False,
                    )
        return libraries, self.log.duration(root), root

    def check(self, outputs, libraries) -> tuple[int, list[str], int]:
        if self.evaluate:
            library = libraries[self.inputs.corners[0]]
            return check_evaluate(self.inputs, library, outputs)
        attempted, failures = check_spice(self.inputs, outputs)
        return attempted, failures, 0

    def qor(self, outputs) -> dict[str, float]:
        """Deterministic quality-of-result figures of one pass."""
        if self.evaluate:
            best = [outputs[aig.name]["p_a_d"] for aig in self.inputs.circuits]
            base = [outputs[aig.name]["baseline"] for aig in self.inputs.circuits]
            savings = [100.0 * (1 - p.total_power / b.total_power) for p, b in zip(best, base)]
            return {
                "power_saving_pct": statistics.fmean(savings),
                "power_uw": 1e6 * sum(r.total_power for r in best),
                "area_um2": sum(r.area for r in best),
                "delay_ps": 1e12 * sum(r.critical_delay for r in best),
            }
        return self._surrogate_error(outputs)

    def _surrogate_error(self, spice_libraries) -> dict[str, float]:
        """Median |ln(analytic / SPICE)| over every grid point of every
        arc, for delays and for output slews.  The few points with a
        negative SPICE delay have no log ratio and are left out."""
        from repro.charlib.engine import characterize_library

        delay, slew = [], []
        for corner, spice in spice_libraries.items():
            with self.log.span("bench.surrogate.charlib", backend="analytic", corner=corner):
                analytic = characterize_library(
                    self.tech,
                    corner,
                    cells=list(self.inputs.cells),
                    backend="analytic",
                    slews=self.tech.slew_grid,
                    loads=self.tech.load_grid,
                    cache=False,
                )
            for template in self.inputs.cells:
                for ref in spice[template.name].arcs:
                    arc = analytic[template.name].arc(ref.related_pin, ref.output_pin)
                    for fields, errors in ((DELAY_TABLES, delay), (SLEW_TABLES, slew)):
                        errors += [
                            abs(math.log(a / s))
                            for a, s in zip(_tables(arc, fields), _tables(ref, fields))
                            if a > 0 and s > 0
                        ]
        return {
            "surrogate_delay_err": statistics.median(delay),
            "surrogate_slew_err": statistics.median(slew),
        }

    def probe_cuts(self, outputs) -> tuple[float, int]:
        """Cut enumeration (k=4, 8 cuts) on each input AIG and on its
        optimized p_a_d network, timed from outside: it has no span of
        its own inside the passes that call it."""
        from repro.synth.cuts import enumerate_cuts

        seconds, cuts = 0.0, 0
        for aig in self.inputs.circuits:
            optimized = outputs[aig.name]["p_a_d"].optimized_aig
            for label, network in (("input", aig), ("optimized", optimized)):
                with self.log.span("bench.probe.cuts", circuit=aig.name, network=label) as sp:
                    found = enumerate_cuts(network, k=4, max_cuts=8)
                seconds += self.log.duration(sp)
                cuts += sum(len(v) for v in found.values())
        return seconds, cuts


def cold_start() -> None:
    """Empty every ``functools`` cache of the program's modules.

    The program memoizes pure functions process-wide (truth-table and
    NPN tables, the cell catalog).  Clearing them before each set-up
    and each pass makes every repeat start as cold as a new
    ``repro`` process does, so repeats of one run measure the same
    thing.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ran_paths(counters: dict) -> list[str]:
    """Default engine paths that actually ran, read from counters."""
    prefixes = ("spice.kernel.", "charlib.spice.kernel.", "sta.graph_builds")
    return sorted(k for k in counters if k.startswith(prefixes))


# ----------------------------------------------------------------------
class Tally:
    """Check results of every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.unproven = 0
        self.qors: list[dict] = []
        self.check_s = 0.0
        #: Peak resident set [MB] at the end of the first pass, before
        #: any output check has run.
        self.peak_rss_mb = 0.0


def measured_pass(runner, libraries, tally: Tally, tracer=None):
    """One cold pass, then its checks; returns (wall, pass span, outputs).

    Callers drop the outputs before the next pass, so that live objects
    from earlier passes do not slow the garbage collector in later ones.
    """
    cold_start()
    gc.collect()
    if tracer is None:
        outputs, wall, root = runner.run_pass(libraries)
    else:
        with tracer:
            outputs, wall, root = runner.run_pass(libraries)
    tally.peak_rss_mb = tally.peak_rss_mb or peak_rss_mb()
    start = time.perf_counter()
    attempted, failures, unproven = runner.check(outputs, libraries)
    tally.attempted += attempted
    tally.failures += failures
    tally.unproven += unproven
    tally.qors.append(runner.qor(outputs))
    tally.check_s += time.perf_counter() - start
    return wall, root, outputs


def run_untraced(runner, seconds: float, tally: Tally) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        libraries = None
        cold_start()
        gc.collect()
        start = time.perf_counter()
        libraries = runner.setup()
        setup_times.append(time.perf_counter() - start)
    walls = []
    while not walls or sum(walls) < seconds:
        walls.append(measured_pass(runner, libraries, tally)[0])
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": tally.peak_rss_mb,
        },
        "detail": {"setup_s": setup_times, "wall_s": walls},
    }


def run_traced(runner, tally: Tally) -> dict:
    import layers
    from repro import obs

    cold_start()
    setup_tracer = obs.Tracer()
    with setup_tracer:
        libraries = runner.setup()
    plain_wall = measured_pass(runner, libraries, tally)[0]
    tracer = obs.Tracer()
    epoch = time.perf_counter() - tracer.elapsed()
    traced_wall, root, outputs = measured_pass(runner, libraries, tally, tracer)
    runner.log.graft(tracer, epoch)
    metrics = layers.compute(runner.log, root, tracer.counters, setup_tracer.counters)
    metrics["obs.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    metrics["cuts.enumerate_s"], metrics["cuts.probe_cuts"] = (
        runner.probe_cuts(outputs) if runner.evaluate else (0.0, 0)
    )
    return {
        "metrics": metrics,
        "counters": tracer.counters,
        "detail": {"wall_s": [plain_wall, traced_wall]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"run.py: refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    os.environ["REPRO_LEDGER"] = "off"

    import layers
    from inputs import WORKLOADS, make_inputs
    from spans import SpanLog

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(inputs, SpanLog(run_id))
    tally = Tally()
    run = run_traced(runner, tally) if args.trace else run_untraced(runner, args.seconds, tally)
    # Passes of one run compute the same thing: their results must agree.
    qor = tally.qors[0]
    consistent = all(q == qor for q in tally.qors[1:])
    failed = len(tally.failures)

    metrics = run["metrics"]
    if args.trace:
        metrics["check.cec_unproven"] = float(tally.unproven)
        for name, _, _ in layers.QOR:
            metrics[name] = float(qor.get(name, 0.0))
        names = [name for name, _, _ in layers.definitions()]
        units = {name: unit for name, unit, _ in layers.definitions()}
    else:
        names = [name for name, _ in END_TO_END]
        units = dict(END_TO_END)
    values_ok = all(math.isfinite(metrics[name]) for name in names)

    print(f"workload {args.workload} seed {args.seed}: {inputs.size()} "
          f"{[c.name for c in inputs.cells] or [a.name for a in inputs.circuits]}")
    for key, values in run["detail"].items():
        print(f"  {key} per repeat: {[round(v, 3) for v in values]}")
    for name, value in qor.items():
        print(f"  {name} = {value:.6g}")
    print(f"  checks: {tally.attempted} operations, {failed} failed, "
          f"{tally.unproven} equivalence checks unproven, {tally.check_s:.2f} s")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    if not consistent:
        print(f"  FAILED quality of result differs between passes: {tally.qors}")
    if args.trace:
        print(f"  paths that ran: {ran_paths(run['counters'])}")
        width = max(len(n) for n in names)
        for name in names:
            print(f"  {name:<{width}} {metrics[name]:14.6g} {units[name]}")

    runner.log.write(
        OUT_DIR / f"{run_id}.jsonl",
        inputs={"fingerprint": inputs.fingerprint(), "size": inputs.size()},
        qor=qor,
        checks={"attempted": tally.attempted, "failed": failed, "unproven": tally.unproven},
        counters=run.get("counters", {}),
        metrics=metrics,
    )
    print(json.dumps({
        "correct": not failed and consistent and values_ok,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
