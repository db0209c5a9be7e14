"""Per-layer metrics of a traced run.

Every metric here is reported on every workload; a layer a workload
does not reach reads 0 there.  Times are self times from the merged
span tree (:mod:`spans`), counts come from the program's own
``repro.obs`` counters.  See ``WORKLOADS.md`` for which end-to-end
metric each should move, on which workload.
"""

from __future__ import annotations

#: per-layer metric -> span names whose self time it sums.
SELF_TIME_SPANS = {
    "synth.rewrite_s": ("synth.rewrite",),
    "synth.refactor_s": ("synth.refactor",),
    "synth.resub_s": ("synth.resub",),
    "synth.balance_s": ("synth.balance",),
    "synth.dch_s": ("synth.dch",),
    "synth.lutmap_s": ("synth.lutmap",),
    "synth.mfs_s": ("synth.mfs",),
    "synth.strash_s": ("synth.strash",),
    "synth.activity_s": ("synth.activity",),
    # The map stage span has no child: techmap plus its netlist guard.
    "map.techmap_s": ("flow.map",),
    "sta.timing_s": ("flow.sta",),
    "sta.graph_build_s": ("sta.graph_build",),
    "sta.power_s": ("flow.signoff_power",),
    # Stage spans minus their passes: guard CEC and cache traffic.
    "flow.c2rs.self_s": ("flow.c2rs",),
    "flow.power_restructure.self_s": ("flow.power_restructure",),
    "flow.run.self_s": ("flow.scenario", "flow.run", "flow.select"),
    # characterize_library(backend="spice") outside the transients:
    # stimulus set-up, measurement, analytic templates.
    "charlib.spice_s": ("bench.charlib.spice", "charlib.library", "charlib.cell"),
    # The SPICE engine (with the device model it evaluates).
    "spice.transient_s": ("spice.batch.transient", "spice.transient", "spice.dc_sweep"),
    # run_scenarios outside any program span (scenario keys, the fair
    # clock) plus the runner's own loop.
    "bench.self_s": ("bench.pass", "bench.evaluate"),
}

#: Counters copied as they are.
COUNTERS = (
    "synth.cuts.calls",
    "synth.cuts.enumerated",
    "synth.resub.sat_queries",
    "synth.balance.node_delta",
    "synth.resub.node_delta",
    "synth.rewrite.node_delta",
    "synth.refactor.node_delta",
    "map.matches_evaluated",
    "map.nodes_mapped",
    "sta.arc_lookups",
    "sta.power_vectors",
    "guard.cec.unproven",
    "spice.newton.iterations",
    "spice.transient.steps",
    "spice.transient.breakpoint_refinements",
)

#: ratio metric -> (numerator counter, denominator counters)
RATIOS = {
    "synth.rewrite.applied_ratio": ("synth.rewrite.applied", ("synth.rewrite.candidates",)),
    "synth.resub.useful_ratio": ("synth.resub.substitutions", ("synth.resub.sat_queries",)),
    "cache.hit_ratio": ("cache.hit", ("cache.hit", "cache.miss")),
    "spice.newton.iters_per_solve": ("spice.newton.iterations", ("spice.newton.solves",)),
    "spice.batch.width_eff": ("spice.batch.instance_steps", ("spice.batch.lockstep_steps",)),
}

#: Passes of the monotone-guarded scripts (``synth.pass_rejected``).
GUARDED_PASSES = ("synth.balance", "synth.resub", "synth.rewrite", "synth.refactor")

#: Quality of result (evaluate workloads) and surrogate error
#: (``spice_grid``); deterministic for a seed.
QOR = (
    ("power_saving_pct", "%", "higher"),
    ("power_uw", "uW", "lower"),
    ("area_um2", "um2", "lower"),
    ("delay_ps", "ps", "lower"),
    ("surrogate_delay_err", "abs_ln", "lower"),
    ("surrogate_slew_err", "abs_ln", "lower"),
)

_HIGHER = {
    "synth.rewrite.applied_ratio",
    "synth.resub.useful_ratio",
    "cache.hit_ratio",
    "spice.batch.width_eff",
    "trace.attributed_pct",
    *(name for name in COUNTERS if name.endswith(".node_delta")),
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("_per_solve") or name.endswith("_eff"):
        return "ratio"
    return "count"


def definitions() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    names = [
        "cuts.enumerate_s",
        "cuts.probe_cuts",
        *SELF_TIME_SPANS,
        "charlib.analytic_s",
        "mapping.view_build_s",
        "charlib.cells",
        "charlib.arcs",
        *COUNTERS,
        *RATIOS,
        "synth.pass_rejected_ratio",
        "check.cec_unproven",
        "obs.overhead_pct",
        "trace.attributed_pct",
    ]
    out = [(n, _unit(n), "higher" if n in _HIGHER else "lower") for n in names]
    return out + list(QOR)


def _ratio(counters: dict, num: str, dens: tuple[str, ...]) -> float:
    den = sum(counters.get(d, 0) for d in dens)
    return counters.get(num, 0) / den if den else 0.0


def compute(log, pass_root: dict, counters: dict, setup_counters: dict) -> dict[str, float]:
    """Layer metrics of one traced pass rooted at ``pass_root``.

    Set-up metrics come from the ``bench.*`` spans and counters of the
    traced set-up; probe metrics are filled in by the caller.
    """
    self_times = log.self_times(pass_root)
    wall = log.duration(pass_root)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_SPANS.items():
        out[metric] = sum(self_times.get(n, 0.0) for n in names)
    out["charlib.analytic_s"] = log.total("bench.setup.charlib")
    out["mapping.view_build_s"] = log.total("bench.setup.view")
    out["charlib.cells"] = setup_counters.get("charlib.cells", 0)
    out["charlib.arcs"] = setup_counters.get("charlib.arcs", 0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    for metric, (num, dens) in RATIOS.items():
        out[metric] = _ratio(counters, num, dens)
    passes = sum(1 for r in log.subtree(pass_root) if r["name"] in GUARDED_PASSES)
    out["synth.pass_rejected_ratio"] = (
        counters.get("synth.pass_rejected", 0) / passes if passes else 0.0
    )
    out["trace.attributed_pct"] = 100.0 * (wall - out["bench.self_s"]) / wall
    return {k: float(v) for k, v in out.items()}
