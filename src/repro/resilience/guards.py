"""Stage-boundary invariant guards: self-checking pipeline artifacts.

Crash tolerance is only half of reliability — the other half is never
letting a *silently wrong* artifact propagate (or worse, enter the
content-addressed cache, where it would poison every later run that
shares the key).  This module implements the checks that run at stage
boundaries of the synthesis flow:

* **functional**: a bounded combinational equivalence check
  (:func:`repro.sat.cec.check_equivalence` with a ``sat_node_limit``)
  between a restructuring stage's input and output networks — random
  simulation always, a full SAT proof only while the networks are
  small enough to afford one;
* **structural (AIG)**: acyclicity/topological order, two-input
  fanin arity, canonical fanin ordering, interface-array consistency;
* **structural (library)**: every NLDM table finite, slew/load
  (capacitance) axes strictly monotone, non-negative areas and
  leakages — invariants the dataclass validators enforce at
  construction but which a pickle round-trip through a hostile disk
  bypasses;
* **structural (netlist)**: every gate instantiates a known library
  cell and the gate list is topologically ordered.

Check functions return a list of human-readable violation strings
(empty = healthy).  The :class:`repro.core.stages.FlowRunner` invokes
a stage's guard on every cache *miss*, before the artifact is stored:
a violation vetoes caching (quarantine) and — in the default
``enforce`` mode — raises
:class:`repro.resilience.errors.GuardViolation`, a
:class:`PermanentError` (recomputing the same wrong answer cannot
help).  ``REPRO_GUARDS=warn`` downgrades violations to counters plus
``FlowResult.guard_violations`` entries; ``REPRO_GUARDS=off`` skips
the checks entirely.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

from .. import obs

if TYPE_CHECKING:
    from ..charlib.nldm import Library
    from ..mapping.netlist import MappedNetlist
    from ..synth.aig import AIG

#: Environment knob: ``enforce`` (default) raises on violation,
#: ``warn`` records without failing, ``off`` disables the guards.
ENV_VAR = "REPRO_GUARDS"

#: Combined AND-node budget above which the CEC guard stays
#: simulation-only (override with ``REPRO_GUARD_CEC_LIMIT``).
DEFAULT_CEC_SAT_LIMIT = 200

#: Random patterns for the CEC guard's simulation pre-filter.
CEC_PATTERNS = 64

_ARC_TABLES = (
    "cell_rise",
    "cell_fall",
    "rise_transition",
    "fall_transition",
    "rise_power",
    "fall_power",
)
_CONSTRAINT_TABLES = ("rise_constraint", "fall_constraint")


def mode() -> str:
    """Active guard mode: ``enforce`` | ``warn`` | ``off``."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in ("0", "off", "false", "no"):
        return "off"
    if value == "warn":
        return "warn"
    return "enforce"


def cec_sat_limit() -> int:
    try:
        return int(os.environ.get("REPRO_GUARD_CEC_LIMIT", DEFAULT_CEC_SAT_LIMIT))
    except ValueError:
        return DEFAULT_CEC_SAT_LIMIT


# ----------------------------------------------------------------------
# AIG invariants
# ----------------------------------------------------------------------
def check_aig_invariants(aig: "AIG") -> list[str]:
    """Structural well-formedness of an and-inverter graph.

    Every property here holds by construction through the public
    :class:`repro.synth.aig.AIG` API; a violation therefore means a
    buggy pass mutated internals directly, or an artifact was
    deserialized from a corrupted source.
    """
    from ..synth.aig import lit_var

    violations: list[str] = []
    n = len(aig._fanin0)
    if len(aig._fanin1) != n or len(aig._is_pi) != n:
        return [
            f"fanin/pi arrays disagree on node count "
            f"({n}, {len(aig._fanin1)}, {len(aig._is_pi)})"
        ]
    if n == 0 or aig._is_pi[0] or aig._fanin0[0] != -1 or aig._fanin1[0] != -1:
        violations.append("node 0 is not the constant-FALSE node")
    for node in range(1, n):
        f0, f1 = aig._fanin0[node], aig._fanin1[node]
        if aig._is_pi[node]:
            if f0 != -1 or f1 != -1:
                violations.append(f"PI node {node} has fanins ({f0}, {f1})")
            continue
        if f0 < 0 or f1 < 0:
            violations.append(f"AND node {node} has arity < 2 ({f0}, {f1})")
            continue
        if f0 > f1:
            violations.append(
                f"AND node {node} fanins not canonically ordered ({f0} > {f1})"
            )
        if lit_var(f0) >= node or lit_var(f1) >= node:
            violations.append(
                f"AND node {node} breaks topological order (fanins "
                f"{lit_var(f0)}, {lit_var(f1)}) — cycle or dangling reference"
            )
    for i, pi in enumerate(aig.pis):
        if not (0 < pi < n) or not aig._is_pi[pi]:
            violations.append(f"pis[{i}] = {pi} is not a PI node")
    for i, po in enumerate(aig.pos):
        if po < 0 or lit_var(po) >= n:
            violations.append(f"pos[{i}] = {po} references node {lit_var(po)} >= {n}")
    if len(aig.pi_names) != len(aig.pis):
        violations.append(
            f"{len(aig.pi_names)} PI names for {len(aig.pis)} PIs"
        )
    if len(aig.po_names) != len(aig.pos):
        violations.append(
            f"{len(aig.po_names)} PO names for {len(aig.pos)} POs"
        )
    return violations


def synthesis_guard(stage: str, before: "AIG", after: "AIG") -> list[str]:
    """Guard for a restructuring stage: interface, structure, function.

    Returns violation strings; the CEC part is bounded (see module
    docstring) so this runs after *every* synthesis stage without an
    unbounded solver bill.
    """
    from ..sat.cec import check_equivalence

    obs.count("guard.check")
    obs.count(f"guard.check.{stage}")
    violations = check_aig_invariants(after)
    if before.num_pis != after.num_pis:
        violations.append(
            f"PI count changed: {before.num_pis} -> {after.num_pis}"
        )
    if before.num_pos != after.num_pos:
        violations.append(
            f"PO count changed: {before.num_pos} -> {after.num_pos}"
        )
    if violations:
        return violations  # CEC needs a structurally sane network
    result = check_equivalence(
        before,
        after,
        simulation_patterns=CEC_PATTERNS,
        sat_node_limit=cec_sat_limit(),
    )
    if not result.equivalent:
        violations.append(
            f"cec: output {result.failing_output} differs from the stage "
            f"input under PI assignment {result.counterexample}"
        )
    elif not result.proven:
        # Simulation found nothing but the SAT budget was exceeded:
        # the artifact passes, with the reduced confidence visible.
        obs.count("guard.cec.unproven")
    return violations


# ----------------------------------------------------------------------
# Library invariants
# ----------------------------------------------------------------------
def _check_table(owner: str, field: str, table) -> list[str]:
    violations: list[str] = []
    axes = (("slews", table.slews), ("loads", table.loads))
    for axis_name, axis in axes:
        if any(not math.isfinite(v) for v in axis):
            violations.append(f"{owner}.{field}: non-finite {axis_name} axis")
        elif any(b <= a for a, b in zip(axis, axis[1:])):
            violations.append(
                f"{owner}.{field}: {axis_name} axis not strictly increasing"
            )
    if any(not math.isfinite(v) for row in table.values for v in row):
        violations.append(f"{owner}.{field}: non-finite table value")
    return violations


def check_library_invariants(library: "Library") -> list[str]:
    """Finiteness and monotonicity of every characterized table.

    :class:`repro.charlib.nldm.NLDMTable` validates its axes at
    construction and the characterization engine sanitizes non-finite
    measurements — but artifacts that travelled through a disk cache
    (pickle bypasses ``__post_init__``) get re-checked here before
    signoff trusts them.
    """
    violations: list[str] = []
    for cell in library.cells.values():
        if not math.isfinite(cell.area) or cell.area < 0.0:
            violations.append(f"{cell.name}: non-physical area {cell.area!r}")
        for pin, cap in cell.input_caps.items():
            if not math.isfinite(cap) or cap < 0.0:
                violations.append(
                    f"{cell.name}.{pin}: non-physical input cap {cap!r}"
                )
        for state, leak in cell.leakage_by_state.items():
            if not math.isfinite(leak) or leak < 0.0:
                violations.append(
                    f"{cell.name}[{state}]: non-physical leakage {leak!r}"
                )
        for arc in cell.arcs:
            owner = f"{cell.name}.{arc.related_pin}->{arc.output_pin}"
            for field in _ARC_TABLES:
                violations.extend(_check_table(owner, field, getattr(arc, field)))
        for arc in cell.constraints:
            owner = f"{cell.name}.{arc.constrained_pin}/{arc.timing_type}"
            for field in _CONSTRAINT_TABLES:
                violations.extend(_check_table(owner, field, getattr(arc, field)))
    return violations


# ----------------------------------------------------------------------
# Netlist invariants
# ----------------------------------------------------------------------
def netlist_guard(library: "Library", netlist: "MappedNetlist") -> list[str]:
    """Mapped-netlist sanity: known cells, topological gate order."""
    obs.count("guard.check")
    obs.count("guard.check.map")
    violations: list[str] = []
    defined = set(netlist.pi_nets)
    for gate in netlist.gates:
        if gate.cell not in library:
            violations.append(f"gate {gate.name}: unknown cell {gate.cell!r}")
        for pin, net in gate.pins.items():
            if net not in defined:
                violations.append(
                    f"gate {gate.name}.{pin}: net {net!r} has no earlier driver"
                )
        defined.add(gate.output_net)
    for net in netlist.po_nets:
        if net not in defined:
            violations.append(f"PO net {net!r} is undriven")
    return violations
