"""Seeded inputs of the flow benchmark.

The program only ever sees what this module generates: AIGs for the
``evaluate`` workloads and cell templates for ``spice_grid``.  The
seed is a benchmark argument; the same seed always yields the same
inputs.

The evaluate workloads run the EPFL generators' circuits exactly as
``repro evaluate`` builds them; their seed is the signoff power-vector
seed (``DesignContext.seed``), so it changes the vectors and the
power figures but not the synthesis work.  ``spice_grid`` draws one
drive strength per cell family; seed 0 takes the ``x1`` cells.

Seeded variations of the circuits themselves were tried and rejected.
One bit more or less in a generator's word width changes a circuit's
size by 25-100 % (``sin``: 1,079 / 1,420 / 1,804 ANDs at 7 / 8 / 9
bits; ``dec`` doubles per address bit), and a seeded primary-input
order changed ``fig3_fast``'s work by 20-40 %: either spread is wider
than the ``wall_s`` bound.  A seeded primary-output order changed it by about
2 %, but on ``sin`` one such order (seed 12) made ``synth.dch`` take
321 s instead of about 6 s, past the per-run time limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.benchgen.suite import build_circuit
from repro.pdk.catalog import standard_cell_catalog
from repro.pdk.cells import CellTemplate
from repro.synth.aig import AIG

#: workload -> (benchgen preset, circuits)
EVALUATE_WORKLOADS = {
    "arith_small": ("small", ("sin", "square", "multiplier")),
    "fig3_fast": (
        "default",
        ("ctrl", "dec", "int2float", "priority", "router", "cavlc", "i2c"),
    ),
}

#: ``spice_grid`` draws one cell from each family (first = seed 0).
SPICE_FAMILIES = (
    ("INVx1", "INVx2", "INVx3", "INVx4"),
    ("NAND2x1", "NAND2x2", "NAND2x3", "NAND2x4"),
    ("AOI22x1", "AOI22x2", "AOI22x4"),
)

WORKLOADS = (*EVALUATE_WORKLOADS, "spice_grid")


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    #: Temperature corners [K] the workload runs at.
    corners: tuple[float, ...]
    circuits: tuple[AIG, ...] = ()
    cells: tuple[CellTemplate, ...] = ()

    def fingerprint(self) -> list[str]:
        """What a second seed must change: circuit hashes and the
        signoff vector seed, or the cell names."""
        if self.circuits:
            return [aig.structural_hash() for aig in self.circuits] + [
                f"signoff_vectors:{self.seed}"
            ]
        return [cell.name for cell in self.cells]

    def size(self) -> dict[str, int]:
        return {
            "ands": sum(aig.num_ands for aig in self.circuits),
            "pis": sum(aig.num_pis for aig in self.circuits),
            "cells": len(self.cells),
        }


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spice_grid":
        by_name = {cell.name: cell for cell in standard_cell_catalog()}
        names = [
            family[0] if seed == 0 else rng.choice(family) for family in SPICE_FAMILIES
        ]
        return Inputs(
            workload, seed, (10.0, 300.0), cells=tuple(by_name[n] for n in names)
        )
    preset, names = EVALUATE_WORKLOADS[workload]
    circuits = tuple(build_circuit(name, preset) for name in names)
    return Inputs(workload, seed, (10.0,), circuits=circuits)
