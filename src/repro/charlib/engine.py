"""Library characterization orchestration.

The Fig. 2 experiments need the whole 200-cell catalog characterized
at both 300 K and 10 K.  This module drives a backend over the catalog
(or any cell subset), assembles the :class:`Library`, and routes the
result through the content-addressed artifact cache
(:mod:`repro.core.artifacts`): a characterized corner is computed once
per (technology, temperature, backend, grid, cell set) and reused
across scenarios, figures, and — with a disk-backed cache — process
restarts, where a warm cache skips characterization entirely
(``cache.hit.charlib`` in the obs summary).
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Sequence

from .. import obs
from ..resilience import faults, guards
from ..resilience.errors import GuardViolation
from ..pdk.catalog import standard_cell_catalog
from ..pdk.cells import CellTemplate
from ..pdk.technology import Technology, cryo5_technology
from .analytic import AnalyticCharacterizer
from .nldm import Library, LibertyCell, NLDMTable
from .spice_char import SpiceCharacterizer

BACKENDS = ("analytic", "spice")

#: Bump when characterization semantics change, to invalidate every
#: persisted library artifact at once.
CHARACTERIZATION_VERSION = 1


def _characterization_key(
    tech: Technology,
    temperature_k: float,
    cells: Sequence[CellTemplate],
    backend: str,
    slews: tuple[float, ...] | None,
    loads: tuple[float, ...] | None,
    name: str | None,
) -> str:
    """Content address of one characterization run.

    Cell templates are defined in code, so their names + count (plus
    :data:`CHARACTERIZATION_VERSION`) stand in for their content; the
    technology is a plain dataclass and digests field by field.
    """
    from ..core.artifacts import cache_key

    return cache_key(
        "charlib",
        CHARACTERIZATION_VERSION,
        tech,
        temperature_k,
        tuple(cell.name for cell in cells),
        backend,
        slews,
        loads,
        name,
    )


def _sanitize_table(table: NLDMTable) -> tuple[NLDMTable, int]:
    """Repair non-finite table entries with the worst finite value.

    Downstream consumers (interpolation, STA, the Liberty writer)
    assume finite tables; a NaN from a corrupted measurement would
    otherwise poison every lookup that touches its grid cell.  Using
    the table's *worst* (largest) finite value keeps the repair
    conservative for delay/slew/power alike.  Returns the repaired
    table and the number of points touched (0 -> the original table).
    """
    flat = [v for row in table.values for v in row]
    if all(math.isfinite(v) for v in flat):
        return table, 0
    finite = [v for v in flat if math.isfinite(v)]
    worst = max(finite) if finite else 0.0
    repaired = 0
    rows = []
    for row in table.values:
        new_row = []
        for v in row:
            if math.isfinite(v):
                new_row.append(v)
            else:
                new_row.append(worst)
                repaired += 1
        rows.append(tuple(new_row))
    return NLDMTable(table.slews, table.loads, tuple(rows)), repaired


_ARC_TABLE_FIELDS = (
    "cell_rise",
    "cell_fall",
    "rise_transition",
    "fall_transition",
    "rise_power",
    "fall_power",
)


def _sanitize_cell(cell: LibertyCell) -> LibertyCell:
    """Repair non-finite NLDM points in place of failing the build.

    Any arc with repaired points is recorded in
    :attr:`LibertyCell.degraded_arcs` so the degradation is visible in
    flow results, the Liberty output, and ``--strict`` runs.
    """
    degraded = list(cell.degraded_arcs)
    for i, arc in enumerate(cell.arcs):
        replacements: dict[str, NLDMTable] = {}
        repaired_points = 0
        for field in _ARC_TABLE_FIELDS:
            table, repaired = _sanitize_table(getattr(arc, field))
            if repaired:
                replacements[field] = table
                repaired_points += repaired
        if not replacements:
            continue
        cell.arcs[i] = dataclasses.replace(arc, **replacements)
        obs.count("charlib.sanitized_points", repaired_points)
        key = f"{arc.related_pin}->{arc.output_pin}"
        if key not in degraded:
            obs.count("charlib.arc.degraded")
            degraded.append(key)
    cell.degraded_arcs = tuple(degraded)
    return cell


def characterize_library(
    tech: Technology,
    temperature_k: float,
    cells: Sequence[CellTemplate] | None = None,
    backend: str = "analytic",
    slews: tuple[float, ...] | None = None,
    loads: tuple[float, ...] | None = None,
    name: str | None = None,
    cache=None,
) -> Library:
    """Characterize a cell set into a :class:`Library` at one corner.

    Parameters
    ----------
    backend:
        ``"analytic"`` (fast effective-current model, used for full
        libraries) or ``"spice"`` (transistor-level transients, used
        for validation subsets).
    cache:
        An :class:`repro.core.artifacts.ArtifactCache`; pass ``False``
        to force characterization, ``None`` for the process default.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if cells is None:
        cells = standard_cell_catalog()

    def build() -> Library:
        characterizer = (
            AnalyticCharacterizer(tech, temperature_k)
            if backend == "analytic"
            else SpiceCharacterizer(tech, temperature_k)
        )
        library = Library(
            name=name or f"{tech.name}_{temperature_k:g}K",
            temperature=temperature_k,
            vdd=tech.vdd,
        )
        with obs.span(
            "charlib.library", backend=backend, temperature_k=temperature_k
        ) as sp:
            for cell in cells:
                with obs.span("charlib.cell", cell=cell.name):
                    result = _sanitize_cell(
                        characterizer.characterize_cell(cell, slews, loads)
                    )
                    obs.count("charlib.cells")
                    obs.count("charlib.arcs", len(result.arcs))
                library.add(result)
            sp.set(cells=len(library), degraded_arcs=len(library.degraded_arcs()))
        if guards.mode() != "off":
            violations = guards.check_library_invariants(library)
            if violations:
                obs.count("guard.violation")
                obs.count("guard.violation.charlib")
                if guards.mode() == "enforce":
                    # Raised inside build(): the broken library never
                    # reaches the cache.
                    raise GuardViolation(
                        f"characterized library {library.name!r} violates "
                        f"structural invariants: " + "; ".join(violations[:5]),
                        site="guard.charlib",
                        stage="charlib",
                        violations=violations,
                    )
        return library

    if cache is False:
        return build()
    if cache is None:
        from ..core.artifacts import default_cache

        cache = default_cache()
    key = _characterization_key(tech, temperature_k, cells, backend, slews, loads, name)
    # Degraded libraries (fault-injection runs, flaky transients) must
    # never poison a shared cache with fallback-quality tables.
    return cache.get_or_compute(key, build, cache_if=lambda lib: not lib.is_degraded)


@lru_cache(maxsize=8)
def _default_library_memo(temperature_k: float) -> Library:
    return characterize_library(cryo5_technology(), temperature_k)


def default_library(temperature_k: float, cache=None) -> Library:
    """Memoized full-catalog library of the default technology.

    This is the library every synthesis experiment maps against.  With
    no explicit cache the per-process memo keeps the historical
    guarantee that repeated calls return the *same object*; an
    explicit ``cache`` routes through it directly (e.g. a warm disk
    cache loads the corner instead of recharacterizing it).

    While a fault-injection plan is active the memo is bypassed in
    both directions: the faulted run must not be served a healthy
    memoized library (hiding the injected degradation), and a degraded
    library must never be memoized for later healthy runs.
    """
    if cache is not None:
        return characterize_library(cryo5_technology(), temperature_k, cache=cache)
    if faults.active_plan() is not None:
        return characterize_library(cryo5_technology(), temperature_k, cache=False)
    return _default_library_memo(temperature_k)
