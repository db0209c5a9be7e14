"""Technology-library view for Boolean matching.

Preprocesses a characterized :class:`repro.charlib.Library` into match
tables: for every distinct ≤4-input cell function, all NP
configurations (input permutations x input/output polarities) are
enumerated and indexed by the resulting truth table.  Technology
mapping then matches a cut by a single dictionary lookup — no
canonicalization in the inner loop.

Cells sharing a function (drive-strength families) are grouped; the
mapper picks among them by cost.  Cells with more than 4 inputs are
characterized and written to liberty but not used for cut matching,
mirroring the input-count limits of practical matchers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from ..charlib.nldm import Library, LibertyCell
from ..synth.truth import tt_flip_input, tt_mask, tt_permute

#: Maximum matchable gate arity.
MAX_MATCH_INPUTS = 4


@dataclass(frozen=True)
class MatchConfig:
    """One way to realize a cut function with a cell family.

    Semantics: connecting cell input pin ``i`` (in ``pin_order``) to
    cut leaf ``leaf_of_pin[i]``, inverting that connection when bit
    ``i`` of ``pin_neg_mask`` is set, and inverting the output when
    ``output_neg`` is set, realizes the cut function exactly.
    """

    function_key: tuple[int, int]  # (truth table, arity) of the family
    leaf_of_pin: tuple[int, ...]
    pin_neg_mask: int
    output_neg: bool

    @property
    def num_input_inverters(self) -> int:
        return bin(self.pin_neg_mask).count("1")


@dataclass
class CellFamily:
    """Cells sharing one Boolean function, sorted by area."""

    table: int
    arity: int
    cells: list[LibertyCell] = field(default_factory=list)


class TechLibraryView:
    """Match tables + convenience metrics over a liberty library."""

    @classmethod
    def for_library(cls, library: Library, cache=None) -> "TechLibraryView":
        """The shared view of a library, via the artifact cache.

        View construction enumerates every NP configuration of every
        matchable cell — far too expensive to repeat per scenario.  The
        view is pure w.r.t. the library, so it is content-addressed by
        the library fingerprint and built at most once per cache
        (memory tier only: the view is cheap to rebuild relative to
        characterization and holds a reference to the live library).
        """
        from ..core.artifacts import cache_key, default_cache

        cache = cache or default_cache()
        key = cache_key("techview", library.fingerprint())
        return cache.get_or_compute(key, lambda: cls(library), persist=False)

    def __init__(self, library: Library):
        self.library = library
        self.families: dict[tuple[int, int], CellFamily] = {}
        #: arity -> truth table -> list of MatchConfig.
        self.match_tables: dict[int, dict[int, list[MatchConfig]]] = {
            n: {} for n in range(MAX_MATCH_INPUTS + 1)
        }
        self._build()
        self.inverter = self._pick_inverter()
        self.buffer = self._pick_buffer()
        # Per-cell constants used by the mapper's inner loop: NLDM
        # lookups are far too slow to repeat per candidate match.
        self._delay_cache: dict[str, float] = {}
        self._energy_cache: dict[str, float] = {}
        self._leak_cache: dict[str, float] = {}
        self._cap_cache: dict[str, tuple[float, ...]] = {}
        for cell in library.cells.values():
            self._delay_cache[cell.name] = cell.typical_delay()
            self._energy_cache[cell.name] = cell.typical_energy()
            self._leak_cache[cell.name] = cell.leakage_average
            self._cap_cache[cell.name] = tuple(
                cell.input_caps.get(pin, 0.0) for pin in cell.input_pins
            )

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for cell in self.library.cells.values():
            if cell.is_sequential or len(cell.output_pins) != 1:
                continue
            out = cell.output_pins[0]
            if out not in cell.truth_tables:
                continue
            arity = len(cell.input_pins)
            if not 1 <= arity <= MAX_MATCH_INPUTS:
                continue
            table = cell.truth_tables[out]
            key = (table, arity)
            family = self.families.get(key)
            if family is None:
                family = CellFamily(table, arity)
                self.families[key] = family
                self._index_function(table, arity)
            family.cells.append(cell)
        for family in self.families.values():
            family.cells.sort(key=lambda c: c.area)
        self._prune_configs()

    def _prune_configs(self, per_family: int = 2) -> None:
        """Keep only the cheapest configs per (function, family).

        Many NP configurations of a symmetric gate realize the same
        cut function; for cost purposes only the inverter count and
        pin assignment matter, so a couple of minimal-inverter
        configs per family suffice and shrink the mapper's inner loop.
        """
        for arity, table_map in self.match_tables.items():
            for tt, configs in table_map.items():
                by_family: dict[tuple[int, int], list[MatchConfig]] = {}
                for config in configs:
                    by_family.setdefault(config.function_key, []).append(config)
                pruned: list[MatchConfig] = []
                for family_configs in by_family.values():
                    family_configs.sort(
                        key=lambda c: (c.num_input_inverters, c.output_neg)
                    )
                    pruned.extend(family_configs[:per_family])
                table_map[tt] = pruned

    def _index_function(self, table: int, arity: int) -> None:
        """Enumerate all NP configurations of one function."""
        key = (table, arity)
        full = tt_mask(arity)
        # flipped[neg_mask]: the cell function with the pins in
        # ``neg_mask`` inverted.
        flipped = [table]
        for neg_mask in range(1, 1 << arity):
            low = (neg_mask & -neg_mask).bit_length() - 1
            flipped.append(tt_flip_input(flipped[neg_mask & (neg_mask - 1)], low, arity))
        for perm in permutations(range(arity)):
            # Cell pin i sees leaf perm[i]: leaf j drives pin inverse[j].
            inverse = tuple(sorted(range(arity), key=perm.__getitem__))
            for neg_mask in range(1 << arity):
                realized = tt_permute(flipped[neg_mask], inverse, arity)
                for output_neg in (False, True):
                    final = realized ^ (full if output_neg else 0)
                    configs = self.match_tables[arity].setdefault(final, [])
                    configs.append(
                        MatchConfig(
                            function_key=key,
                            leaf_of_pin=perm,
                            pin_neg_mask=neg_mask,
                            output_neg=output_neg,
                        )
                    )

    def _pick_inverter(self) -> LibertyCell:
        candidates = [
            family.cells[0]
            for (table, arity), family in self.families.items()
            if arity == 1 and table == 0b01
        ]
        if not candidates:
            raise ValueError("library has no inverter; mapping impossible")
        return min(candidates, key=lambda c: c.area)

    def _pick_buffer(self) -> LibertyCell | None:
        candidates = [
            family.cells[0]
            for (table, arity), family in self.families.items()
            if arity == 1 and table == 0b10
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.area)

    # ------------------------------------------------------------------
    def matches(self, table: int, arity: int) -> list[MatchConfig]:
        """All NP configurations realizing a cut function."""
        if arity > MAX_MATCH_INPUTS:
            return []
        return self.match_tables[arity].get(table, [])

    def family_cells(self, config: MatchConfig) -> list[LibertyCell]:
        return self.families[config.function_key].cells

    # ------------------------------------------------------------------
    # Cell metrics used by the mapper's cost functions
    # ------------------------------------------------------------------
    def cell_delay(self, cell: LibertyCell) -> float:
        """Representative delay [s] (worst arc, grid midpoint)."""
        return self._delay_cache[cell.name]

    def cell_energy(self, cell: LibertyCell) -> float:
        """Representative internal energy per output event [J]."""
        return self._energy_cache[cell.name]

    def cell_input_cap(self, cell: LibertyCell, pin_index: int) -> float:
        return self._cap_cache[cell.name][pin_index]

    def cell_leakage(self, cell: LibertyCell) -> float:
        return self._leak_cache[cell.name]
