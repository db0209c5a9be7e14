"""K-feasible cut enumeration with priority cuts.

Cuts are the unit of work for rewriting, LUT mapping, and standard-
cell matching (Section IV-A2 of the paper): a cut of node ``n`` is a
set of nodes (leaves) whose removal separates ``n`` from the primary
inputs and whose truth table is small enough to compute.  The
priority-cut scheme keeps only the best ``C`` cuts per node, which
bounds the quadratic blow-up of exhaustive enumeration.

The engine follows Mishchenko, Cho, Chatterjee and Brayton
("Combinational and Sequential Mapping with Priority Cuts", ICCAD
2007):

* every cut carries a 64-bit leaf signature, so most oversized merges
  and failed dominance checks are rejected with one ``&``/``|``;
* candidates are ranked before they are filtered, so only the cuts
  that survive get a truth table (expanded a word at a time by
  :func:`repro.synth.truth.tt_expand`);
* the cut sets of the last few networks are memoized on their exact
  AND structure and shared read-only, because consecutive passes
  often enumerate the same network with the same settings.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .. import obs
from .aig import AIG, lit_is_compl, lit_var
from .truth import tt_expand, tt_mask, tt_var


@dataclass(frozen=True, slots=True)
class Cut:
    """A cut: sorted leaf node ids plus the truth table of the root
    over those leaves (positive polarity of the root node).

    ``sig`` is the leaf signature, one bit per ``leaf % 64``: a
    subset's bits are a subset of ``sig``, and a union of signatures
    has no more bits than the union of leaves.  It lets merges and
    dominance checks reject most pairs without touching the leaf
    tuples.
    """

    leaves: tuple[int, ...]
    table: int
    sig: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        sig = 0
        for leaf in self.leaves:
            sig |= 1 << (leaf & 63)
        object.__setattr__(self, "sig", sig)

    def size(self) -> int:
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True if this cut's leaves are a subset of the other's."""
        if self.sig & ~other.sig:
            return False
        return set(self.leaves) <= set(other.leaves)


#: Sentinel table value for cuts enumerated without truth tables.
NO_TABLE = -1


def _filter_dominated(candidates: list[tuple], limit: int) -> list[tuple]:
    """The first ``limit`` candidates that no kept candidate dominates.

    ``candidates`` are ``(leaves, sig, ...)`` tuples with distinct leaf
    sets, sorted by ``(size, leaves)``: a cut can only be dominated by
    a smaller one, so every dominator of a candidate is considered (and,
    if itself undominated, kept) before it.  The result is therefore the
    ``limit`` best undominated cuts.
    """
    kept: list[tuple] = []
    for candidate in candidates:
        leaves, sig = candidate[0], candidate[1]
        for other in kept:
            if not other[1] & ~sig and set(other[0]) <= set(leaves):
                break
        else:
            kept.append(candidate)
            if len(kept) == limit:
                break
    return kept


def _merged_table(leaves: tuple[int, ...], fanin: Cut, compl: bool) -> int:
    """A fanin cut's table re-expressed over ``leaves`` (a superset)."""
    n = len(leaves)
    table = fanin.table
    if fanin.leaves != leaves:
        positions = [leaves.index(leaf) for leaf in fanin.leaves]
        table = tt_expand(table, positions, len(fanin.leaves), n)
    return table ^ tt_mask(n) if compl else table


#: AND structure of a network: ``(fanin0, fanin1, is_pi, pis)``.
Structure = tuple[tuple[int, ...], tuple[int, ...], bytes, tuple[int, ...]]


def structure_key(aig: AIG) -> Structure:
    """Everything cut enumeration reads from a network.

    Node fanins, the PI flags and the PI order; no names, no outputs.
    Two networks with equal keys have identical cut sets.
    """
    return (tuple(aig._fanin0), tuple(aig._fanin1), bytes(aig._is_pi), tuple(aig.pis))


#: ``_miss.flag`` is set by a call that ran the enumeration rather
#: than returning a memoized result (per thread: passes of parallel
#: scenarios enumerate concurrently).
_miss = threading.local()


@lru_cache(maxsize=4)
def enumerate_structure(
    structure: Structure, k: int, max_cuts: int, include_trivial: bool, compute_tables: bool
) -> Mapping[int, tuple[Cut, ...]]:
    """Cut sets of one :func:`structure_key`, as :func:`enumerate_cuts`
    returns them.

    The last four results (about 2 MB each on a 1,400-AND network) are
    kept and shared read-only; ``enumerate_structure.cache_clear()``
    drops them.  The memo compares keys for equality, so only an
    identical structure hits.
    """
    _miss.flag = True
    fanin0, fanin1, is_pi, pis = structure
    trivial_table = tt_var(0, 1) if compute_tables else NO_TABLE
    cuts: dict[int, tuple[Cut, ...]] = {node: (Cut((node,), trivial_table),) for node in pis}
    cuts[0] = (Cut((), 0 if compute_tables else NO_TABLE),)

    for node in range(1, len(fanin0)):
        if is_pi[node]:
            continue
        f0, f1 = fanin0[node], fanin1[node]
        cuts_b = cuts[lit_var(f1)]
        # First fanin pair of every distinct leaf set that fits in k.
        pairs: dict[tuple[int, ...], tuple] = {}
        for cut_a in cuts[lit_var(f0)]:
            leaves_a, sig_a = cut_a.leaves, cut_a.sig
            for cut_b in cuts_b:
                sig = sig_a | cut_b.sig
                if sig.bit_count() > k:
                    continue
                leaves = tuple(sorted({*leaves_a, *cut_b.leaves}))
                if len(leaves) <= k and leaves not in pairs:
                    pairs[leaves] = (leaves, sig, cut_a, cut_b)
        ordered = sorted(pairs.values(), key=lambda c: (len(c[0]), c[0]))
        kept = []
        for leaves, _, cut_a, cut_b in _filter_dominated(ordered, max_cuts):
            if compute_tables:
                table = _merged_table(leaves, cut_a, lit_is_compl(f0)) & _merged_table(
                    leaves, cut_b, lit_is_compl(f1)
                )
            else:
                table = NO_TABLE
            kept.append(Cut(leaves, table))
        if include_trivial:
            kept.append(Cut((node,), trivial_table))
        cuts[node] = tuple(kept)
    return MappingProxyType(cuts)


def enumerate_cuts(
    aig: AIG,
    k: int = 4,
    max_cuts: int = 8,
    include_trivial: bool = True,
    compute_tables: bool = True,
) -> Mapping[int, tuple[Cut, ...]]:
    """Priority-cut enumeration.

    Returns a read-only node-id -> cut tuple mapping.  Every node
    carries its trivial cut ``({n}, x0)`` (needed so larger cuts can
    stop at internal nodes).  Cut lists are pruned to ``max_cuts`` by
    (size, leaf-id) preference after dominance filtering.

    With ``compute_tables=False`` no truth tables are computed; tables
    carry the :data:`NO_TABLE` sentinel and consumers compute them on
    demand for the cuts they select (see :func:`cut_function`).

    Results are memoized by :func:`enumerate_structure` and shared
    between callers: a network with the same AND structure (names and
    outputs aside) gets the same mapping back.
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    with obs.span("synth.cuts", k=k, max_cuts=max_cuts, tables=compute_tables):
        _miss.flag = False
        cuts = enumerate_structure(
            structure_key(aig), k, max_cuts, include_trivial, compute_tables
        )
        if obs.current_tracer() is not None:
            if not _miss.flag:
                obs.count("synth.cuts.reused")
            obs.count("synth.cuts.enumerated", sum(len(v) for v in cuts.values()))
            obs.count("synth.cuts.calls")
    return cuts


def cut_function(aig: AIG, root: int, leaves: tuple[int, ...]) -> int:
    """Truth table of ``root`` over ``leaves`` by cone simulation.

    Used by consumers of table-free cut enumeration to compute tables
    only for the (few) cuts actually selected.
    """
    n = len(leaves)
    if n > 16:
        raise ValueError("cut too wide for truth-table computation")
    mask = tt_mask(n)
    values: dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = tt_var(i, n)
    cone = sorted(cut_cone_nodes(aig, root, leaves))
    for node in cone:
        f0, f1 = aig.fanins(node)
        a = values[lit_var(f0)] ^ (mask if lit_is_compl(f0) else 0)
        b = values[lit_var(f1)] ^ (mask if lit_is_compl(f1) else 0)
        values[node] = a & b
    if root not in values:
        raise ValueError(f"leaves {leaves} do not form a cut of node {root}")
    return values[root]


def cut_cone_nodes(aig: AIG, root: int, leaves: tuple[int, ...]) -> set[int]:
    """AND nodes strictly inside the cut (between leaves and root)."""
    leaf_set = set(leaves)
    cone: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in cone or node in leaf_set or not aig.is_and(node):
            continue
        cone.add(node)
        f0, f1 = aig.fanins(node)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return cone


def mffc_size(aig: AIG, root: int, leaves: tuple[int, ...], fanouts: list[int]) -> int:
    """Size of the cut's maximum fanout-free cone.

    Counts the AND nodes inside the cut cone whose every fanout path
    stays inside the cone — the nodes that die if the root is replaced.
    Uses the supplied global fanout counts: a node belongs to the MFFC
    if all of its fanouts are MFFC members (starting from the root).
    """
    cone = cut_cone_nodes(aig, root, leaves)
    if not cone:
        return 0
    # Count references into each cone node from inside the MFFC.
    mffc = {root}
    # Process in reverse topological (descending id) order.
    internal_refs: dict[int, int] = {node: 0 for node in cone}
    for node in sorted(cone, reverse=True):
        if node not in mffc:
            continue
        f0, f1 = aig.fanins(node)
        for fanin in (lit_var(f0), lit_var(f1)):
            if fanin in internal_refs:
                internal_refs[fanin] += 1
                if internal_refs[fanin] == fanouts[fanin]:
                    mffc.add(fanin)
    return len(mffc)
