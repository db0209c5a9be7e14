"""Set-based priority-cut enumeration.

Oracle for :func:`repro.synth.cuts.enumerate_cuts`: every pair of
fanin cuts is merged with set unions and per-minterm table expansion,
dominance is checked with ``set`` inclusion, and the survivors are
sorted by (size, leaves) and truncated to ``max_cuts``.
"""

from __future__ import annotations

from repro.synth.aig import AIG, lit_is_compl, lit_var

from .truth_ref import tt_expand, tt_mask

NO_TABLE = -1
#: Truth table of the single variable of a one-input function.
TRIVIAL_TABLE = 0b10


def _merge(a, b, compl_a, compl_b, k, with_tables):
    leaves = tuple(sorted(set(a[0]) | set(b[0])))
    if len(leaves) > k:
        return None
    if not with_tables:
        return leaves, NO_TABLE
    n = len(leaves)
    position = {leaf: i for i, leaf in enumerate(leaves)}
    table_a = tt_expand(a[1], [position[l] for l in a[0]], len(a[0]), n)
    table_b = tt_expand(b[1], [position[l] for l in b[0]], len(b[0]), n)
    if compl_a:
        table_a ^= tt_mask(n)
    if compl_b:
        table_b ^= tt_mask(n)
    return leaves, table_a & table_b


def _filter_dominated(cuts):
    result = []
    for cut in cuts:
        if any(set(other[0]) <= set(cut[0]) for other in result):
            continue
        result = [other for other in result if not set(cut[0]) <= set(other[0])]
        result.append(cut)
    return result


def enumerate_cuts(
    aig: AIG,
    k: int = 4,
    max_cuts: int = 8,
    include_trivial: bool = True,
    compute_tables: bool = True,
) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """node -> list of ``(leaves, table)`` in priority order."""
    if k < 2:
        raise ValueError("cut size must be at least 2")
    trivial = TRIVIAL_TABLE if compute_tables else NO_TABLE
    cuts = {node: [((node,), trivial)] for node in aig.pis}
    cuts[0] = [((), 0 if compute_tables else NO_TABLE)]
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        v0, v1 = lit_var(f0), lit_var(f1)
        merged = []
        seen = set()
        for cut_a in cuts[v0]:
            for cut_b in cuts[v1]:
                candidate = _merge(
                    cut_a, cut_b, lit_is_compl(f0), lit_is_compl(f1), k, compute_tables
                )
                if candidate is None:
                    continue
                if not compute_tables:
                    if candidate[0] in seen:
                        continue
                    seen.add(candidate[0])
                merged.append(candidate)
        merged = _filter_dominated(merged)
        merged.sort(key=lambda c: (len(c[0]), c[0]))
        merged = merged[:max_cuts]
        if include_trivial:
            merged.append(((node,), trivial))
        cuts[node] = merged
    return cuts
