"""Truth-table utilities over packed integers.

A function of ``n`` inputs is stored as a ``2**n``-bit integer; bit
``i`` holds the output under the assignment where input ``j`` equals
bit ``j`` of ``i``.  Everything the cut-based algorithms need —
projections, cofactors, permutation/negation transforms, support
computation, NPN canonicalization — lives here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations


def tt_mask(n: int) -> int:
    """All-ones mask for an n-input table."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def tt_var(index: int, n: int) -> int:
    """Truth table of input variable ``index`` among ``n`` inputs."""
    if not 0 <= index < n:
        raise ValueError(f"variable {index} out of range for {n} inputs")
    # Blocks of 2**index zeros then 2**index ones, repeated.
    half = 1 << index
    block = ((1 << half) - 1) << half
    return block * (tt_mask(n) // ((1 << (2 * half)) - 1))


def tt_not(tt: int, n: int) -> int:
    """Complement."""
    return tt ^ tt_mask(n)


def tt_cofactor(tt: int, var: int, value: bool, n: int) -> int:
    """Shannon cofactor with respect to one variable.

    The result is still expressed over ``n`` variables (the chosen
    variable becomes redundant).
    """
    var_tt = tt_var(var, n)
    if value:
        positive = tt & var_tt
        return positive | (positive >> (1 << var))
    negative = tt & ~var_tt & tt_mask(n)
    return negative | (negative << (1 << var)) & tt_mask(n)


def tt_depends_on(tt: int, var: int, n: int) -> bool:
    """True if the function depends on the given variable."""
    return tt_cofactor(tt, var, False, n) != tt_cofactor(tt, var, True, n)


def tt_support(tt: int, n: int) -> list[int]:
    """Indices of variables in the functional support."""
    return [v for v in range(n) if tt_depends_on(tt, v, n)]


@lru_cache(maxsize=None)
def _swap_masks(i: int, j: int, n: int) -> tuple[int, int, int]:
    """``(move, shift, keep)`` for exchanging variables ``i < j``:
    minterms with ``x_i = 1, x_j = 0`` (``move``) trade places with
    their partners ``shift`` bits up; ``keep`` covers the rest."""
    move = tt_var(i, n) & ~tt_var(j, n)
    shift = (1 << j) - (1 << i)
    return move, shift, tt_mask(n) & ~(move | (move << shift))


def _swap(tt: int, i: int, j: int, n: int) -> int:
    """Exchange input variables ``i < j``."""
    move, shift, keep = _swap_masks(i, j, n)
    return (tt & keep) | ((tt & move) << shift) | ((tt >> shift) & move)


@lru_cache(maxsize=None)
def _permutation_swaps(perm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Variable exchanges ``(i, j)``, ``i < j``, that realize ``perm``
    in the sense of :func:`tt_permute` (selection order)."""
    current = list(range(len(perm)))
    swaps = []
    for position, wanted in enumerate(perm):
        source = current.index(wanted)
        if source != position:
            swaps.append((position, source))
            current[position], current[source] = current[source], current[position]
    return tuple(swaps)


def tt_permute(tt: int, perm: tuple[int, ...], n: int) -> int:
    """Permute inputs: new input ``i`` is old input ``perm[i]``."""
    tt &= tt_mask(n)
    for i, j in _permutation_swaps(tuple(perm)):
        tt = _swap(tt, i, j, n)
    return tt


def tt_flip_input(tt: int, var: int, n: int) -> int:
    """Complement one input variable."""
    shift = 1 << var
    low = tt_mask(n) & ~tt_var(var, n)
    return ((tt >> shift) & low) | ((tt & low) << shift)


def tt_expand(tt: int, positions: list[int], n_from: int, n_to: int) -> int:
    """Re-express a table over a larger variable set.

    ``positions[i]`` is the index (among ``n_to`` variables) where old
    variable ``i`` lands; positions must be strictly increasing.  The
    table is first padded with ``n_to - n_from`` don't-care variables,
    then each old variable, highest first, trades places with the
    don't-care variable sitting at its target position.
    """
    if (
        len(positions) != n_from
        or any(b <= a for a, b in zip(positions, positions[1:]))
        or (positions and not 0 <= positions[0] <= positions[-1] < n_to)
    ):
        raise ValueError(
            f"positions {list(positions)} must be {n_from} strictly increasing "
            f"indices below {n_to}"
        )
    tt &= tt_mask(n_from)
    for var in range(n_from, n_to):
        tt |= tt << (1 << var)
    for var in range(n_from - 1, -1, -1):
        if positions[var] != var:
            tt = _swap(tt, var, positions[var], n_to)
    return tt


def tt_from_bits(bits: list[bool]) -> int:
    """Pack an explicit output column."""
    table = 0
    for i, bit in enumerate(bits):
        if bit:
            table |= 1 << i
    return table


def tt_count_ones(tt: int) -> int:
    """Number of minterms."""
    return bin(tt).count("1")


# ----------------------------------------------------------------------
# NPN canonicalization
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _permutation_plans(n: int) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """Every permutation of ``n`` inputs in :func:`itertools.permutations`
    order, each with the swap masks that apply it."""
    return tuple(
        (perm, tuple(_swap_masks(i, j, n) for i, j in _permutation_swaps(perm)))
        for perm in permutations(range(n))
    )


@lru_cache(maxsize=100_000)
def npn_canon(tt: int, n: int) -> tuple[int, tuple[int, ...], int, bool]:
    """NPN-canonical form by exhaustive search (practical for n <= 4).

    Returns ``(canonical_tt, perm, input_neg_mask, output_neg)`` such
    that applying the transform to ``tt`` yields ``canonical_tt``:

        canon = maybe_not( permute( flip_inputs(tt, mask), perm ) )

    The canonical representative is the numerically smallest table
    over all input permutations, input complementations, and output
    complementation.  Search order (input negations, then
    permutations, then output negation) and the first-found tie-break
    are part of the contract: callers instantiate structures through
    the returned transform.
    """
    if n > 4:
        raise ValueError("exhaustive NPN canonicalization limited to 4 inputs")
    mask = tt_mask(n)
    tt &= mask
    plans = _permutation_plans(n)
    best = mask + 1
    best_transform = None
    for neg_mask in range(1 << n):
        flipped = tt
        for var in range(n):
            if (neg_mask >> var) & 1:
                flipped = tt_flip_input(flipped, var, n)
        for perm, swaps in plans:
            permuted = flipped
            for move, shift, keep in swaps:
                permuted = (
                    (permuted & keep) | ((permuted & move) << shift) | ((permuted >> shift) & move)
                )
            if permuted < best:
                best, best_transform = permuted, (perm, neg_mask, False)
            if permuted ^ mask < best:
                best, best_transform = permuted ^ mask, (perm, neg_mask, True)
    perm, neg_mask, out_neg = best_transform
    return best, perm, neg_mask, out_neg


def npn_apply(tt: int, perm: tuple[int, ...], neg_mask: int, out_neg: bool, n: int) -> int:
    """Apply an NPN transform (as returned by :func:`npn_canon`)."""
    result = tt
    for var in range(n):
        if (neg_mask >> var) & 1:
            result = tt_flip_input(result, var, n)
    result = tt_permute(result, perm, n)
    if out_neg:
        result = tt_not(result, n)
    return result
