"""Per-minterm truth-table kernels and exhaustive NPN search.

Oracles for :mod:`repro.synth.truth`: every function loops over the
minterms of the table one bit at a time.
"""

from __future__ import annotations

from itertools import permutations


def tt_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def tt_permute(tt: int, perm: tuple[int, ...], n: int) -> int:
    """Permute inputs: new input ``i`` is old input ``perm[i]``."""
    result = 0
    for i in range(1 << n):
        j = 0
        for new_pos in range(n):
            if (i >> new_pos) & 1:
                j |= 1 << perm[new_pos]
        if (tt >> j) & 1:
            result |= 1 << i
    return result


def tt_flip_input(tt: int, var: int, n: int) -> int:
    """Complement one input variable."""
    result = 0
    bit = 1 << var
    for i in range(1 << n):
        if (tt >> (i ^ bit)) & 1:
            result |= 1 << i
    return result


def tt_expand(tt: int, positions: list[int], n_from: int, n_to: int) -> int:
    """Re-express a table over a larger variable set: old variable
    ``i`` lands at ``positions[i]`` among ``n_to`` variables."""
    result = 0
    for i in range(1 << n_to):
        j = 0
        for old_var, pos in enumerate(positions):
            if (i >> pos) & 1:
                j |= 1 << old_var
        if (tt >> j) & 1:
            result |= 1 << i
    return result


def npn_canon(tt: int, n: int) -> tuple[int, tuple[int, ...], int, bool]:
    """Exhaustive NPN canonicalization (n <= 4): the numerically
    smallest table over all input negations (outer loop), input
    permutations and output negations; the first transform reaching it
    wins."""
    if n > 4:
        raise ValueError("exhaustive NPN canonicalization limited to 4 inputs")
    mask = tt_mask(n)
    tt &= mask
    best = None
    best_transform = None
    for neg_mask in range(1 << n):
        flipped = tt
        for var in range(n):
            if (neg_mask >> var) & 1:
                flipped = tt_flip_input(flipped, var, n)
        for perm in permutations(range(n)):
            permuted = tt_permute(flipped, perm, n)
            for out_neg in (False, True):
                candidate = permuted ^ (mask if out_neg else 0)
                if best is None or candidate < best:
                    best = candidate
                    best_transform = (perm, neg_mask, out_neg)
    perm, neg_mask, out_neg = best_transform
    return best, perm, neg_mask, out_neg


def np_configurations(table: int, arity: int) -> list[tuple[int, tuple[int, ...], int, bool]]:
    """Every NP configuration of a cell function, in the match-table
    build order: ``(realized table, leaf_of_pin, pin_neg_mask,
    output_neg)``.  Cell pin ``i`` sees leaf ``perm[i]``, inverted when
    bit ``i`` of the mask is set."""
    out = []
    for perm in permutations(range(arity)):
        for neg_mask in range(1 << arity):
            realized = 0
            for assignment in range(1 << arity):
                pin_values = 0
                for pin in range(arity):
                    bit = (assignment >> perm[pin]) & 1
                    if (neg_mask >> pin) & 1:
                        bit ^= 1
                    pin_values |= bit << pin
                if (table >> pin_values) & 1:
                    realized |= 1 << assignment
            for output_neg in (False, True):
                final = realized ^ (tt_mask(arity) if output_neg else 0)
                out.append((final, perm, neg_mask, output_neg))
    return out
