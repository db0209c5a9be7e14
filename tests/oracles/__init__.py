"""Reference implementations kept as test oracles.

These are the straightforward (per-minterm, set-based) versions of
kernels whose fast implementations live in ``src/``.  They are slow on
purpose: each is written to be obviously correct, and the differential
tests check the fast kernels against them bit for bit.
"""
