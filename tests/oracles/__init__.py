"""Scalar reference implementations that vectorized code must match.

Each module keeps, verbatim, a loop that production code replaced
with array operations. Twin tests run both and demand bit-identical
results; nothing under ``src/`` imports these.
"""
