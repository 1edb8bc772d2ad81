"""Scalar reference implementations that vectorized code must match.

Each module keeps, verbatim, a loop that production code replaced
with array operations or a cheaper exact walk. Twin tests run both
and demand bit-identical results; nothing under ``src/`` imports
these.
"""
