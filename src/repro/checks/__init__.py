"""``repro.checks`` — AST-based invariant linting for the simulator.

The repo's load-bearing invariants (complete JSON-stable
``snapshot()``/``restore()`` pairs, seeded-generator-only randomness,
full protocol conformance for fabric backends, lock discipline and
vectorized-twin conformance) are enforced statically by the rules
in :mod:`repro.checks.rules`, run over the source tree by
:func:`repro.checks.engine.run_checks`, and exposed on the command
line as ``repro check``, which fails on any finding or parse error.
:mod:`repro.checks.runtime` is the lock sanitizer the service imports.

This package module imports nothing, so importing the sanitizer loads
none of the linter.
"""
