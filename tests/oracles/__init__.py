"""Scalar reference implementations that vectorized code must match.

Each module keeps, verbatim, a loop that production code replaced
with array operations or a cheaper exact walk. The oracle of a
production class is a ``Scalar<Class>`` subclass, which is where
SIM006 looks for it. Twin tests run both and demand bit-identical
results; nothing under ``src/`` imports these
(``tests/test_import_hygiene.py`` checks).

Production traffic is a ``FlowBatch`` only. ``flows.py`` is the one
home of the per-flow form: the ``Flow`` object the oracles iterate
over, with ``to_flows``/``from_flows`` to move between the two.
"""
