"""Shared helpers for the paper-figure modules.

Every ``bench_*`` module regenerates one table, figure or ablation of
the paper, prints the regenerated rows next to the paper's reported
values, and asserts them, so ``pytest benchmarks -s`` doubles as the
reproduction report. Tier-1 collects these modules with ``tests/``.
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print one experiment's regenerated output with a banner."""
    bar = "=" * max(8, len(title))
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
