"""Small statistics helpers used by the studies and benches."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri


def pearson(x, y) -> float:
    """Pearson product-moment correlation coefficient.

    The paper uses this to relate slowdown to LLC miss rate (Fig. 7:
    0.89 Parsec-large, 0.76 Rodinia; Fig. 10: 0.87/0.79 for GPUs).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-D arrays")
    if x.size < 2:
        raise ValueError("pearson needs at least two points")
    sx = x.std()
    sy = y.std()
    if sx == 0 or sy == 0:
        raise ValueError("pearson undefined for constant input")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def summarize(values) -> dict[str, float]:
    """Mean/max/min/std summary of a sequence."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize empty input")
    return {
        "n": float(arr.size),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
        "min": float(arr.min()),
        "std": float(arr.std()),
    }


def quantiles(values, qs=(0.5, 0.75, 0.95, 0.99)) -> dict[float, float]:
    """Selected quantiles of a sequence."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take quantiles of empty input")
    return {float(q): float(np.quantile(arr, q)) for q in qs}


def mean_ci(values, confidence: float = 0.95) -> dict[str, float]:
    """Mean with a normal-approximation confidence interval.

    The half-width is ``z * s / sqrt(n)`` with the sample standard
    deviation (``ddof=1``); a single observation yields a zero-width
    interval. This is the cross-seed summary the multi-repeat sweeps
    and scenario runs report.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize empty input")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    n = int(arr.size)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    z = float(ndtri(0.5 + confidence / 2.0))
    half = z * std / math.sqrt(n)
    return {
        "n": float(n),
        "mean": mean,
        "std": std,
        "ci_low": mean - half,
        "ci_high": mean + half,
        "half_width": half,
    }
