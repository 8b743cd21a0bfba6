"""Order statistics, run-to-run spread and the regression verdict.

Everything here works on plain lists of floats so the same helpers serve
one run (latencies of its operations) and a set of runs (one metric's
value in each).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles tried by :func:`highest_supported_percentile`, ascending.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is *supported* when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default, without needing an array.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Consecutive blocks a measured phase's latencies are cut into, and the
#: fewest samples a block may hold.
BLOCKS = 5
MIN_BLOCK = 60


def block_percentile(values: Sequence[float], q: float) -> float:
    """The median, over consecutive equal blocks of ``values`` (in the order
    the operations were issued), of each block's ``q``-th percentile.

    A burst of interference slows the operations of one stretch of a run;
    a pooled percentile absorbs it, the median of block percentiles does
    not unless it hits most blocks.  With fewer than two blocks' worth of
    samples this is the plain percentile.
    """
    blocks = min(BLOCKS, len(values) // MIN_BLOCK)
    if blocks < 2:
        return percentile(values, q)
    size = len(values) // blocks
    cuts = [values[i * size : (i + 1) * size] for i in range(blocks - 1)]
    cuts.append(values[(blocks - 1) * size :])
    return statistics.median(percentile(cut, q) for cut in cuts)


def highest_supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 of ``count`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    supported = None
    for q in PERCENTILE_LADDER:
        if round(count * (100.0 - q) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            supported = q
    return supported


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, q2, q3)`` exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: the interquartile distance as a share of the median.

    0.0 for fewer than two values (nothing to spread) or a zero median.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quartiles(values)
    centre = statistics.median(values)
    if centre == 0:
        return 0.0
    return abs(q3 - q1) / abs(centre)


def worsening(parent: float, change: float, better: str) -> float:
    """How much ``change`` is worse than ``parent``, as a share of ``parent``.

    Negative when the change reads better.  ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        return 0.0 if change == 0 else math.inf
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> dict:
    """Compare one metric on one workload between two sets of runs.

    ``no worse``: the change's median is within ``bound`` of the parent's,
    or every run of the change reads better than every run of the parent.
    ``unresolved``: either side's own spread is wider than ``bound``, so
    the comparison cannot tell.  ``worse`` otherwise.
    """
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    noise = max(spread(parent), spread(change))
    loss = worsening(parent_median, change_median, better)
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if dominates:
        label = "no worse"
    elif noise > bound:
        label = "unresolved"
    else:
        label = "worse" if loss > bound else "no worse"
    return {
        "verdict": label,
        "parent_median": parent_median,
        "change_median": change_median,
        "worsening": loss,
        "spread": noise,
        "bound": bound,
        "runs": (len(parent), len(change)),
    }


def paired_verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> dict:
    """:func:`verdict` for a metric that repeats exactly when its seed does.

    ``parent[i]`` and ``change[i]`` are the same seed's runs.  What is
    judged is the median of each seed's own worsening, and the spread is
    the interquartile distance of those worsenings (already shares of the
    parent), so how much the metric moves from one seed's inputs to the
    next does not blur the comparison.
    """
    if len(parent) != len(change):
        raise ValueError("paired runs must line up seed by seed")
    losses = [worsening(p, c, better) for p, c in zip(parent, change)]
    loss = statistics.median(losses)
    if len(losses) < 2:
        noise = 0.0
    else:
        q1, _, q3 = quartiles(losses)
        noise = q3 - q1
    if all(value < 0 for value in losses):
        label = "no worse"
    elif noise > bound:
        label = "unresolved"
    else:
        label = "worse" if loss > bound else "no worse"
    return {
        "verdict": label,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "worsening": loss,
        "spread": noise,
        "bound": bound,
        "runs": (len(parent), len(change)),
    }
