"""Order statistics shared by the benchmark, its spread study and its tests."""

from __future__ import annotations

import statistics

# A tail percentile must leave at least TAIL_BEYOND samples beyond it, and
# is taken only from MIN_SAMPLES samples or more, so that it is not simply
# the maximum.
TAIL_BEYOND = 10
MIN_SAMPLES = 40


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least TAIL_BEYOND of n samples beyond it.

    With the nearest-rank rule the p-th percentile is the sample of rank
    ceil(p n / 100); the samples beyond it number n - ceil(p n / 100), which
    is at least TAIL_BEYOND exactly when p <= 100 (n - TAIL_BEYOND) / n.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a tail, got {n}")
    return (100 * (n - TAIL_BEYOND)) // n


def tail_value(samples) -> tuple[int, float]:
    """(percentile, value) of the tail percentile of ``samples`` by nearest rank."""
    xs = sorted(samples)
    p = tail_percentile(len(xs))
    rank = -(-p * len(xs) // 100)  # ceil(p n / 100), 1-based
    return p, xs[rank - 1]


def blocked_tail(passes, passes_per_block: int) -> tuple[int, float]:
    """(percentile, value): the tail of each whole block of passes, median over blocks.

    ``passes`` holds each pass's operation times.  The tail is taken over the
    samples of ``passes_per_block`` consecutive passes, a number fixed per
    workload, so it is the same order statistic of the same operation list
    however many passes a run makes.  Passes after the last whole block are
    left out.
    """
    blocks = [
        [x for p in passes[i : i + passes_per_block] for x in p]
        for i in range(0, len(passes) - passes_per_block + 1, passes_per_block)
    ]
    if not blocks:
        raise ValueError(f"need at least {passes_per_block} passes, got {len(passes)}")
    tails = [tail_value(b) for b in blocks]
    return tails[0][0], statistics.median(v for _, v in tails)


def spread(values) -> dict:
    """Median, quartiles and interquartile distance as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "iqr_share": (q3 - q1) / median}
