"""Order statistics the benchmark reports."""

import statistics

TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(q: float, n: int) -> int:
    """ceil(q n / 100), at least 1, exact for q given to a tenth of a percent."""
    return max(1, -(-round(q * 10) * n // 1000))


def nearest_rank(values, q: float):
    """The q-th percentile by the nearest-rank rule: the smallest sample with at
    least q percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(n: int):
    """The highest candidate percentile that leaves at least ten samples beyond
    it in a sample of n, or None when even the median does not."""
    for q in TAIL_CANDIDATES:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return None
