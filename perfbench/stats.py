"""Order statistics used by the report."""

TAIL_BEYOND = 10


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile that has ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``: the order statistic with
    exactly ``beyond`` samples ranked above it, its percentile rank
    100 * (N - beyond) / N, and N.  With N <= beyond no percentile has
    that many samples beyond it, and the maximum is returned at 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n
