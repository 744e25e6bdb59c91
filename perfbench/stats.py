"""Pure helpers that turn perfbench's raw samples and spans into metrics.

Kept apart from run.py so test_stats.py can pin each rule on its own.
"""

import statistics

# Percentiles considered for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, pct):
    """The pct-th percentile of `values` (linear interpolation between
    closest ranks), or None for an empty sample."""
    if not values:
        return None
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it, or None under forty samples (the median alone)."""
    if n < 40:
        return None
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def summarize(values):
    """Median plus the tail figure the sample supports, with the count."""
    out = {"n": len(values), "p50": percentile(values, 50.0)}
    pct = tail_percentile(len(values))
    if pct is not None:
        out["p%g" % pct] = percentile(values, pct)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else None


def _union_length(intervals):
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children (overlapping children counted once).

    `spans` is a list of (name, start, end, parent, request) with parent an
    index into the list or -1. Returns a list aligned with `spans`.
    """
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = [(max(start, spans[c][1]), min(end, spans[c][2]))
                   for c in children.get(i, ())]
        covered = [(a, b) for a, b in covered if b > a]
        out.append((end - start) - _union_length(covered))
    return out


def self_time_ms_by_name(spans):
    """Median self time in milliseconds of each span name (spans carry
    nanoseconds)."""
    by_name = {}
    for s, t in zip(spans, self_times(spans)):
        by_name.setdefault(s[0], []).append(t / 1e6)
    return {name: statistics.median(ts) for name, ts in by_name.items()}


def gemm_bytes(m, n, k, elem_bytes=2):
    """Bytes an M x N x K GEMM moves at minimum, computed from tensor sizes
    (read A and B once, write C once); None if a size is missing."""
    if None in (m, n, k):
        return None
    return (m * k + k * n + m * n) * elem_bytes


def ops_per_byte(flops, nbytes):
    """Arithmetic intensity, or None rather than a guess when either side
    is missing or the byte count is not positive."""
    if flops is None or not nbytes or nbytes <= 0:
        return None
    return flops / nbytes


def gflops(useful_macs, ms):
    """Achieved GFLOP/s over useful MACs, or None when the time failed."""
    if useful_macs is None or ms is None or ms <= 0:
        return None
    return 2.0 * useful_macs / (ms * 1e6)


def ratio(num, den):
    """num / den, or None when either is missing or den is zero."""
    if num is None or den is None or den == 0:
        return None
    return num / den
