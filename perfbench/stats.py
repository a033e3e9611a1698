"""The benchmark's arithmetic: medians, quartiles, tail percentiles and span
self time. Pure functions over plain lists, tested by tests/test_stats.py."""

import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it; with fewer samples it is lowered until they do.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else float("inf")


def percentile(values, p):
    """Linear-interpolation percentile, p in [0, 1] (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n, p):
    """The percentile actually reported for a requested tail `p` over `n`
    samples: p itself when at least MIN_BEYOND samples lie beyond it, else
    the highest level that keeps MIN_BEYOND beyond (never below the median)."""
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(p, 1.0 - MIN_BEYOND / n))


def tail(values, p):
    """The tail percentile `p` of `values` under the ten-beyond rule."""
    return percentile(values, tail_level(len(values), p))


def windowed(values, count, statistic):
    """Median over `count` equal consecutive chunks of `values` of
    `statistic(chunk)`: a tail taken per window is not dragged by a burst of
    host contention confined to a few windows."""
    count = max(1, min(count, len(values)))
    n = len(values)
    return median([statistic(values[i * n // count:(i + 1) * n // count])
                   for i in range(count)])


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once).

    `spans` is a list of dicts with start_ns, end_ns and parent (an index
    into the same list, or -1). Returns seconds, one per span."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        intervals = sorted(
            (max(lo, spans[c]["start_ns"]), min(hi, spans[c]["end_ns"]))
            for c in children[i])
        covered, cur_lo, cur_hi = 0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo - covered) * 1e-9)
    return out


def per_root(spans, root_name):
    """For each span named `root_name`: its duration, its self time, and the
    summed duration of its direct children by name (all in seconds)."""
    selfs = self_times(spans)
    roots = {}
    for i, s in enumerate(spans):
        if s["name"] == root_name:
            roots[i] = {"duration": (s["end_ns"] - s["start_ns"]) * 1e-9,
                        "self": selfs[i], "children": {}}
    for s in spans:
        r = roots.get(s["parent"])
        if r is not None:
            d = (s["end_ns"] - s["start_ns"]) * 1e-9
            r["children"][s["name"]] = r["children"].get(s["name"], 0.0) + d
    return list(roots.values())


def chrome_trace(spans):
    """Chrome trace-event JSON (loadable by Perfetto): one complete ("X")
    event per span, microseconds, one track per recording thread."""
    events = []
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"], "ph": "X", "pid": 1, "tid": s["thread"],
            "ts": s["start_ns"] / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "args": {"id": i, "parent": s["parent"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
