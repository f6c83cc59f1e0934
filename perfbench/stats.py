"""Order statistics and span arithmetic behind every number the benchmark prints.

Pure standard library, so the unit tests run without the program installed.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer make the value one or two outliers.
MIN_BEYOND = 10

#: Percentile levels tried from the top when choosing the reported tail.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(level: float, count: int) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    return max(1, math.ceil(round(level / 100.0 * count, 9)))


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``level``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(level, len(ordered)) - 1]


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(level, value)`` of the highest tail level with ``MIN_BEYOND`` samples above.

    With ``n`` samples the nearest-rank percentile at ``level`` is the sample
    of rank ``ceil(level/100 * n)``, which leaves ``n - rank`` samples beyond
    it.  Returns ``None`` when not even the median qualifies (``n < 20``).
    """
    count = len(values)
    for level in TAIL_LEVELS:
        if count - _rank(level, count) >= MIN_BEYOND:
            return level, percentile(values, level)
    return None


def summarize(values: Sequence[float]) -> dict[str, float | int | None]:
    """Median, the qualifying tail percentile and the sample count of a timing."""
    tail = tail_percentile(values)
    return {
        "n": len(values),
        "p50": statistics.median(values) if values else None,
        "tail_level": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Children recorded in parallel worker processes overlap each other; the
    union counts each instant of the parent once.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_of(name: str) -> str:
    """A span's layer: the module name its span name starts with."""
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and ``end``.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def layer_self_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Self time summed per layer (see :func:`layer_of`)."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals
