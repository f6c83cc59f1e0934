"""The benchmark's own arithmetic: tail percentiles and span self time."""

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    covered,
    layer_self_times,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)


def _beyond(values, value):
    return sum(1 for v in values if v > value)


@pytest.mark.parametrize(
    "count, level",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (150, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_level_with_ten_samples_beyond(count, level):
    values = [float(i) for i in range(1, count + 1)]
    chosen, value = tail_percentile(values)
    assert chosen == level
    assert _beyond(values, value) >= MIN_BEYOND
    higher = [lv for lv in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9) if lv > level]
    for up in higher:
        assert _beyond(values, percentile(values, up)) < MIN_BEYOND


def test_no_tail_below_twenty_samples():
    assert tail_percentile([1.0] * 19) is None
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail_level": None, "tail": None}


def test_summary_reports_sample_count_and_tail():
    values = [float(i) for i in range(100, 0, -1)]  # order does not matter
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert (summary["tail_level"], summary["tail"]) == (90.0, 90.0)


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile(values, 0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(span_id, start, end, parent=None, name="api.x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_nested_children():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, "a"),
        _span("c", 2.0, 3.0, "b"),  # grandchild: counts against b, not a
    ]
    own = self_times(spans)
    assert own == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert sum(own.values()) == 10.0


def test_self_time_overlapping_children_from_parallel_workers():
    spans = [
        _span("imap", 0.0, 10.0),
        _span("w1", 1.0, 6.0, "imap"),
        _span("w2", 2.0, 8.0, "imap"),  # overlaps w1 on another process
    ]
    assert self_times(spans)["imap"] == 3.0  # 10 - |[1, 8]|


def test_self_time_clips_children_outside_parent():
    spans = [_span("p", 0.0, 4.0), _span("late", 3.0, 9.0, "p")]
    assert self_times(spans)["p"] == 3.0


def test_layer_self_times_sum_per_layer():
    spans = [
        _span("cmd", 0.0, 10.0, name="cli.command"),
        _span("sim", 1.0, 5.0, "cmd", name="sim.compare_workload"),
        _span("df", 1.0, 2.0, "sim", name="dataflow.compile"),
        _span("arch", 2.0, 4.0, "sim", name="arch.run_program"),
        _span("io", 6.0, 7.0, "cmd", name="cli.print"),
    ]
    totals = layer_self_times(spans)
    assert totals == {"cli": 6.0, "sim": 1.0, "dataflow": 1.0, "arch": 2.0}
    assert sum(totals.values()) == 10.0
