"""Seeded inputs: one seed always yields the same plan, and plans are comparable."""

import json
from collections import Counter

import pytest

from perfbench.plan import REPEAT_MIN_AGE, WORKLOADS, make_plan, request_of


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = make_plan(workload, 7)
    assert make_plan(workload, 7) == first
    assert json.loads(json.dumps(first)) == first  # stored with results, replayable


def test_seeds_and_workloads_change_inputs():
    assert make_plan("serve", 1) != make_plan("serve", 2)
    assert make_plan("serve", 1)["sweep"] != make_plan("serve-fleet", 1)["sweep"]


def test_unknown_workload():
    with pytest.raises(ValueError):
        make_plan("figures", 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sizes_do_not_depend_on_the_seed(seed):
    plan = make_plan("serve", seed)
    reference = make_plan("serve", 99)
    for key in ("grid", "analytic_grid"):
        assert {k: len(v) for k, v in plan["sweep"][key].items()} == {
            k: len(v) for k, v in reference["sweep"][key].items()
        }
    assert len(plan["figures"]["workloads"]) == 4
    kinds = Counter(entry["kind"] for entry in plan["serve"]["schedule"])
    assert kinds == Counter(entry["kind"] for entry in reference["serve"]["schedule"])


def test_schedule_repeats_and_fresh_requests():
    schedule = make_plan("serve-fleet", 5)["serve"]["schedule"]
    fresh = [json.dumps(e["request"], sort_keys=True) for e in schedule if e["kind"] != "repeat"]
    assert len(fresh) == len(set(fresh))  # fresh requests never dedup by accident
    repeats = [(i, e) for i, e in enumerate(schedule) if e["kind"] == "repeat"]
    assert 0.3 < len(repeats) / len(schedule) < 0.36
    for index, entry in repeats:
        assert entry["of"] <= index - REPEAT_MIN_AGE
        assert schedule[entry["of"]]["kind"] != "repeat"
        assert request_of({"serve": {"schedule": schedule}}, index) == schedule[entry["of"]]["request"]
