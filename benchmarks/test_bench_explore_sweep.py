"""Benchmark E-DSE — the design-space exploration engine at survey scale.

Times the 48-point PE x buffer x pruning-rate grid over two workloads (96
evaluations) through the exploration engine, and the same sweep again from a
warm persistent cache.  The printed output is the per-workload Pareto
frontier — the artefact a design-space survey is run for.
"""

from __future__ import annotations

import pytest

from repro.explore.cache import ResultCache
from repro.explore.engine import ExplorationEngine, points_for
from repro.explore.pareto import pareto_by_workload
from repro.explore.report import format_frontier
from repro.explore.space import paper_neighborhood_space

WORKLOADS = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))


@pytest.fixture(scope="module")
def sweep_points():
    return points_for(paper_neighborhood_space(), WORKLOADS)


@pytest.mark.benchmark(group="explore-sweep")
def test_grid_sweep(benchmark, capsys, sweep_points):
    engine = ExplorationEngine(cache=None)
    records = benchmark.pedantic(engine.run, args=(sweep_points,), rounds=1, iterations=1)
    assert len(records) == len(sweep_points)

    frontiers = pareto_by_workload(records)
    with capsys.disabled():
        print()
        for workload in sorted(frontiers):
            print(f"[{workload}]")
            print(format_frontier(frontiers[workload]))
        # Non-trivial frontier: the latency/area trade-off keeps several PE
        # counts alive for each workload.
        for frontier in frontiers.values():
            assert len(frontier) > 1
            assert len({record.num_pes for record in frontier}) > 1


@pytest.mark.benchmark(group="explore-sweep")
def test_cached_sweep(benchmark, capsys, sweep_points, tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    warm = ExplorationEngine(cache=ResultCache(cache_path))
    warm.run(sweep_points)

    def cached_pass():
        engine = ExplorationEngine(cache=ResultCache(cache_path))
        records = engine.run(sweep_points)
        assert engine.stats.evaluated == 0
        assert engine.stats.cache_hits == len(sweep_points)
        return records

    records = benchmark.pedantic(cached_pass, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\n  cached pass: {len(records)} records, 0 simulated")
