#!/usr/bin/env python3
"""Design-space exploration: sweep the architecture grid, extract the frontier.

Evaluates a PE-count x buffer-size x pruning-rate grid (the paper's design
point sits in the middle of it) over two workloads through the cached
exploration engine, then prints the per-workload latency/energy/area
Pareto frontiers and the best point under each single objective.

Run with:  python examples/design_space_exploration.py
           python examples/design_space_exploration.py --sample 24   (random subset)
           python examples/design_space_exploration.py --no-cache    (force re-evaluation)

A second run is near-instant: results are cached in .repro-cache/.
The same sweep is available as `python -m repro sweep` / `python -m repro pareto`.
"""

from __future__ import annotations

import argparse
import time

from repro.explore import (
    ExplorationEngine,
    ResultCache,
    best_point,
    format_frontier,
    paper_neighborhood_space,
    pareto_by_workload,
    points_for,
)

WORKLOADS = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sample", type=int, default=None,
                        help="evaluate a seeded random subset of the grid")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent result cache")
    args = parser.parse_args()

    space = paper_neighborhood_space()
    points = points_for(space, WORKLOADS, sample=args.sample)
    print(f"design space: {space.size} points x {len(WORKLOADS)} workloads "
          f"-> {len(points)} evaluations\n")

    cache = None if args.no_cache else ResultCache()
    engine = ExplorationEngine(cache=cache)
    start = time.perf_counter()
    records = engine.run(points)
    elapsed = time.perf_counter() - start
    print(f"{engine.stats.describe()} in {elapsed:.2f}s\n")

    for workload, frontier in sorted(pareto_by_workload(records).items()):
        group = [r for r in records if r.workload == workload]
        print(f"[{workload}]")
        print(format_frontier(frontier))
        fastest = best_point(group, "latency_us")
        frugal = best_point(group, "energy_uj")
        print(f"  fastest: {fastest.num_pes} PEs / {fastest.buffer_kib} KiB "
              f"@ p={fastest.pruning_rate:.2f} ({fastest.latency_us:.1f} us)")
        print(f"  lowest energy: {frugal.num_pes} PEs / {frugal.buffer_kib} KiB "
              f"@ p={frugal.pruning_rate:.2f} ({frugal.energy_uj:.1f} uJ)\n")


if __name__ == "__main__":
    main()
