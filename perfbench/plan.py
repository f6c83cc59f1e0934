"""Seeded inputs of one benchmark run.

``make_plan(workload, seed)`` returns a JSON-native description of every
command flag and every service request a run passes to the program.  The
program sees only these generated inputs; the seed never reaches it.  The
plan is stored with the run's results, and ``run.py --replay`` runs a stored
plan again.

The sizes are fixed and only the values vary with the seed, so that two
seeds cost about the same: every seed trains the same four reduced models,
sweeps the same number of points over the same network depths, and sends
the same mix of request kinds.
"""

from __future__ import annotations

import random
from typing import Any

WORKLOADS = ("serve", "serve-fleet")

# Layer counts do not depend on the dataset, so a seed varies datasets and
# keeps one model per family: simulation cost per point is then the same for
# every seed, and only the host's noise moves the timings.
DATASETS = ("CIFAR-10", "CIFAR-100", "ImageNet")

# --- figures phase --------------------------------------------------------
# One (model, dataset) pair per model family, on each family's reference
# model (the one fig8 trains), so every seed trains the same four models.
FIGURE_MODELS = ("AlexNet", "ResNet-18", "VGG-16", "MobileNetV1")
FIGURE_RATES = (0.7, 0.8, 0.9, 0.95)
WARM_FIGURE_COMMANDS = ("fig8", "fig9") * 2

# --- sweep phase ----------------------------------------------------------
# Three shallower networks plus a deep ImageNet network, which makes every
# simulated program long (it is ~70% of the simulation).
SWEEP_MODELS = ("AlexNet", "VGG-16", "MobileNetV1")
SWEEP_DEEP = ("ResNet-152", "ImageNet")
SWEEP_PE_CHOICES = tuple(range(48, 1025, 12))  # multiples of 3 PEs per group
SWEEP_BUFFER_CHOICES = tuple(range(96, 1025, 32))
SWEEP_RATE_CHOICES = tuple(round(0.40 + 0.01 * step, 2) for step in range(58))
SWEEP_SHAPE = (8, 3, 4)  # PE counts x buffers x rates: 384 points
ANALYTIC_SHAPE = (20, 25, 25)  # 50,000 points

# --- serve phase ----------------------------------------------------------
SERVE_GRID_WORKLOADS = (
    ("AlexNet", "CIFAR-10"),
    ("VGG-11", "CIFAR-10"),
    ("MobileNetV1", "CIFAR-10"),
    ("ResNet-18", "CIFAR-10"),
)
SERVE_GRID_PES = (84, 168, 336, 672)
SERVE_GRID_BUFFERS = (192, 386, 772)
SERVE_GRID_RATES = (0.5, 0.7, 0.9, 0.95)
# fig8/fig9 --smoke requests use the quick workload subset (AlexNet and
# ResNet families), whose smoke-scale densities set-up trains beforehand.
SERVE_FIG_WORKLOADS = (
    ("AlexNet", "CIFAR-10"),
    ("AlexNet", "ImageNet"),
    ("ResNet-18", "CIFAR-10"),
    ("ResNet-18", "ImageNet"),
    ("ResNet-34", "CIFAR-10"),
)
SERVE_FIG_RATES = (0.8, 0.85, 0.9, 0.95)
HEAVY_WORKLOAD = ("ResNet-152", "ImageNet")
HEAVY_RATES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
# Kinds of one block of six requests; the order inside a block is seeded.
# A third are exact repeats (dedup attaches), so the median job is one that
# executes; one block in eight swaps a cheap sweep for a ~1 s heavy one.
BLOCK = ("repeat", "repeat", "sweep", "sweep", "sweep", "fig")
HEAVY_EVERY_BLOCKS = 8
REPEAT_MIN_AGE = 4  # a repeat names a request at least this many entries back
SCHEDULE_LENGTH = 400
THINK_MAX_S = 0.2


def _pick_pairs(rng: random.Random, models) -> list[list[str]]:
    return [[model, rng.choice(DATASETS)] for model in models]


def _sorted_sample(rng: random.Random, choices, count: int) -> list:
    return sorted(rng.sample(list(choices), count))


def _figures(rng: random.Random) -> dict[str, Any]:
    return {
        "workloads": _pick_pairs(rng, FIGURE_MODELS),
        "pruning_rate": rng.choice(FIGURE_RATES),
        "warm": list(WARM_FIGURE_COMMANDS),
    }


def _grid(rng: random.Random, shape: tuple[int, int, int]) -> dict[str, list]:
    pes, buffers, rates = shape
    return {
        "pes": _sorted_sample(rng, SWEEP_PE_CHOICES, pes),
        "buffers": _sorted_sample(rng, SWEEP_BUFFER_CHOICES, buffers),
        "pruning_rates": _sorted_sample(rng, SWEEP_RATE_CHOICES, rates),
    }


def _sweep(rng: random.Random) -> dict[str, Any]:
    return {
        "workloads": _pick_pairs(rng, SWEEP_MODELS) + [list(SWEEP_DEEP)],
        "grid": _grid(rng, SWEEP_SHAPE),
        "analytic_grid": _grid(rng, ANALYTIC_SHAPE),
    }


def _sweep_request(workload, pes, buffers, rates) -> dict[str, Any]:
    return {
        "experiment": "sweep",
        "workloads": [list(workload)],
        "params": {
            "pes": list(pes),
            "buffers": list(buffers),
            "pruning_rates": list(rates),
            "sample": None,
            "seed": 0,
        },
    }


class _RequestMaker:
    """Distinct fresh requests of each kind, drawn from the seeded stream."""

    def __init__(self, rng: random.Random, fig_rates: list[float]) -> None:
        self.rng = rng
        self.fig_rates = fig_rates
        self.seen: set[str] = set()

    def _fresh(self, build) -> dict[str, Any]:
        for _ in range(1000):
            request = build()
            key = repr(request)
            if key not in self.seen:
                self.seen.add(key)
                return request
        raise RuntimeError("request space exhausted")

    def sweep(self) -> dict[str, Any]:
        rng = self.rng
        return self._fresh(
            lambda: _sweep_request(
                rng.choice(SERVE_GRID_WORKLOADS),
                _sorted_sample(rng, SERVE_GRID_PES, rng.randint(1, 2)),
                [rng.choice(SERVE_GRID_BUFFERS)],
                _sorted_sample(rng, SERVE_GRID_RATES, rng.randint(1, 2)),
            )
        )

    def fig(self) -> dict[str, Any]:
        rng = self.rng
        return self._fresh(
            lambda: {
                "experiment": rng.choice(("fig8", "fig9")),
                "workloads": [
                    list(pair)
                    for pair in sorted(rng.sample(SERVE_FIG_WORKLOADS, rng.randint(2, 3)))
                ],
                "pruning_rate": rng.choice(self.fig_rates),
                "scale": "smoke",
            }
        )

    def heavy(self) -> dict[str, Any]:
        rng = self.rng
        return self._fresh(
            lambda: _sweep_request(
                HEAVY_WORKLOAD,
                SERVE_GRID_PES,
                SERVE_GRID_BUFFERS,
                _sorted_sample(rng, HEAVY_RATES, 3),
            )
        )


def _serve(rng: random.Random) -> dict[str, Any]:
    fig_rates = _sorted_sample(rng, SERVE_FIG_RATES, 2)
    maker = _RequestMaker(rng, fig_rates)
    schedule: list[dict[str, Any]] = []
    fresh_indices: list[int] = []
    block_index = 0
    while len(schedule) < SCHEDULE_LENGTH:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        if block_index == 0:  # nothing to repeat yet
            kinds = ["sweep" if kind == "repeat" else kind for kind in kinds]
        if block_index % HEAVY_EVERY_BLOCKS == HEAVY_EVERY_BLOCKS - 1:
            kinds[kinds.index("sweep")] = "heavy"
        for kind in kinds:
            index = len(schedule)
            think = round(rng.uniform(0.0, THINK_MAX_S), 3)
            if kind == "repeat":
                old = [i for i in fresh_indices if i <= index - REPEAT_MIN_AGE]
                schedule.append({"kind": "repeat", "of": rng.choice(old), "think_s": think})
                continue
            request = getattr(maker, kind)()
            schedule.append({"kind": kind, "request": request, "think_s": think})
            fresh_indices.append(index)
        block_index += 1
    return {"fig_rates": fig_rates, "schedule": schedule}


def make_plan(workload: str, seed: int) -> dict[str, Any]:
    """Every input of one run of ``workload``, generated from ``seed`` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {
        "workload": workload,
        "seed": seed,
        "figures": _figures(rng),
        "sweep": _sweep(rng),
        "serve": _serve(rng),
    }


def request_of(plan: dict[str, Any], index: int) -> dict[str, Any]:
    """The request a schedule entry sends (a repeat resolves to its original)."""
    entry = plan["serve"]["schedule"][index]
    if entry["kind"] == "repeat":
        entry = plan["serve"]["schedule"][entry["of"]]
    return entry["request"]
