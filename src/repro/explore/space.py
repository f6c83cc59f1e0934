"""Declarative parameter spaces over architecture and pruning knobs.

A design space is a set of named axes; every axis sweeps either an
:class:`~repro.arch.config.ArchConfig` field (``num_pes``, ``buffer_kib``,
``pe_utilization``, ...) or one of the sweep-level knobs the evaluation engine
understands (currently ``pruning_rate``).  Axes can be explicit grids,
log-spaced ranges or seeded random samples; the space enumerates their
Cartesian product as plain ``{axis name: value}`` assignments, which
:class:`~repro.explore.engine.DesignPoint` turns into simulator inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Any, Iterator, Sequence

from repro.arch.config import ArchConfig
from repro.utils.rng import new_rng

# ArchConfig fields an axis may sweep.  Overrides apply to the SparseTrain
# and the dense-baseline config alike (matched resources), so the fields that
# say which machine a config is — its name and ``sparse_dataflow`` — are not
# axes.
ARCH_AXES = frozenset(f.name for f in fields(ArchConfig)) - {"name", "sparse_dataflow"}

# Sweep-level knobs handled by the engine rather than the config.
SPECIAL_AXES = frozenset({"pruning_rate"})

VALID_AXES = ARCH_AXES | SPECIAL_AXES


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension with an explicit, ordered value tuple."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.name not in VALID_AXES:
            raise ValueError(
                f"unknown axis {self.name!r}; valid axes: {sorted(VALID_AXES)}"
            )
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")


def grid_axis(name: str, values: Sequence[Any]) -> Axis:
    """Axis over an explicit list of values."""
    return Axis(name, tuple(values))


def log_axis(
    name: str,
    low: float,
    high: float,
    num: int,
    integer: bool = False,
    multiple_of: int = 1,
) -> Axis:
    """Axis of ``num`` log-spaced values in ``[low, high]``.

    ``integer`` rounds every value (deduplicating afterwards);
    ``multiple_of`` additionally snaps to a multiple — e.g. PE counts must be
    a multiple of ``pes_per_group``.
    """
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    if low <= 0 or high <= 0:
        raise ValueError("log_axis bounds must be positive")
    if low > high:
        raise ValueError(f"low ({low}) must be <= high ({high})")
    if num == 1:
        raw = [math.sqrt(low * high)]
    else:
        step = (math.log(high) - math.log(low)) / (num - 1)
        raw = [math.exp(math.log(low) + i * step) for i in range(num)]
    return Axis(name, _snap(raw, integer, multiple_of))


def random_axis(
    name: str,
    low: float,
    high: float,
    num: int,
    seed: int = 0,
    integer: bool = False,
    multiple_of: int = 1,
) -> Axis:
    """Axis of ``num`` seeded uniform random values in ``[low, high]``."""
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    if low > high:
        raise ValueError(f"low ({low}) must be <= high ({high})")
    rng = new_rng(seed)
    raw = sorted(float(v) for v in rng.uniform(low, high, size=num))
    return Axis(name, _snap(raw, integer, multiple_of))


def _snap(raw: Sequence[float], integer: bool, multiple_of: int) -> tuple[Any, ...]:
    if not integer and multiple_of == 1:
        return tuple(raw)
    values: list[Any] = []
    for value in raw:
        snapped = max(multiple_of, round(value / multiple_of) * multiple_of)
        values.append(int(snapped) if integer or multiple_of > 1 else snapped)
    # Rounding can collapse neighbours; keep first occurrences in order.
    return tuple(dict.fromkeys(values))


@dataclass(frozen=True)
class DesignSpace:
    """Cartesian product of axes, enumerated as assignment dicts."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")

    @property
    def size(self) -> int:
        """Number of points in the full grid."""
        result = 1
        for axis in self.axes:
            result *= len(axis.values)
        return result

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"no axis named {name!r}")

    def points(self) -> Iterator[dict[str, Any]]:
        """Enumerate the full grid in deterministic (row-major) order."""
        names = [axis.name for axis in self.axes]
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            yield dict(zip(names, combo))

    def sample(self, num: int, seed: int = 0) -> list[dict[str, Any]]:
        """Seeded random subset of the grid (without replacement)."""
        if num < 0:
            raise ValueError(f"num must be non-negative, got {num}")
        all_points = list(self.points())
        if num >= len(all_points):
            return all_points
        rng = new_rng(seed)
        indices = sorted(rng.choice(len(all_points), size=num, replace=False))
        return [all_points[int(i)] for i in indices]


def paper_neighborhood_space(
    pe_counts: Sequence[int] = (84, 168, 336, 672),
    buffer_kibs: Sequence[int] = (192, 386, 772),
    pruning_rates: Sequence[float] = (0.5, 0.7, 0.9, 0.95),
) -> DesignSpace:
    """The default 48-point grid around the paper's design point.

    Sweeps the PE array (0.5x-4x of the paper's 168), the global buffer
    (0.5x-2x of 386 KB) and the target pruning rate — the three knobs the
    paper's own evaluation varies one at a time.
    """
    return DesignSpace(
        axes=(
            grid_axis("num_pes", pe_counts),
            grid_axis("buffer_kib", buffer_kibs),
            grid_axis("pruning_rate", pruning_rates),
        )
    )
