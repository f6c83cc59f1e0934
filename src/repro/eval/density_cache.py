"""Disk cache for measured training densities.

Measuring the per-layer operand densities of a model family means training a
reduced model for several epochs — by far the slowest stage of the fig8/fig9
pipeline and of ``python -m repro bench``.  The measurement is a pure
function of (model name, pruning rate, :class:`ExperimentScale`), so repeated
eval/benchmark runs can skip the retraining entirely.

This module reuses the exploration subsystem's append-only JSONL cache
(:class:`repro.explore.cache.ResultCache`): entries are keyed by a stable
content hash of the full measurement description and store the serialized
:class:`~repro.sim.trace.MeasuredDensities`.  The run options choose the
cache (:meth:`repro.api.RunOptions.density_cache`), and the fig8 ``train``
stage reads it through ``ResultCache.get(key, deserialize_measured)``, so a
record that does not deserialize is re-measured.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping

from repro.api.request import scale_to_dict
from repro.dataflow.counts import LayerDensities
from repro.eval.common import ExperimentScale
from repro.explore.cache import DEFAULT_CACHE_DIR, ResultCache, stable_key
from repro.sim.trace import MeasuredDensities

# Lives alongside the sweep cache in the gitignored cache directory.
DEFAULT_DENSITY_CACHE_FILE = "densities.jsonl"

# Bump when the measurement pipeline changes in a way that invalidates old
# cached densities (training loop, profiler, density post-processing).
_SCHEMA_VERSION = 1


def default_density_cache(cache_dir: str | Path = DEFAULT_CACHE_DIR) -> ResultCache:
    """The density cache at its default location inside ``cache_dir``."""
    return ResultCache(Path(cache_dir) / DEFAULT_DENSITY_CACHE_FILE)


def density_cache_key(
    model_name: str, pruning_rate: float, scale: ExperimentScale
) -> str:
    """Stable content hash identifying one density measurement."""
    scale_payload = scale_to_dict(scale)
    return stable_key(
        {
            "kind": "measured-densities",
            "version": _SCHEMA_VERSION,
            "model": model_name,
            "pruning_rate": pruning_rate,
            "scale": scale_payload,
        }
    )


def serialize_measured(measured: MeasuredDensities) -> dict[str, Any]:
    """JSON-serialisable payload for one :class:`MeasuredDensities`."""
    return {
        "layer_names": list(measured.layer_names),
        "densities": {
            name: asdict(measured.densities[name]) for name in measured.layer_names
        },
    }


def deserialize_measured(payload: Mapping[str, Any]) -> MeasuredDensities:
    """Inverse of :func:`serialize_measured`."""
    layer_names = tuple(payload["layer_names"])
    densities = {
        name: LayerDensities(**payload["densities"][name]) for name in layer_names
    }
    return MeasuredDensities(layer_names=layer_names, densities=densities)
