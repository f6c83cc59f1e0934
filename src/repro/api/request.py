"""Typed experiment requests and results — the serializable API boundary.

An :class:`ExperimentRequest` is the complete, immutable description of *what*
to compute: which registered experiment, over which workloads, at which
pruning rate and :class:`~repro.eval.common.ExperimentScale`, with which
experiment-specific parameters.  It is JSON round-trippable
(``to_dict``/``from_dict``/``to_json``/``from_json``) and content-hashable
(:attr:`ExperimentRequest.content_hash`), so a request can be logged, shipped
to a service, compared across machines, or used as a cache key.

*How* to execute is deliberately kept out of the request:
:class:`RunOptions` carries the execution knobs (cache directory, cache
enablement) that must not change the result — and therefore must not change
the content hash.

An :class:`ExperimentResult` is the JSON-serializable outcome: the request
that produced it, a payload dict of the experiment's numbers, a formatted
summary, and per-stage timings/cache hits from the pipeline run.  Library
callers additionally get the harness-native result object (``Fig8Result``,
``Table2Result``, ...) via the non-serialized ``native`` field.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

# Import-light by design (stdlib-only module): the fidelity knob is part of
# the request schema, so the enum lives in a leaf module both layers can use.
from repro.analytic.fidelity import DEFAULT_FIDELITY, Fidelity

# Default cache location; kept textually in sync with
# ``repro.explore.cache.DEFAULT_CACHE_DIR`` (asserted by the API test suite)
# so the API layer stays import-free at module load.
DEFAULT_CACHE_DIR = ".repro-cache"


def _warn_worker_knob(form: str, stacklevel: int) -> None:
    """Warn that ``form`` (a worker-count knob) is deprecated.

    ``stacklevel`` counts from the caller of this helper, as in
    :func:`warnings.warn`.
    """
    warnings.warn(
        f"{form} is deprecated and will be removed in the next major release "
        "(2.0); experiments run in process, so run jobs in parallel with "
        "`repro serve --fleet N`",
        DeprecationWarning,
        stacklevel=stacklevel + 1,
    )


def canonical_json(payload: Any) -> str:
    """Canonical (sorted-key, compact) JSON text for hashing and storage."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: Any) -> str:
    """Deterministic sha256 content hash of a JSON-serialisable value."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _jsonify(value: Any) -> Any:
    """Normalise a parameter value to its JSON-native form.

    Tuples become lists, mappings become plain dicts (keys must be strings),
    and anything JSON cannot represent is rejected up front — a request that
    cannot round-trip must fail at construction, not at serialization time.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"parameter mapping keys must be strings, got {key!r}")
            out[key] = _jsonify(item)
        return out
    raise TypeError(
        f"parameter value {value!r} is not JSON-serialisable; requests must "
        "round-trip through JSON (pass non-serialisable objects as run() "
        "extras instead)"
    )


def scale_to_dict(scale: Any) -> dict[str, Any]:
    """JSON-native mapping of an :class:`ExperimentScale` (tuples -> lists).

    The single serialization of the scale knobs — request serialization and
    the density-cache key (:mod:`repro.eval.density_cache`) both use it, so
    a new non-JSON-native field only needs handling here.
    """
    from dataclasses import asdict

    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(scale).items()
    }


def _scale_from_dict(data: Mapping[str, Any]):
    from repro.eval.common import ExperimentScale

    kwargs = dict(data)
    if "resnet_blocks" in kwargs:
        kwargs["resnet_blocks"] = tuple(kwargs["resnet_blocks"])
    return ExperimentScale(**kwargs)


@dataclass(frozen=True)
class ExperimentRequest:
    """One immutable, serializable experiment description.

    Attributes
    ----------
    experiment:
        Name of a registered experiment (see :mod:`repro.api.registry`).
    workloads:
        ``(model, dataset)`` pairs.  Names are normalised at construction
        (``"resnet18"`` -> ``"ResNet-18"``) and validated against the
        workload registry; an empty tuple means "the experiment's default
        grid".
    pruning_rate:
        Target activation-gradient pruning rate p.
    scale:
        The :class:`~repro.eval.common.ExperimentScale` fidelity knobs.
        ``None`` (the default) resolves to ``ExperimentScale.quick()``.
    params:
        Experiment-specific parameters as a sorted ``(name, value)`` tuple;
        values must be JSON-native (lists/dicts/str/num/bool/None).
    fidelity:
        Cost-model tier (``"analytic"``/``"vectorized"``/``"scalar"``, see
        :mod:`repro.analytic.fidelity`).  Content-hash-affecting: the tier
        changes the provenance of the result, so two requests differing only
        in fidelity must never share a cache entry.  Serialized only when it
        differs from the default so every pre-existing request hash is
        unchanged.
    """

    experiment: str
    workloads: tuple[tuple[str, str], ...] = ()
    pruning_rate: float = 0.9
    scale: Any = None
    params: tuple[tuple[str, Any], ...] = ()
    fidelity: str = DEFAULT_FIDELITY.value

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise ValueError("experiment must be a non-empty string")
        if not 0.0 <= float(self.pruning_rate) < 1.0:
            raise ValueError(
                f"pruning_rate must be in [0, 1), got {self.pruning_rate}"
            )
        object.__setattr__(self, "pruning_rate", float(self.pruning_rate))

        scale = self.scale
        if scale is None:
            from repro.eval.common import ExperimentScale

            scale = ExperimentScale.quick()
        object.__setattr__(self, "scale", scale)

        object.__setattr__(
            self, "workloads", _normalize_workloads(self.workloads)
        )

        params = self.params
        if isinstance(params, Mapping):
            params = tuple(params.items())
        normalized = tuple(
            sorted((str(name), _jsonify(value)) for name, value in params)
        )
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter name(s) in {names}")
        object.__setattr__(self, "params", normalized)

        object.__setattr__(
            self, "fidelity", Fidelity.normalize(self.fidelity).value
        )

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def param(self, name: str, default: Any = None) -> Any:
        """One experiment-specific parameter, or ``default`` when unset."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def with_params(self, **updates: Any) -> "ExperimentRequest":
        """Copy of this request with parameters added/replaced."""
        merged = dict(self.params)
        merged.update(updates)
        return ExperimentRequest(
            experiment=self.experiment,
            workloads=self.workloads,
            pruning_rate=self.pruning_rate,
            scale=self.scale,
            params=tuple(merged.items()),
            fidelity=self.fidelity,
        )

    def with_fidelity(self, fidelity: Any) -> "ExperimentRequest":
        """Copy of this request at another cost-model tier."""
        return ExperimentRequest(
            experiment=self.experiment,
            workloads=self.workloads,
            pruning_rate=self.pruning_rate,
            scale=self.scale,
            params=self.params,
            fidelity=Fidelity.normalize(fidelity).value,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = {
            "experiment": self.experiment,
            "workloads": [list(pair) for pair in self.workloads],
            "pruning_rate": self.pruning_rate,
            "scale": scale_to_dict(self.scale),
            "params": {name: value for name, value in self.params},
        }
        # Omitted at the default tier so legacy request hashes are stable.
        if self.fidelity != DEFAULT_FIDELITY.value:
            data["fidelity"] = self.fidelity
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentRequest":
        return cls(
            experiment=data["experiment"],
            workloads=tuple(tuple(pair) for pair in data.get("workloads", ())),
            pruning_rate=data.get("pruning_rate", 0.9),
            scale=_scale_from_dict(data["scale"]) if data.get("scale") else None,
            params=tuple(dict(data.get("params", {})).items()),
            fidelity=data.get("fidelity", DEFAULT_FIDELITY.value),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRequest":
        return cls.from_dict(json.loads(text))

    @property
    def content_hash(self) -> str:
        """Stable content hash identifying this request across processes."""
        return content_hash(self.to_dict())


def _normalize_workloads(
    workloads: Sequence[Sequence[str]],
) -> tuple[tuple[str, str], ...]:
    """Canonicalise and validate ``(model, dataset)`` pairs.

    Unknown model or dataset names raise a helpful error listing the
    registered alternatives — the CLI surfaces it verbatim.
    """
    if not workloads:
        return ()
    from repro.api.registry import WORKLOADS, ensure_builtins_registered
    from repro.models.zoo import (
        KNOWN_DATASETS,
        normalize_dataset_name,
        normalize_model_name,
    )

    ensure_builtins_registered()
    normalized: list[tuple[str, str]] = []
    for pair in workloads:
        model, dataset = pair
        model_name = normalize_model_name(model)
        dataset_name = normalize_dataset_name(dataset)
        if model_name not in WORKLOADS:
            raise ValueError(
                f"unknown workload model {model!r}; registered models: "
                f"{', '.join(WORKLOADS.names())}"
            )
        if dataset_name not in KNOWN_DATASETS:
            raise ValueError(
                f"unknown dataset {dataset!r}; known datasets: "
                f"{', '.join(KNOWN_DATASETS)}"
            )
        normalized.append((model_name, dataset_name))
    return tuple(normalized)


@dataclass(frozen=True)
class RunOptions:
    """Execution knobs that do not change the result (and are not hashed).

    Attributes
    ----------
    max_workers / parallel:
        Deprecated and ignored: experiments run in the calling process.
        Setting either warns.
    use_cache:
        Enable the persistent per-stage disk caches.
    cache_dir:
        Directory holding the density and sweep caches.
    """

    max_workers: int | None = None
    parallel: bool | None = None
    use_cache: bool = True
    cache_dir: str | Path = DEFAULT_CACHE_DIR

    def __post_init__(self) -> None:
        if self.max_workers is not None or self.parallel is not None:
            _warn_worker_knob(
                "RunOptions(max_workers=..., parallel=...)", stacklevel=3
            )

    def density_cache(self):
        """The measured-density store (``None`` when caching is off)."""
        if not self.use_cache:
            return None
        from repro.eval.density_cache import default_density_cache

        return default_density_cache(self.cache_dir)

    def sweep_cache(self):
        """The design-space result store (``None`` when caching is off)."""
        if not self.use_cache:
            return None
        from repro.explore.cache import DEFAULT_CACHE_FILE, ResultCache

        return ResultCache(Path(self.cache_dir) / DEFAULT_CACHE_FILE)


@dataclass(frozen=True)
class ExperimentReport:
    """What a pipeline's ``report`` stage returns.

    ``payload`` must be JSON-serialisable (it becomes
    :attr:`ExperimentResult.payload`); ``summary`` is the human-readable
    rendering; ``native`` carries the harness-native result object for
    library callers and is never serialized.
    """

    payload: dict[str, Any]
    summary: str
    native: Any = None


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one pipeline run, JSON-serialisable end to end."""

    experiment: str
    request: ExperimentRequest
    payload: dict[str, Any]
    summary: str
    timings: tuple[tuple[str, float], ...] = ()
    cache_hits: tuple[tuple[str, bool], ...] = ()
    native: Any = field(default=None, compare=False, repr=False)

    @property
    def stage_seconds(self) -> dict[str, float]:
        return dict(self.timings)

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "request": self.request.to_dict(),
            "payload": self.payload,
            "summary": self.summary,
            "timings": {name: seconds for name, seconds in self.timings},
            "cache_hits": {name: hit for name, hit in self.cache_hits},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            experiment=data["experiment"],
            request=ExperimentRequest.from_dict(data["request"]),
            payload=dict(data.get("payload", {})),
            summary=data.get("summary", ""),
            timings=tuple(dict(data.get("timings", {})).items()),
            cache_hits=tuple(dict(data.get("cache_hits", {})).items()),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))


__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExperimentReport",
    "ExperimentRequest",
    "ExperimentResult",
    "RunOptions",
    "canonical_json",
    "content_hash",
]
