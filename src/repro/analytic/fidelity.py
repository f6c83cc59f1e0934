"""The fidelity knob: which cost-model tier evaluates a request.

Every experiment that owns a ``simulate`` stage accepts one of three tiers.
There is one cost model and one step loop.  Sweeps run it on numpy columns
(:mod:`repro.analytic.model`) and fig8/fig9 on one point's floats (the
instruction-stream walk, ``AcceleratorSimulator.run_program``) at every
tier; the two give equal numbers, which the ``analytic-validate`` experiment
checks.  The tiers choose what a sweep does around the evaluation:

``analytic``
    No sweep cache: records carry ``analytic:`` keys and a full grid is
    evaluated straight from its axes, so million-point grids cost
    microseconds per point.
``vectorized``
    The default: the exploration engine, with content-hash keys and the
    persistent sweep cache.
``scalar``
    Accepted, validated and hashed like the others, and runs the default
    engine.

The knob lives on :class:`~repro.api.request.ExperimentRequest` — it changes
the provenance of the result (its record keys), so it is
content-hash-affecting.  ``RunOptions`` knobs, by contrast,
must never change the result.  To keep every pre-existing request hash
stable, the field is only serialized when it differs from
:data:`DEFAULT_FIDELITY`.

This module is deliberately import-light (stdlib only): the request layer
imports it at module load.
"""

from __future__ import annotations

from enum import Enum
from typing import Any


class Fidelity(Enum):
    """Cost-model tier of one experiment run (fastest to most detailed)."""

    ANALYTIC = "analytic"
    VECTORIZED = "vectorized"
    SCALAR = "scalar"

    @classmethod
    def normalize(cls, value: Any) -> "Fidelity":
        """Coerce a ``Fidelity`` or its string name; reject anything else."""
        if isinstance(value, Fidelity):
            return value
        if isinstance(value, str):
            try:
                return cls(value.strip().lower())
            except ValueError:
                pass
        raise ValueError(
            f"unknown fidelity {value!r}; choose from "
            f"{', '.join(tier.value for tier in cls)}"
        )


#: The tier every request runs at unless asked otherwise — and the one tier
#: that is omitted from the serialized request, so legacy hashes are stable.
DEFAULT_FIDELITY = Fidelity.VECTORIZED

#: CLI flag choices, in documented order.
FIDELITY_CHOICES: tuple[str, ...] = tuple(tier.value for tier in Fidelity)


def fidelity_of(request: Any) -> Fidelity:
    """The fidelity tier of a request (default for objects without the field)."""
    return Fidelity.normalize(getattr(request, "fidelity", DEFAULT_FIDELITY))


__all__ = [
    "DEFAULT_FIDELITY",
    "FIDELITY_CHOICES",
    "Fidelity",
    "fidelity_of",
]
