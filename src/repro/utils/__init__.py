"""Shared utilities: deterministic RNG handling, validation helpers, logging.

Names load on first use: the job service imports :mod:`repro.utils.logging`
in every process, and ``rng`` and ``validation`` import numpy.
"""

from repro import _lazy_namespace

_EXPORTS = {
    "new_rng": "rng",
    "spawn_rngs": "rng",
    "check_positive_int": "validation",
    "check_probability": "validation",
    "check_shape": "validation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_namespace(__name__, _EXPORTS)
