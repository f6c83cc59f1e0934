"""repro.analytic — the fidelity knob and the cost model's column evaluator.

Three pieces:

* :mod:`repro.analytic.fidelity` — the :class:`Fidelity` enum and helpers;
  imported eagerly because the request layer depends on it at module load.
* :mod:`repro.analytic.model` — the column evaluator: runs the simulator's
  own step loop over the compiler's instruction stream on numpy columns for
  batched design-point grids, so its records equal the walk's.  Every sweep
  evaluates here.
* :mod:`repro.analytic.validate` — the ``analytic-validate`` experiment,
  which checks the column evaluator against the instruction-stream walk.

``model`` and ``validate`` are exposed lazily: they import the explore and
api layers, and ``api.request`` imports this package for the fidelity enum —
eager imports here would close that cycle.
"""

from __future__ import annotations

from repro import _lazy_namespace
from repro.analytic.fidelity import (
    DEFAULT_FIDELITY,
    FIDELITY_CHOICES,
    Fidelity,
    fidelity_of,
)

__all__ = [
    "DEFAULT_FIDELITY",
    "FIDELITY_CHOICES",
    "Fidelity",
    "fidelity_of",
    "model",
    "validate",
]

__getattr__, __dir__ = _lazy_namespace(
    __name__, {"model": "model", "validate": "validate"}
)
