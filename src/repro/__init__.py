"""SparseTrain (DAC 2020) reproduction.

A from-scratch Python implementation of *SparseTrain: Exploiting Dataflow
Sparsity for Efficient Convolutional Neural Networks Training* (Dai et al.,
DAC 2020), covering the three levels of the paper's contribution and every
substrate they depend on:

* :mod:`repro.pruning` — layer-wise stochastic activation-gradient pruning
  with analytic threshold determination and FIFO-based threshold prediction.
* :mod:`repro.dataflow` — the 1-D convolution training dataflow (SRC / MSRC /
  OSRC row operations), compressed operand formats, a compiler from model
  specifications to accelerator instruction streams, and closed-form operation
  counts.
* :mod:`repro.arch` — the sparse-aware accelerator (PE, PPU, PE groups,
  global buffer, DRAM, controller) with cycle and energy models; its
  ``dense_baseline_config`` is the dense Eyeriss-like comparison point,
  simulated by :func:`repro.sim.simulate_baseline`.
* :mod:`repro.nn`, :mod:`repro.data`, :mod:`repro.models` — the numpy CNN
  training framework, synthetic datasets and the AlexNet/ResNet model zoo the
  algorithm experiments run on.
* :mod:`repro.sim` and :mod:`repro.eval` — end-to-end workload simulation and
  the harnesses regenerating the paper's Table I, Table II, Fig. 8 and Fig. 9.
* :mod:`repro.explore` — design-space exploration over the simulator:
  declarative sweep spaces, a cached column-evaluation engine, Pareto
  analysis and the ``python -m repro`` command line (:mod:`repro.cli`).
* :mod:`repro.obs` — unified telemetry: process-global metrics (counters,
  gauges, streaming log-bucket histograms), structured trace spans with
  Chrome-trace/JSONL export, surfaced through the job service's ``/stats``
  and ``/metrics`` endpoints and the ``repro stats`` / ``repro trace`` verbs.

Subpackages load on first use: ``import repro`` (and so every ``repro``
command) imports none of them, and ``repro.arch`` or ``from repro import
arch`` imports :mod:`repro.arch` when it is first named.  The CLI's client
and service verbs thereby start without numpy; the experiment pipeline loads
when a process first needs it, through
:func:`repro.api.registry.ensure_builtins_registered`.
"""

from __future__ import annotations

import importlib
import sys
import threading
from typing import Any, Callable, Mapping

__version__ = "1.3.0"

#: The one lock of first-use imports.  The pipeline loader
#: (:func:`repro.api.registry.ensure_builtins_registered`) and every lazy
#: package attribute import under it, so two threads never import the
#: pipeline's module graph at once: unserialised, its import cycles deadlock
#: Python's per-module import locks (``_DeadlockError``) or hand one thread
#: a partially initialised module.  Re-entrant, because a module imported
#: under it may itself name a lazy attribute.
_IMPORT_LOCK = threading.RLock()


def _lazy_namespace(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's lazy names.

    ``exports`` maps each name to the submodule of ``package`` that defines
    it; those submodules resolve as names too.  The first access imports the
    submodule under :data:`_IMPORT_LOCK` and caches the value in the
    package, so later accesses never reach ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__
    exports = {**exports, **{module: module for module in exports.values()}}

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        with _IMPORT_LOCK:
            module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__all__ = [
    "__version__",
    "api",
    "nn",
    "data",
    "models",
    "obs",
    "pruning",
    "sparsity",
    "dataflow",
    "arch",
    "sim",
    "explore",
    "utils",
]

__getattr__, __dir__ = _lazy_namespace(
    __name__, {name: name for name in __all__ if name != "__version__"}
)
