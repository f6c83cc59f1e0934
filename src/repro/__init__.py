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
"""

__version__ = "1.3.0"

from repro import (
    api,
    arch,
    data,
    dataflow,
    explore,
    models,
    nn,
    obs,
    pruning,
    sim,
    sparsity,
    utils,
)

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
