"""The deprecated worker-count option keeps working for every experiment.

``RunOptions(max_workers=N)`` used to size a process pool behind the
pipeline's Runner.  Experiments now run in the calling process, so the
option warns once and changes nothing: a run with it equals a run without
it (every unit of work seeds its own RNG).
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.eval.common import ExperimentScale

SMOKE = ExperimentScale.preset("smoke")


def _run(experiment: str, params: dict, max_workers: int | None):
    request = ExperimentRequest(
        experiment=experiment, scale=SMOKE, params=params
    )
    if max_workers is None:
        options = RunOptions(use_cache=False)
    else:
        with pytest.warns(DeprecationWarning, match="repro serve --fleet N"):
            options = RunOptions(max_workers=max_workers, use_cache=False)
    return run_experiment(request, options=options)


class TestTable2Workers:
    PARAMS = {
        "models": ["AlexNet"],
        "datasets": ["CIFAR-10"],
        "pruning_rates": [None, 0.9],
    }

    def test_serial_and_parallel_grids_agree(self):
        serial = _run("table2", self.PARAMS, max_workers=None)
        parallel = _run("table2", self.PARAMS, max_workers=2)
        assert serial.payload["cells"] == parallel.payload["cells"]
        assert len(serial.payload["cells"]) == 2


class TestAblationWorkers:
    PARAMS = {"pruning_rates": [0.5, 0.9]}

    def test_serial_and_parallel_sweeps_agree(self):
        serial = _run("ablate-rate", self.PARAMS, max_workers=None)
        parallel = _run("ablate-rate", self.PARAMS, max_workers=2)
        assert serial.payload == parallel.payload
        assert len(serial.payload["points"]) == 2
