"""The experiment pipeline loads on first use, once, under one lock.

A front end validates submits on HTTP threads and a worker claims jobs on
its own thread, so the first use of pipeline code can come from several
threads at once.  Unserialised, two threads importing the pipeline's module
graph deadlock Python's per-module import locks (``_DeadlockError``) or see
a partially initialised module.  Every public first-use point therefore goes
through :func:`repro.api.registry.ensure_builtins_registered`, which imports
under ``repro``'s first-use lock.

Each case runs in a fresh interpreter, where nothing is loaded yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

# One experiment registered by each module the loader imports.
REGISTERED_BY_THE_LOADER = {
    "analytic-validate", "bench", "ablate-fifo", "fig8", "fig9", "table1",
    "table2", "sweep",
}

SCRIPT = r"""
import json, sys, threading

from repro.api import registry
from repro.api.request import ExperimentRequest, RunOptions

mode, cache_dir = sys.argv[1], sys.argv[2]
ENTRIES = {
    "request": lambda: ExperimentRequest(experiment="fig8"),
    "from_dict": lambda: ExperimentRequest.from_dict({
        "experiment": "fig8",
        "workloads": [["resnet18", "cifar10"]],
        "scale": {"num_samples": 96, "epochs": 1},
    }),
    "get_experiment": lambda: registry.get_experiment("sweep"),
    "list_workloads": registry.list_workloads,
    "sweep_cache": lambda: RunOptions(cache_dir=cache_dir).sweep_cache(),
    "density_cache": lambda: RunOptions(cache_dir=cache_dir).density_cache(),
}
errors = []

if mode == "all":
    # Switch threads as often as possible, and start every first use at once.
    sys.setswitchinterval(1e-6)
    barrier = threading.Barrier(len(ENTRIES))

    def enter(entry):
        barrier.wait()
        try:
            entry()
        except BaseException as exc:
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=enter, args=(e,)) for e in ENTRIES.values()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
else:
    ENTRIES[mode]()

print(json.dumps({
    "errors": errors,
    "loaded": registry._BUILTINS_LOADED,
    "experiments": list(registry.EXPERIMENTS.names()),
    "workloads": list(registry.WORKLOADS.names()),
}))
"""

ENTRY_POINTS = (
    "request", "from_dict", "get_experiment", "list_workloads",
    "sweep_cache", "density_cache",
)


def _fresh(mode: str, cache_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT, mode, str(cache_dir)],
            env=env, capture_output=True, text=True, timeout=120.0,
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"first use hung (a lock-order deadlock?):\n{exc.stderr}")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_fully_loaded(outcome: dict) -> None:
    assert outcome["loaded"]
    assert REGISTERED_BY_THE_LOADER <= set(outcome["experiments"])
    assert "ResNet-18" in outcome["workloads"]


@pytest.mark.parametrize("run", range(5))
def test_concurrent_first_uses_load_the_pipeline_once(run, tmp_path):
    outcome = _fresh("all", tmp_path)
    assert outcome["errors"] == []
    _assert_fully_loaded(outcome)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_first_use_goes_through_the_loader(entry, tmp_path):
    # A first use that imported pipeline modules itself would leave the
    # registry unloaded (or part-loaded): only the loader loads all of it.
    _assert_fully_loaded(_fresh(entry, tmp_path))
