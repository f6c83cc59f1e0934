"""Start-up imports only what start-up uses.

``repro serve``, ``repro worker``, ``--help`` and the client verbs must not
import numpy (the experiment pipeline loads on first use), and the lazy
package namespaces must still resolve every exported name.  Each check runs
in a fresh interpreter, because this test process has long since imported
everything.  They are structural guards, not timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _python(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=60.0,
    )


MAIN = r"""
import json, sys
from repro.cli import main

try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["serve", "--help"], 0),
        (["worker", "--help"], 0),
        # Port 9 (discard) is closed: the client is refused and exits 2.
        (["status", "--url", "http://127.0.0.1:9"], 2),
    ],
)
def test_cli_verb_starts_without_numpy(argv, code):
    done = _python(MAIN, json.dumps(argv))
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stderr.strip().splitlines()[-1])
    assert outcome == {"code": code, "numpy": False}, done.stderr


@pytest.mark.parametrize(
    "module", ["repro.serve.client", "repro.serve.worker", "repro.serve.http_api"]
)
def test_service_module_imports_without_numpy(module):
    done = _python(f"import sys, {module}\nprint('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_lazy_namespaces_resolve_every_exported_name():
    script = r"""
import importlib, json
missing = {}
for package in ("repro", "repro.serve", "repro.utils"):
    module = importlib.import_module(package)
    listed = dir(module)
    missing[package] = [
        name for name in module.__all__
        if getattr(module, name, None) is None or name not in listed
    ]
print(json.dumps(missing))
"""
    done = _python(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "repro": [], "repro.serve": [], "repro.utils": []
    }


def test_lazy_namespace_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
    from repro import serve, utils

    assert not hasattr(serve, "nope") and not hasattr(utils, "nope")
