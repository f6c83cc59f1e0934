"""pyproject.toml declares every package the code imports, and its version.

A clean ``pip install -e .[test]`` installs only what pyproject.toml
declares, so an import of anything else fails on a fresh machine while
passing wherever the package happens to be installed.  These tests read the
imports statically, so they catch the gap on any machine.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
FIRST_PARTY = {"repro"}


def _requirement_names(text: str) -> set[str]:
    """Import names of ``[project] dependencies`` and every optional extra.

    A small scan instead of ``tomllib``, which Python 3.10 lacks.
    Distribution names map to import names by lower-casing and ``-`` -> ``_``.
    """
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.S | re.M).group(1)
    dependencies = re.search(r"^dependencies\s*=\s*\[(.*?)\]\s*$", project, re.S | re.M)
    extras = re.search(
        r"^\[project\.optional-dependencies\]\s*$(.*?)(?=^\[|\Z)", text, re.S | re.M
    )
    arrays = dependencies.group(1) + (extras.group(1) if extras else "")
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in re.findall(r'"([^"]+)"', arrays))
    return {name.lower().replace("-", "_") for name in names}


def _local_names(directory: Path) -> set[str]:
    """Modules a file in ``directory`` can import as siblings (``test_lease``)."""
    return {path.stem for path in directory.glob("*.py")} | {
        path.name for path in directory.iterdir() if path.is_dir()
    }


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level third-party import name -> files importing it."""
    found: dict[str, set[str]] = {}
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            local = _local_names(path.parent)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if top in sys.stdlib_module_names or top in FIRST_PARTY or top in local:
                        continue
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def test_requirement_scan_reads_both_tables():
    text = (
        '[project]\nname = "x"\ndependencies = [\n  "numpy>=1.24",\n  "Foo-Bar[fast]",\n]\n\n'
        '[project.optional-dependencies]\ntest = ["pytest", "pytest-cov>=4"]\n\n'
        "[project.scripts]\nrepro = \"repro.cli:main\"\n"
    )
    assert _requirement_names(text) == {"numpy", "foo_bar", "pytest", "pytest_cov"}


def test_every_third_party_import_is_declared():
    declared = _requirement_names((ROOT / "pyproject.toml").read_text())
    undeclared = {
        name: sorted(files)
        for name, files in _third_party_imports().items()
        if name not in declared
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"


def test_package_version_matches_repro_version():
    import repro

    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1) == repro.__version__
