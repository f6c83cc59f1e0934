"""Tests for the ``python -m repro`` command line (sweep / pareto wiring)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
import repro.analytic.model as analytic_model
from repro.explore.report import load_records


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


class TestSweepCommand:
    def test_smoke_sweep_serial(self, tmp_path, capsys):
        code, out = run_cli(
            ["sweep", "--smoke", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert "AlexNet/CIFAR-10" in out
        assert "ResNet-18/CIFAR-10" in out
        assert "4 points (0 duplicate), 0 cached, 4 simulated" in out

    def test_second_invocation_is_fully_cached(self, tmp_path, capsys, monkeypatch):
        """Acceptance: the repeated CLI sweep performs zero simulator calls."""
        run_cli(["sweep", "--smoke", "--cache-dir", str(tmp_path)], capsys)

        def boom(*args, **kwargs):
            raise AssertionError("cost model evaluated on the cached pass")

        monkeypatch.setattr(analytic_model, "evaluate_points_analytic", boom)
        code, out = run_cli(
            ["sweep", "--smoke", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert "4 cached, 0 simulated" in out

    def test_foreign_record_is_re_evaluated(self, tmp_path, capsys):
        """Valid JSON under a live key but the wrong shape: a warned miss."""
        out_file = tmp_path / "sweep.json"
        run_cli(
            ["sweep", "--smoke", "--cache-dir", str(tmp_path), "--out", str(out_file)],
            capsys,
        )
        key = json.loads(out_file.read_text())["records"][0]["key"]
        with (tmp_path / "sweeps.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "record": {}}) + "\n")
        with pytest.warns(RuntimeWarning, match="does not decode"):
            code, out = run_cli(
                ["sweep", "--smoke", "--cache-dir", str(tmp_path)], capsys
            )
        assert code == 0
        assert "4 points (0 duplicate), 3 cached, 1 simulated" in out

    def test_default_grid_covers_four_workloads(self, tmp_path, capsys):
        code, out = run_cli(
            [
                "sweep",
                "--cache-dir",
                str(tmp_path),
                "--pruning-rates",
                "0.9",  # thin one axis: 4 PEs x 3 buffers x 1 rate x 4 workloads
            ],
            capsys,
        )
        assert code == 0
        assert "48 points" in out
        assert "VGG-16/CIFAR-10" in out
        assert "MobileNetV1/CIFAR-10" in out

    def test_model_flag_overrides_workloads(self, tmp_path, capsys):
        """Acceptance: `sweep --model mobilenet --dataset cifar10` runs end-to-end."""
        code, out = run_cli(
            [
                "sweep", "--model", "mobilenet", "--dataset", "cifar10",
                "--smoke", "--cache-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "MobileNetV1/CIFAR-10" in out
        assert "AlexNet" not in out
        code, out = run_cli(
            [
                "sweep", "--model", "vgg16",
                "--smoke", "--cache-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "VGG-16/CIFAR-10" in out

    def test_dataset_without_model_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--dataset requires --model"):
            main(
                [
                    "sweep", "--dataset", "imagenet", "--smoke",
                    "--cache-dir", str(tmp_path),
                ]
            )

    def test_export_and_reload(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code, out = run_cli(
            [
                "sweep", "--smoke", "--no-cache", "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        assert load_records(out_file)

    def test_rejects_malformed_workload(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--no-cache", "--workloads", "AlexNet"])


class TestParetoCommand:
    def test_frontier_per_workload_with_export(self, tmp_path, capsys):
        export = tmp_path / "frontier.csv"
        code, out = run_cli(
            [
                "pareto",
                "--cache-dir", str(tmp_path),
                "--pes", "84,168,336",
                "--buffers", "386",
                "--pruning-rates", "0.9",
                "--export", str(export),
            ],
            capsys,
        )
        assert code == 0
        assert "[AlexNet/CIFAR-10]" in out
        assert "[ResNet-18/CIFAR-10]" in out
        assert "Pareto frontier" in out
        records = load_records(export)
        # The latency/area trade-off keeps several PE counts on the frontier.
        assert len(records) > 2
        assert len({r.num_pes for r in records}) > 1

    def test_from_file_skips_sweeping(self, tmp_path, capsys, monkeypatch):
        export = tmp_path / "sweep.json"
        run_cli(
            ["sweep", "--smoke", "--no-cache", "--out", str(export)],
            capsys,
        )

        def boom(*args, **kwargs):
            raise AssertionError("cost model evaluated when loading from file")

        monkeypatch.setattr(analytic_model, "evaluate_points_analytic", boom)
        code, out = run_cli(
            ["pareto", "--from", str(export), "--objectives", "latency_us,energy_uj"],
            capsys,
        )
        assert code == 0
        assert "loaded 4 records" in out

    def test_rejects_unknown_objective(self, tmp_path, capsys):
        code = main(
            ["pareto", "--smoke", "--no-cache", "--objectives", "latency"]
        )
        assert code == 2
        assert "unknown objective" in capsys.readouterr().err

    def test_rejects_bad_export_suffix_before_sweeping(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("evaluated before the export path was validated")

        monkeypatch.setattr(analytic_model, "evaluate_points_analytic", boom)
        code = main(
            ["sweep", "--smoke", "--no-cache", "--out", "x.parquet"]
        )
        assert code == 2
        assert "unsupported export suffix" in capsys.readouterr().err


class TestParserWiring:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for args in (
            ["sweep", "--smoke"],
            ["pareto", "--objectives", "latency_us"],
            ["fig8", "--paper", "--pruning-rate", "0.8"],
            ["fig9", "--thorough"],
            ["bench", "--smoke", "--out", "bench.json"],
            ["trace", "fig8", "--smoke", "--out", "trace.json"],
            ["stats", "--watch", "--interval", "1"],
        ):
            namespace = parser.parse_args(args)
            assert callable(namespace.func)

    def test_fig_commands_accept_cache_flags(self):
        parser = build_parser()
        for command in ("fig8", "fig9"):
            namespace = parser.parse_args(
                [command, "--no-cache", "--cache-dir", "/tmp/c"]
            )
            assert namespace.no_cache is True
            assert namespace.cache_dir == "/tmp/c"
        # Default: caching on.
        assert parser.parse_args(["fig8"]).no_cache is False

    @pytest.mark.parametrize(
        "args",
        [["run", "fig8"], ["trace", "fig8"], ["fig8"], ["fig9"], ["serve"], ["worker"]],
        ids=lambda args: args[0],
    )
    def test_workers_flag_is_gone(self, args, capsys):
        # Experiments run in process; `repro serve --fleet N` is the only
        # way to run work in parallel, so there is no pool to size.
        parser = build_parser()
        parser.parse_args(args)
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(args + ["--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--serial", "--jobs=2", "--resim-pareto"])
    def test_sweep_flags_of_the_removed_pool_are_gone(self, flag, capsys):
        # Sweeps evaluate on numpy columns in process: nothing to size.
        for command in ("sweep", "pareto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--smoke", flag])
        capsys.readouterr()

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestOneProcessModel:
    def test_cli_import_loads_no_process_pool(self):
        # Experiments run in the calling process, so nothing on the CLI's
        # import path needs a process pool.
        script = (
            "import sys, repro.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
