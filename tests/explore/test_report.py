"""Round-trip tests for sweep exports (CSV and JSON) and text tables."""

from __future__ import annotations

import json

import pytest

from repro.explore.engine import ExplorationEngine, points_for
from repro.explore.report import (
    export_records,
    format_frontier,
    format_records_table,
    load_records,
    read_csv,
    read_json,
    write_csv,
    write_json,
)
from repro.explore.space import DesignSpace, grid_axis


@pytest.fixture(scope="module")
def records():
    space = DesignSpace(
        axes=(
            grid_axis("num_pes", [84, 168]),
            grid_axis("pruning_rate", [0.5, 0.9]),
        )
    )
    points = points_for(space, [("AlexNet", "CIFAR-10")])
    return ExplorationEngine().run(points)


class TestJsonRoundTrip:
    def test_exact_round_trip(self, records, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(records, path)
        assert read_json(path) == records

    def test_document_shape(self, records, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(records, path)
        payload = json.loads(path.read_text())
        assert payload["count"] == len(records)
        assert len(payload["records"]) == len(records)
        assert payload["records"][0]["model"] == "AlexNet"


class TestCsvRoundTrip:
    def test_exact_round_trip(self, records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_header_and_rows(self, records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("key,model,dataset,pruning_rate")
        assert len(lines) == len(records) + 1


class TestExportDispatch:
    def test_by_suffix(self, records, tmp_path):
        for name in ("out.csv", "out.json"):
            path = tmp_path / name
            export_records(records, path)
            assert load_records(path) == records

    def test_rejects_unknown_suffix(self, records, tmp_path):
        with pytest.raises(ValueError, match="unsupported export suffix"):
            export_records(records, tmp_path / "out.parquet")
        with pytest.raises(ValueError, match="unsupported import suffix"):
            load_records(tmp_path / "out.parquet")


class TestTables:
    def test_table_contains_every_record(self, records):
        text = format_records_table(records)
        assert text.count("AlexNet/CIFAR-10") == len(records)

    def test_table_limit_reports_overflow(self, records):
        text = format_records_table(records, limit=2)
        assert f"({len(records) - 2} more)" in text

    def test_frontier_header_names_objectives(self, records):
        text = format_frontier(records)
        assert "min latency_us" in text
        assert f"{len(records)} points" in text
