"""Tests for the on-disk measured-density cache."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.dataflow.counts import LayerDensities
from repro.eval.common import ExperimentScale
from repro.eval.density_cache import (
    DEFAULT_DENSITY_CACHE_FILE,
    density_cache_key,
    deserialize_measured,
    serialize_measured,
)
from repro.explore.cache import ResultCache
from repro.obs import metrics
from repro.sim.trace import MeasuredDensities

TINY = ExperimentScale(
    num_samples=96, num_classes=4, image_size=8, epochs=1, batch_size=32,
    width_scale=0.1, resnet_blocks=(1,), resnet_width=8, seed=5,
)


def _measured_fixture() -> MeasuredDensities:
    names = ("conv1", "conv2")
    return MeasuredDensities(
        layer_names=names,
        densities={
            "conv1": LayerDensities(1.0, 0.3, 0.55, 0.5, 0.6),
            "conv2": LayerDensities(0.6, 0.2, 0.5, 0.4, 0.5),
        },
    )


def _fig8(cache_dir, scale: ExperimentScale = TINY, use_cache: bool = True):
    """One AlexNet/CIFAR-10 fig8 run; its ``train`` stage is one lookup."""
    request = ExperimentRequest(
        experiment="fig8", workloads=(("AlexNet", "CIFAR-10"),), scale=scale
    )
    return run_experiment(
        request, RunOptions(use_cache=use_cache, cache_dir=cache_dir)
    )


def _train_hit(result) -> bool:
    return dict(result.cache_hits)["train"]


def _counters() -> tuple[int, int, int]:
    return tuple(
        metrics().counter(name, cache="densities").value
        for name in ("cache.hits", "cache.misses", "cache.corrupt_records")
    )


class TestSerialization:
    def test_round_trip(self):
        measured = _measured_fixture()
        restored = deserialize_measured(serialize_measured(measured))
        assert restored.layer_names == measured.layer_names
        assert restored.densities == measured.densities

    def test_corrupted_record_warns_and_falls_back_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        key = density_cache_key("AlexNet", 0.9, TINY)
        cache.put(key, {"not": "a measurement"})
        with pytest.warns(RuntimeWarning, match="does not decode"):
            assert cache.get(key, deserialize_measured) is None

    def test_torn_write_skips_line_and_warns(self, tmp_path):
        """A torn (truncated) JSONL write loses one entry, not the cache."""
        path = tmp_path / "densities.jsonl"
        cache = ResultCache(path)
        key = density_cache_key("AlexNet", 0.9, TINY)
        cache.put(key, serialize_measured(_measured_fixture()))
        intact = path.read_text(encoding="utf-8")
        # Simulate a writer killed mid-append: half a record, no newline.
        path.write_text(intact + intact[: len(intact) // 2], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt/truncated"):
            reloaded = ResultCache(path)
        restored = reloaded.get(key, deserialize_measured)
        assert restored is not None
        assert restored.densities == _measured_fixture().densities


class TestKeying:
    def test_key_is_stable_and_sensitive(self):
        base = density_cache_key("AlexNet", 0.9, TINY)
        assert base == density_cache_key("AlexNet", 0.9, TINY)
        assert base != density_cache_key("ResNet-18", 0.9, TINY)
        assert base != density_cache_key("AlexNet", 0.5, TINY)
        assert base != density_cache_key(
            "AlexNet", 0.9, ExperimentScale(num_samples=TINY.num_samples + 1)
        )


class TestStoreAndLoad:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        measured = _measured_fixture()
        key = density_cache_key("AlexNet", 0.9, TINY)
        cache.put(key, serialize_measured(measured))
        restored = cache.get(key, deserialize_measured)
        assert restored is not None
        assert restored.densities == measured.densities
        # Survives a reload from disk.
        reloaded = ResultCache(tmp_path / "densities.jsonl")
        assert reloaded.get(key, deserialize_measured) is not None

    def test_disabled_cache_is_noop(self, tmp_path):
        assert RunOptions(use_cache=False, cache_dir=tmp_path).density_cache() is None
        assert not _train_hit(_fig8(tmp_path, use_cache=False))
        assert not _train_hit(_fig8(tmp_path, use_cache=False))
        assert not list(tmp_path.iterdir())


class TestMeasureIntegration:
    def test_second_measurement_hits_cache(self, tmp_path):
        first = _fig8(tmp_path)
        cache_file = tmp_path / DEFAULT_DENSITY_CACHE_FILE
        assert not _train_hit(first)
        assert len(ResultCache(cache_file)) == 1
        second = _fig8(tmp_path)
        assert _train_hit(second)
        assert second.payload == first.payload
        assert len(cache_file.read_text(encoding="utf-8").splitlines()) == 1

    def test_different_scale_misses(self, tmp_path):
        _fig8(tmp_path)
        other = ExperimentScale(
            num_samples=96, num_classes=4, image_size=8, epochs=2, batch_size=32,
            width_scale=0.1, resnet_blocks=(1,), resnet_width=8, seed=5,
        )
        assert not _train_hit(_fig8(tmp_path, scale=other))
        assert len(ResultCache(tmp_path / DEFAULT_DENSITY_CACHE_FILE)) == 2


class TestForeignRecord:
    def test_train_stage_remeasures_a_record_that_does_not_decode(self, tmp_path):
        """Valid JSON under the live key, wrong shape: a counted, warned miss."""
        key = density_cache_key("AlexNet", 0.9, TINY)
        path = tmp_path / DEFAULT_DENSITY_CACHE_FILE
        path.write_text(json.dumps({"key": key, "record": {}}) + "\n")
        hits, misses, corrupt = _counters()
        with pytest.warns(RuntimeWarning, match="does not decode"):
            result = _fig8(tmp_path)
        assert not _train_hit(result)
        assert _counters() == (hits, misses + 1, corrupt + 1)
        # The re-measurement replaced the foreign record.
        assert _train_hit(_fig8(tmp_path))
