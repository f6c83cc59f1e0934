"""Tests for architecture configuration, energy model and buffer tiling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.arch.buffer import activation_words, weight_tiling_factor
from repro.arch.config import (
    BYTES_PER_WORD,
    ArchConfig,
    dense_baseline_config,
    sparsetrain_config,
)
from repro.arch.energy import (
    EnergyBreakdown,
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.dataflow.counts import LayerDensities
from repro.models.resnet import resnet_spec
from repro.models.spec import ConvLayerSpec


class TestArchConfig:
    def test_paper_defaults(self):
        config = sparsetrain_config()
        assert config.num_pes == 168
        assert config.pes_per_group == 3
        assert config.num_groups == 56
        assert config.buffer_kib == 386
        assert config.buffer_words == 386 * 1024 // BYTES_PER_WORD
        assert config.sparse_dataflow

    def test_dense_baseline_differs_only_in_sparsity_handling(self):
        sparse = sparsetrain_config()
        dense = dense_baseline_config()
        assert not dense.sparse_dataflow
        assert dense.num_pes == sparse.num_pes
        assert dense.buffer_kib == sparse.buffer_kib
        assert dense.kernel_size == sparse.kernel_size

    def test_peak_macs_per_cycle(self):
        config = sparsetrain_config(num_pes=12, kernel_size=3)
        assert config.peak_macs_per_cycle == 36

    def test_evolve_overrides_fields(self):
        config = sparsetrain_config().evolve(num_pes=84, buffer_kib=128)
        assert config.num_pes == 84
        assert config.buffer_kib == 128
        assert config.sparse_dataflow  # untouched fields survive

    def test_evolve_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown ArchConfig field"):
            sparsetrain_config().evolve(num_pe=84)

    def test_evolve_revalidates(self):
        with pytest.raises(ValueError):
            sparsetrain_config().evolve(num_pes=10, pes_per_group=3)

    def test_dict_round_trip(self):
        config = sparsetrain_config(num_pes=84, clock_ghz=1.2)
        data = config.to_dict()
        assert data["num_pes"] == 84
        restored = ArchConfig.from_dict(json.loads(json.dumps(data)))
        assert restored == config

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown ArchConfig field"):
            ArchConfig.from_dict({"num_pe": 84})

    def test_with_pes_and_with_buffer_deprecated(self):
        # The deprecation cycle promises a removal note in the message.
        with pytest.warns(DeprecationWarning, match="will be removed"):
            config = sparsetrain_config().with_pes(84)
        with pytest.warns(DeprecationWarning, match="will be removed"):
            config = config.with_buffer(128)
        assert config.num_pes == 84
        assert config.buffer_kib == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_pes": 0},
            {"num_pes": 10, "pes_per_group": 3},  # not divisible
            {"pe_utilization": 1.5},
            {"clock_ghz": 0.0},
            {"batch_size": 0},
            {"weight_reload_overhead": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ArchConfig(**kwargs)

    def test_dense_baseline_rejects_sparse_flag_override(self):
        config = dense_baseline_config(num_pes=42)
        assert config.num_pes == 42 and not config.sparse_dataflow


class TestEnergyModel:
    def test_relative_ordering_of_costs(self):
        model = default_energy_model()
        assert model.dram_pj > model.sram_pj > model.mac_pj
        assert model.sram_pj > model.reg_pj

    def test_scaled(self):
        model = EnergyModel().scaled(0.5)
        assert model.mac_pj == pytest.approx(EnergyModel().mac_pj * 0.5)
        with pytest.raises(ValueError):
            EnergyModel().scaled(0.0)

    def test_with_overrides(self):
        model = EnergyModel().with_overrides(sram_pj=99.0)
        assert model.sram_pj == 99.0
        assert model.mac_pj == EnergyModel().mac_pj

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            EnergyModel(mac_pj=-1.0)

    def test_energy_from_events(self):
        model = EnergyModel(mac_pj=1.0, reg_pj=2.0, sram_pj=3.0, dram_pj=4.0, leakage_pj_per_cycle=5.0)
        events = EventCounts(macs=1, reg_accesses=1, sram_words=1, dram_words=1, cycles=1)
        breakdown = energy_from_events(events, model)
        assert breakdown.total_pj == pytest.approx(15.0)
        assert breakdown.combinational_pj == 1.0
        assert breakdown.dram_pj == 4.0

    def test_event_counts_addition(self):
        total = EventCounts(macs=1, cycles=2) + EventCounts(macs=3, cycles=4)
        assert total.macs == 4 and total.cycles == 6


class TestEnergyBreakdown:
    def test_fractions_sum_to_one(self):
        breakdown = EnergyBreakdown(
            combinational_pj=1.0, register_pj=2.0, sram_pj=3.0, dram_pj=4.0, leakage_pj=0.0
        )
        fractions = [breakdown.fraction(c) for c in ("combinational", "register", "sram", "dram", "leakage")]
        assert sum(fractions) == pytest.approx(1.0)

    def test_add_and_scale(self):
        a = EnergyBreakdown(combinational_pj=1.0, sram_pj=1.0)
        a.add(EnergyBreakdown(combinational_pj=2.0, dram_pj=3.0))
        assert a.combinational_pj == 3.0 and a.dram_pj == 3.0
        scaled = a.scaled(2.0)
        assert scaled.combinational_pj == 6.0

    def test_as_dict_keys(self):
        assert list(EnergyBreakdown().as_dict()) == [
            "combinational", "register", "sram", "dram", "leakage",
        ]

    def test_empty_breakdown_fraction_is_zero(self):
        assert EnergyBreakdown().fraction("sram") == 0.0

    def test_total_uj(self):
        assert EnergyBreakdown(sram_pj=2e6).total_uj == pytest.approx(2.0)


class TestGlobalBuffer:
    """Working set and weight tiling of the global buffer (``arch/buffer.py``)."""

    def test_cifar_layers_fit_386kb(self, small_conv_layer):
        capacity = sparsetrain_config().buffer_words
        dense = LayerDensities.dense()
        working_set = activation_words(small_conv_layer, dense, sparse=False)
        assert working_set + small_conv_layer.weight_count <= capacity
        assert weight_tiling_factor(small_conv_layer, dense, capacity) == 1.0

    def test_cifar_workload_activations_fit_the_buffer(self):
        """The paper states 386 KB is sufficient for its (CIFAR-scale) iterations."""
        capacity = sparsetrain_config().buffer_words
        for layer in resnet_spec(18, "CIFAR-10").conv_layers:
            assert weight_tiling_factor(layer, LayerDensities.dense(), capacity, sparse=False) == 1.0

    def test_imagenet_early_layers_need_bounded_tiling(self):
        """ImageNet feature maps exceed the buffer but only by a small factor."""
        capacity = sparsetrain_config().buffer_words
        factors = [
            weight_tiling_factor(layer, LayerDensities.dense(), capacity, sparse=False)
            for layer in resnet_spec(18, "ImageNet").conv_layers
        ]
        assert max(factors) <= 8.0
        assert min(factors) == 1.0

    def test_tiny_buffer_forces_tiling(self):
        layer = ConvLayerSpec("big", 64, 64, 3, 1, 1, 128, 128)
        assert weight_tiling_factor(layer, LayerDensities.dense(), 10_000, sparse=False) > 1.0

    def test_sparse_working_set_smaller_than_dense(self, small_conv_layer):
        sparse_words = activation_words(
            small_conv_layer, LayerDensities(input_density=0.3, output_density=0.3), sparse=True
        )
        dense_words = activation_words(small_conv_layer, LayerDensities.dense(), sparse=False)
        assert sparse_words < dense_words
