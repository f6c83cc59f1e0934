"""Tests for forgiving model/dataset name resolution in the zoo."""

from __future__ import annotations

import pytest

from repro.models.zoo import (
    get_model_spec,
    normalize_dataset_name,
    normalize_model_name,
)


class TestNormalizeModelName:
    @pytest.mark.parametrize(
        "variant",
        ["resnet-18", "resnet18", "ResNet18", "RESNET_18", "ResNet 18", " resnet-18 "],
    )
    def test_resnet_variants_canonicalise(self, variant):
        assert normalize_model_name(variant) == "ResNet-18"

    @pytest.mark.parametrize("variant", ["alexnet", "AlexNet", "ALEXNET", "alex_net"])
    def test_alexnet_variants_canonicalise(self, variant):
        assert normalize_model_name(variant) == "AlexNet"

    @pytest.mark.parametrize(
        "variant", ["vgg16", "VGG-16", "vgg_16", "VGG 16", " vgg-16 "]
    )
    def test_vgg_variants_canonicalise(self, variant):
        assert normalize_model_name(variant) == "VGG-16"

    def test_vgg11_variant_canonicalises(self):
        assert normalize_model_name("vgg11") == "VGG-11"

    @pytest.mark.parametrize(
        "variant",
        ["mobilenet", "MobileNet", "mobilenet_v1", "MobileNetV1", "mobilenet-v1"],
    )
    def test_mobilenet_variants_canonicalise(self, variant):
        assert normalize_model_name(variant) == "MobileNetV1"

    def test_unknown_names_pass_through_stripped(self):
        assert normalize_model_name(" LeNet-5 ") == "LeNet-5"
        assert normalize_model_name("resnet-abc") == "resnet-abc"
        assert normalize_model_name("vgg-abc") == "vgg-abc"


class TestNormalizeDatasetName:
    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("cifar10", "CIFAR-10"),
            ("CIFAR-10", "CIFAR-10"),
            ("cifar_100", "CIFAR-100"),
            ("Cifar 100", "CIFAR-100"),
            ("imagenet", "ImageNet"),
            ("IMAGENET", "ImageNet"),
        ],
    )
    def test_variants_canonicalise(self, variant, expected):
        assert normalize_dataset_name(variant) == expected

    def test_unknown_names_pass_through_stripped(self):
        assert normalize_dataset_name(" MNIST ") == "MNIST"


class TestGetModelSpec:
    @pytest.mark.parametrize("model", ["resnet18", "ResNet18", "resnet-18"])
    @pytest.mark.parametrize("dataset", ["cifar10", "CIFAR-10"])
    def test_all_variants_resolve_to_same_spec(self, model, dataset):
        assert get_model_spec(model, dataset) == get_model_spec("ResNet-18", "CIFAR-10")

    def test_repeated_lookups_return_the_same_object(self):
        spec = get_model_spec("ResNet-152", "ImageNet")
        assert get_model_spec("ResNet-152", "ImageNet") is spec
        assert get_model_spec("resnet152", "imagenet") is spec

    def test_alexnet_variants_resolve(self):
        assert get_model_spec("alexnet", "imagenet") == get_model_spec(
            "AlexNet", "ImageNet"
        )

    @pytest.mark.parametrize("model", ["vgg16", "VGG-16", "vgg_16"])
    def test_vgg_variants_resolve_to_same_spec(self, model):
        assert get_model_spec(model, "cifar10") == get_model_spec("VGG-16", "CIFAR-10")

    @pytest.mark.parametrize("model", ["mobilenet", "mobilenet_v1", "MobileNetV1"])
    def test_mobilenet_variants_resolve_to_same_spec(self, model):
        assert get_model_spec(model, "cifar10") == get_model_spec(
            "MobileNetV1", "CIFAR-10"
        )

    def test_unknown_model_still_raises(self):
        with pytest.raises(ValueError, match="unknown model"):
            get_model_spec("LeNet-5", "CIFAR-10")

    def test_malformed_resnet_depth_names_the_model(self):
        with pytest.raises(ValueError, match="cannot parse ResNet depth from 'ResNet-abc'"):
            get_model_spec("ResNet-abc", "CIFAR-10")

    def test_unknown_dataset_still_raises(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            get_model_spec("AlexNet", "MNIST")
        with pytest.raises(ValueError):
            get_model_spec("resnet18", "MNIST")
