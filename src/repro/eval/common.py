"""Shared infrastructure for the experiment harnesses.

Every experiment in the paper's evaluation section (Table I, Table II,
Fig. 8, Fig. 9 and the ablations) is regenerated from two ingredients:

* *reduced training runs* — small AlexNet/ResNet-style models trained on
  synthetic data with the real numpy framework, used to measure accuracies
  and operand densities; and
* *full-size shape specs* — the exact AlexNet/ResNet-18/34/152 layer
  geometries of the paper, fed to the architecture simulator together with
  the measured densities.

``ExperimentScale`` centralises the knobs that trade fidelity for runtime so
the same harness can run as a quick benchmark (CI) or a longer, closer
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import Dataset, make_cifar_like
from repro.models.alexnet import build_alexnet
from repro.models.mobilenet import build_mobilenet
from repro.models.resnet import build_resnet
from repro.models.vgg import build_vgg
from repro.models.zoo import model_family
from repro.nn.layers.base import Layer
from repro.utils.rng import new_rng, stable_hash_seed


@dataclass(frozen=True)
class ExperimentScale:
    """Resource knobs shared by the experiment harnesses.

    Attributes
    ----------
    num_samples:
        Synthetic dataset size.
    num_classes:
        Number of classes of the synthetic task.
    image_size:
        Synthetic image side length (16 keeps numpy training fast; 32 gives
        CIFAR-shaped runs).
    epochs:
        Training epochs per configuration.
    batch_size:
        Mini-batch size.
    width_scale:
        Channel-width multiplier of the reduced AlexNet.
    resnet_blocks:
        Blocks per stage of the reduced ResNet.
    seed:
        Base seed; every (model, dataset, pruning) configuration derives its
        own stream from it.
    """

    num_samples: int = 480
    num_classes: int = 4
    image_size: int = 16
    epochs: int = 3
    batch_size: int = 32
    width_scale: float = 0.15
    resnet_blocks: tuple[int, ...] = (1, 1)
    resnet_width: int = 8
    seed: int = 7

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Fast settings used by the benchmark suite."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Tiny settings for CI smoke runs (seconds instead of minutes)."""
        return cls(num_samples=96, epochs=1)

    @classmethod
    def preset(cls, name: str) -> "ExperimentScale":
        """Look up a named preset (``quick``, ``thorough``, ``smoke``)."""
        presets = {"quick": cls.quick, "thorough": cls.thorough, "smoke": cls.smoke}
        try:
            return presets[name]()
        except KeyError:
            raise ValueError(
                f"unknown scale preset {name!r}; choose from {sorted(presets)}"
            ) from None

    @classmethod
    def thorough(cls) -> "ExperimentScale":
        """Larger settings for a closer (slower) reproduction."""
        return cls(
            num_samples=2048,
            num_classes=8,
            image_size=32,
            epochs=12,
            width_scale=0.5,
            resnet_blocks=(2, 2, 2),
            resnet_width=16,
        )


def synthetic_dataset_for(dataset_name: str, scale: ExperimentScale) -> tuple[Dataset, Dataset]:
    """Build the synthetic stand-in for a paper dataset and split train/test.

    CIFAR-100 stand-ins get twice the class count of CIFAR-10 stand-ins so
    the relative difficulty ordering of the paper's datasets is preserved.
    """
    key = dataset_name.lower()
    num_classes = scale.num_classes
    if "100" in key:
        num_classes = max(scale.num_classes * 2, 4)
    elif "imagenet" in key:
        num_classes = max(scale.num_classes * 2, 8)
    rng = new_rng(stable_hash_seed("dataset", dataset_name, scale.seed))
    dataset = make_cifar_like(
        num_samples=scale.num_samples,
        num_classes=num_classes,
        image_size=scale.image_size,
        rng=rng,
        name=f"synthetic-{dataset_name}",
    )
    return dataset.split(0.8, rng)


def build_reduced_model(model_name: str, num_classes: int, scale: ExperimentScale) -> Layer:
    """Build the reduced runnable counterpart of a paper model.

    AlexNet maps to the Conv-ReLU model, ResNet-<d> maps to a reduced
    basic-block ResNet whose depth grows with ``d`` so the "deeper networks
    get sparser gradients" trend can be observed.  VGG-<d> maps to a reduced
    uniform Conv-ReLU-MaxPool stack and MobileNetV1 to a reduced
    depthwise-separable model, so density measurements see the right
    structural class (Conv-ReLU vs Conv-BN-ReLU) and the grouped dataflow.
    """
    key = model_name.lower().replace("_", "-")
    rng = new_rng(stable_hash_seed("model", model_name, scale.seed))
    if key == "alexnet":
        return build_alexnet(
            num_classes=num_classes,
            image_size=scale.image_size,
            width_scale=scale.width_scale,
            rng=rng,
        )
    if key.startswith("vgg"):
        return build_vgg(
            num_classes=num_classes,
            image_size=scale.image_size,
            width_scale=scale.width_scale,
            rng=rng,
            name=f"{model_name}-mini",
        )
    if key.startswith("mobilenet"):
        return build_mobilenet(
            num_classes=num_classes,
            image_size=scale.image_size,
            width_multiplier=scale.width_scale,
            rng=rng,
            name=f"{model_name}-mini",
        )
    if key.startswith("resnet"):
        try:
            depth = int(key.split("-", 1)[1])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"cannot parse ResNet depth from {model_name!r}") from exc
        # Scale the number of residual blocks with the nominal depth while
        # keeping the reduced model trainable in seconds.
        if depth <= 18:
            blocks = scale.resnet_blocks
        elif depth <= 34:
            blocks = tuple(b + 1 for b in scale.resnet_blocks)
        else:
            blocks = tuple(b + 2 for b in scale.resnet_blocks)
        return build_resnet(
            num_classes=num_classes,
            image_size=scale.image_size,
            blocks_per_stage=blocks,
            base_width=scale.resnet_width,
            rng=rng,
            name=f"{model_name}-mini",
        )
    raise ValueError(f"unknown model {model_name!r}")


def reduced_learning_rate(model_name: str) -> float:
    """The SGD step size every harness trains a reduced model with.

    The Conv-ReLU families without batch norm (AlexNet, VGG) need the
    smaller step; the batch-normalised ResNet and MobileNet families train
    at 0.05.
    """
    return 0.01 if model_family(model_name) in ("AlexNet", "VGG") else 0.05


def training_rng(scale: ExperimentScale, *context) -> np.random.Generator:
    """Derive a reproducible generator for one experiment configuration."""
    return new_rng(stable_hash_seed(scale.seed, *context))
