"""Model zoo: the named model/dataset combinations evaluated in the paper.

The paper's Fig. 8 / Fig. 9 sweep AlexNet and ResNet-18/34 over CIFAR-10,
CIFAR-100 and ImageNet (Table II additionally includes ResNet-152 on CIFAR).
``paper_workloads`` enumerates those combinations as :class:`ModelSpec`
objects so the latency/energy harness can iterate over them;
``extended_workloads`` adds the VGG and MobileNet families this reproduction
grows beyond the paper, and ``model_family`` groups every supported model
name into the family whose reduced model measures its densities.

Every supported model is registered into the :mod:`repro.api` workload
registry (``@register_workload``); :func:`get_model_spec` and the experiment
pipelines resolve names through that registry, so adding a model family is a
registry entry here rather than new dispatch code in every harness.
"""

from __future__ import annotations

from repro.api.registry import WORKLOADS, register_workload
from repro.models.alexnet import alexnet_cifar_spec, alexnet_imagenet_spec
from repro.models.mobilenet import mobilenet_spec
from repro.models.resnet import resnet_spec, supported_depths
from repro.models.spec import ModelSpec
from repro.models.vgg import supported_vgg_depths, vgg_spec

# The dataset grid every registered workload supports.
KNOWN_DATASETS: tuple[str, ...] = ("CIFAR-10", "CIFAR-100", "ImageNet")

# Validated specs by normalized (model, dataset).  A ModelSpec is frozen and
# the registry rejects re-registering a name, so one build per key is exact.
_SPECS: dict[tuple[str, str], ModelSpec] = {}


def normalize_model_name(model: str) -> str:
    """Canonicalise a model name: ``"resnet18"``/``"ResNet_18"`` -> ``"ResNet-18"``.

    Lookup helpers across the codebase accept slightly different spellings
    (``eval.common`` takes ``resnet-18``, older callers wrote ``ResNet18``);
    this collapses case, separators (``-``, ``_``, spaces) and returns the
    canonical paper spelling.  ``vgg16``/``VGG-16`` map to ``"VGG-16"`` and
    ``mobilenet``/``mobilenet_v1``/``MobileNetV1`` to ``"MobileNetV1"``.
    Unknown names are returned stripped so callers raise their own, more
    specific errors.
    """
    key = "".join(ch for ch in model.strip().lower() if ch not in "-_ ")
    if key == "alexnet":
        return "AlexNet"
    if key.startswith("resnet") and key[len("resnet"):].isdigit():
        return f"ResNet-{int(key[len('resnet'):])}"
    if key.startswith("vgg") and key[len("vgg"):].isdigit():
        return f"VGG-{int(key[len('vgg'):])}"
    if key in ("mobilenet", "mobilenetv1"):
        return "MobileNetV1"
    return model.strip()


def model_family(model: str) -> str:
    """The density-measurement family of a model name.

    Fig. 8 / Fig. 9 measure per-layer densities once per *family* on a
    reduced model and map them onto every full-size member by relative depth.
    """
    name = normalize_model_name(model)
    if name in WORKLOADS:
        return WORKLOADS.get(name).family
    # Unregistered depths of a registered family still map onto it.
    if name.startswith("ResNet-"):
        return "ResNet"
    if name.startswith("VGG-"):
        return "VGG"
    raise ValueError(f"unknown model {model!r}; no density-measurement family")


def normalize_dataset_name(dataset: str) -> str:
    """Canonicalise a dataset name: ``"cifar10"`` -> ``"CIFAR-10"`` etc."""
    key = "".join(ch for ch in dataset.strip().lower() if ch not in "-_ ")
    if key == "cifar10":
        return "CIFAR-10"
    if key == "cifar100":
        return "CIFAR-100"
    if key == "imagenet":
        return "ImageNet"
    return dataset.strip()


# ---------------------------------------------------------------------------
# Workload registry entries
# ---------------------------------------------------------------------------

def _alexnet_workload(dataset: str) -> ModelSpec:
    if dataset == "ImageNet":
        return alexnet_imagenet_spec()
    if dataset == "CIFAR-10":
        return alexnet_cifar_spec(10)
    if dataset == "CIFAR-100":
        return alexnet_cifar_spec(100)
    raise ValueError(f"unknown dataset {dataset!r} for AlexNet")


register_workload(
    "AlexNet",
    family="AlexNet",
    datasets=KNOWN_DATASETS,
    description="Conv-ReLU, prunes dI (paper Section IV-A)",
)(_alexnet_workload)

for _depth in supported_depths():
    register_workload(
        f"ResNet-{_depth}",
        family="ResNet",
        datasets=KNOWN_DATASETS,
        description="Conv-BN-ReLU, prunes dO",
    )(lambda dataset, _depth=_depth: resnet_spec(_depth, dataset))

for _depth in supported_vgg_depths():
    register_workload(
        f"VGG-{_depth}",
        family="VGG",
        datasets=KNOWN_DATASETS,
        description="uniform 3x3 Conv-ReLU stacks, prunes dI",
    )(lambda dataset, _depth=_depth: vgg_spec(_depth, dataset))

register_workload(
    "MobileNetV1",
    family="MobileNet",
    datasets=KNOWN_DATASETS,
    description="depthwise-separable Conv-BN-ReLU, prunes dO",
)(lambda dataset: mobilenet_spec(dataset))


def get_model_spec(model: str, dataset: str) -> ModelSpec:
    """Look up a model/dataset combination through the workload registry.

    Parameters
    ----------
    model:
        ``"AlexNet"``, ``"ResNet-<depth>"`` (depth in 18/34/50/101/152),
        ``"VGG-<depth>"`` (11 or 16) or ``"MobileNetV1"``.  Name matching is
        forgiving: case, hyphens and underscores are ignored, so
        ``"resnet18"``, ``"vgg16"`` and ``"mobilenet_v1"`` all resolve.
    dataset:
        ``"CIFAR-10"``, ``"CIFAR-100"`` or ``"ImageNet"`` (same forgiving
        matching: ``"cifar10"`` works too).

    Every spelling of one combination returns the same (memoized) object.
    """
    model_name = normalize_model_name(model)
    dataset_name = normalize_dataset_name(dataset)
    spec = _SPECS.get((model_name, dataset_name))
    if spec is not None:
        return spec
    if model_name not in WORKLOADS:
        # Keep the specific parse errors for family-prefixed names so typos
        # like "ResNet-abc" name the model instead of listing the registry.
        key = model_name.lower()
        if key.startswith("resnet"):
            depth = key.partition("-")[2]
            if depth.isdigit():
                raise ValueError(
                    f"unsupported ResNet depth {depth}; choose from {supported_depths()}"
                )
            raise ValueError(f"cannot parse ResNet depth from {model!r}")
        if key.startswith("vgg"):
            depth = key.partition("-")[2]
            if depth.isdigit():
                raise ValueError(
                    f"unsupported VGG depth {depth}; choose from {supported_vgg_depths()}"
                )
            raise ValueError(f"cannot parse VGG depth from {model!r}")
        raise ValueError(
            f"unknown model {model!r}; registered workload models: "
            f"{', '.join(WORKLOADS.names())}"
        )
    workload = WORKLOADS.get(model_name)
    if dataset_name not in workload.datasets:
        raise ValueError(
            f"unknown dataset {dataset!r} for {model_name}; known datasets: "
            f"{', '.join(workload.datasets)}"
        )
    spec = _SPECS[(model_name, dataset_name)] = workload.spec(dataset_name)
    return spec


def paper_workloads(include_imagenet: bool = True) -> list[ModelSpec]:
    """The model/dataset grid of the paper's Fig. 8 and Fig. 9."""
    combinations = [
        ("AlexNet", "CIFAR-10"),
        ("AlexNet", "CIFAR-100"),
        ("ResNet-18", "CIFAR-10"),
        ("ResNet-18", "CIFAR-100"),
        ("ResNet-34", "CIFAR-10"),
        ("ResNet-34", "CIFAR-100"),
    ]
    if include_imagenet:
        combinations.extend(
            [
                ("AlexNet", "ImageNet"),
                ("ResNet-18", "ImageNet"),
                ("ResNet-34", "ImageNet"),
            ]
        )
    return [get_model_spec(model, dataset) for model, dataset in combinations]


def extended_workloads(include_imagenet: bool = True) -> list[ModelSpec]:
    """The paper grid plus the VGG-16 and MobileNetV1 efficiency workloads."""
    combinations = [("VGG-16", "CIFAR-10"), ("MobileNetV1", "CIFAR-10")]
    if include_imagenet:
        combinations.extend([("VGG-16", "ImageNet"), ("MobileNetV1", "ImageNet")])
    return paper_workloads(include_imagenet) + [
        get_model_spec(model, dataset) for model, dataset in combinations
    ]


def table2_workloads() -> list[tuple[str, str]]:
    """The (model, dataset) rows of the paper's Table II."""
    rows: list[tuple[str, str]] = []
    for dataset in ("CIFAR-10", "CIFAR-100", "ImageNet"):
        models = ["AlexNet", "ResNet-18", "ResNet-34"]
        if dataset.startswith("CIFAR"):
            models.append("ResNet-152")
        for model in models:
            rows.append((model, dataset))
    return rows
