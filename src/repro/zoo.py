"""Model zoo: the case-study model, trained on demand and cached on disk.

The paper takes a pre-trained ResNet-18 from the Tengine Model Zoo.  This
module is the offline equivalent: it trains a (width-reduced) ResNet-18 on
the synthetic CIFAR-10-like dataset, caches the weights under
``~/.cache/repro-nvdla-fi`` (or a caller-supplied directory) and assembles a
ready-to-use :class:`~repro.core.platform.EmulationPlatform`.

Examples and benchmarks call :func:`build_case_study_platform` so that the
(pure-numpy) training cost is paid once per parameter combination.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.platform import EmulationPlatform, PlatformConfig
from repro.data.synthetic_cifar import SyntheticCIFAR10
from repro.nn.graph import Graph
from repro.nn.mobilenet import build_mobilenet
from repro.nn.resnet import build_resnet18
from repro.nn.train import TrainConfig, Trainer, evaluate_accuracy
from repro.utils.logging import get_logger

logger = get_logger(__name__)

DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", Path.home() / ".cache" / "repro-nvdla-fi"))


@dataclass
class CaseStudySpec:
    """Parameters of the case-study model and dataset."""

    width_multiplier: float = 0.25
    num_train: int = 1500
    num_test: int = 300
    epochs: int = 6
    batch_size: int = 50
    seed: int = 7
    #: Architecture family ("resnet18" or "mobilenet"); selects the graph
    #: builder and is part of the cache key — two families with identical
    #: hyper-parameters must never share cached weights.
    family: str = "resnet18"

    def cache_key(self) -> str:
        return (
            f"{self.family}_w{self.width_multiplier:g}_tr{self.num_train}_te{self.num_test}"
            f"_e{self.epochs}_b{self.batch_size}_s{self.seed}"
        )


#: Graph builders by architecture family.  Both builders share the
#: ``(num_classes, input_shape, width_multiplier, seed)`` signature, which is
#: what lets :func:`case_study_platform_spec` ship either through the same
#: picklable :class:`~repro.core.parallel.PlatformSpec` recipe.
CASE_STUDY_FAMILIES: dict = {
    "resnet18": build_resnet18,
    "mobilenet": build_mobilenet,
}


def case_study_builder(family: str):
    """Look up the graph builder of an architecture ``family``."""
    try:
        return CASE_STUDY_FAMILIES[family]
    except KeyError:
        raise KeyError(
            f"unknown case-study family {family!r}; available: "
            f"{sorted(CASE_STUDY_FAMILIES)}"
        ) from None


#: Named case-study variants selectable by sweep specs and the CLI.  The
#: default (width 0.25) is the paper's case-study scale; the narrower and
#: wider variants bracket it so scenario grids can sweep model capacity.
#: The ``dw`` variants swap in the depthwise-separable MobileNet-style
#: family, exercising the compiler's depthwise expansion path end to end.
CASE_STUDY_VARIANTS: dict[str, CaseStudySpec] = {
    "default": CaseStudySpec(),
    "w0.125": CaseStudySpec(width_multiplier=0.125),
    "w0.25": CaseStudySpec(width_multiplier=0.25),
    "w0.5": CaseStudySpec(width_multiplier=0.5),
    "dw": CaseStudySpec(family="mobilenet"),
    "dw0.125": CaseStudySpec(family="mobilenet", width_multiplier=0.125),
}


def case_study_variant(name: str) -> CaseStudySpec:
    """Look up a named :class:`CaseStudySpec` variant (e.g. ``"w0.125"``)."""
    try:
        return CASE_STUDY_VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown case-study variant {name!r}; available: "
            f"{sorted(CASE_STUDY_VARIANTS)}"
        ) from None


@dataclass
class CaseStudyModel:
    """A trained case-study model plus its dataset and float accuracy."""

    graph: Graph
    dataset: SyntheticCIFAR10
    spec: CaseStudySpec
    _float_accuracy: float | None = field(default=None, repr=False)

    @property
    def float_accuracy(self) -> float:
        """Top-1 float accuracy on the test split, evaluated on first access."""
        if self._float_accuracy is None:
            self._float_accuracy = evaluate_accuracy(
                self.graph, self.dataset.test_images, self.dataset.test_labels
            )
        return self._float_accuracy


def _cache_path(spec: CaseStudySpec, cache_dir: Path) -> Path:
    return cache_dir / f"{spec.cache_key()}.npz"


def train_case_study_model(
    spec: CaseStudySpec | None = None,
    cache_dir: Path | str | None = None,
    force_retrain: bool = False,
) -> CaseStudyModel:
    """Train (or load from cache) the case-study ResNet-18.

    The returned graph has the full ResNet-18 topology at a reduced width so
    that training and the fault-injection campaigns run at numpy speed; the
    compiled network still exercises every accelerator feature the paper's
    full-size model does (all layer types, residual joins, channel counts
    that exceed and are not multiples of the 8-lane atomic size for the stem).
    """
    spec = spec or CaseStudySpec()
    cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
    dataset = SyntheticCIFAR10(num_train=spec.num_train, num_test=spec.num_test, seed=spec.seed)
    graph = case_study_builder(spec.family)(
        num_classes=dataset.num_classes,
        input_shape=dataset.input_shape,
        width_multiplier=spec.width_multiplier,
        seed=spec.seed,
    )

    path = _cache_path(spec, cache_dir)
    if path.exists() and not force_retrain:
        state = dict(np.load(path))
        graph.load_state_dict(state)
        graph.eval()
        logger.info("loaded cached case-study model from %s", path)
        return CaseStudyModel(graph=graph, dataset=dataset, spec=spec)

    logger.info("training case-study model (%s)", spec.cache_key())
    trainer = Trainer(
        graph,
        TrainConfig(
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            lr=0.08,
            momentum=0.9,
            weight_decay=5e-4,
            seed=spec.seed,
        ),
    )
    trainer.fit(dataset.train_images, dataset.train_labels, dataset.test_images, dataset.test_labels)
    accuracy = evaluate_accuracy(graph, dataset.test_images, dataset.test_labels)

    cache_dir.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **graph.state_dict())
    logger.info("trained case-study model: accuracy %.3f, cached at %s", accuracy, path)
    return CaseStudyModel(graph=graph, dataset=dataset, spec=spec, _float_accuracy=accuracy)


def build_case_study_platform(
    spec: CaseStudySpec | None = None,
    platform_config: PlatformConfig | None = None,
    cache_dir: Path | str | None = None,
    calibration_images: int = 64,
) -> tuple[EmulationPlatform, CaseStudyModel]:
    """Train/load the case-study model and wrap it in an emulation platform.

    Delegates to :func:`case_study_platform_spec` so that an in-process
    platform and the platforms that campaign workers rebuild from the spec
    can never drift apart.
    """
    platform_spec, case = case_study_platform_spec(
        spec,
        platform_config=platform_config,
        cache_dir=cache_dir,
        calibration_images=calibration_images,
    )
    return platform_spec.build(), case


def case_study_platform_spec(
    spec: CaseStudySpec | None = None,
    platform_config: PlatformConfig | None = None,
    cache_dir: Path | str | None = None,
    calibration_images: int = 64,
) -> tuple["PlatformSpec", CaseStudyModel]:
    """Train/load the case-study model and return a picklable platform recipe.

    The returned :class:`~repro.core.parallel.PlatformSpec` is what the
    parallel campaign runner ships to worker processes: each worker rebuilds
    the (already trained) model and compiles its own platform exactly once.
    """
    from repro.core.parallel import PlatformSpec

    spec = spec or CaseStudySpec()
    case = train_case_study_model(spec, cache_dir=cache_dir)
    platform_spec = PlatformSpec(
        graph_builder=case_study_builder(spec.family),
        builder_kwargs=dict(
            num_classes=case.dataset.num_classes,
            input_shape=case.dataset.input_shape,
            width_multiplier=spec.width_multiplier,
            seed=spec.seed,
        ),
        state=case.graph.state_dict(),
        calibration_images=case.dataset.calibration_batch(calibration_images),
        platform_config=platform_config,
    )
    return platform_spec, case
