"""Named experiment presets, one per headline result.

Every result of the paper runs one of two protocols with a few settings
changed, and each preset names only those.  The noise-only protocol
(:func:`_noise_only`) pretrains one arm of 784-100-10 feedback-alignment
networks on noise at the :class:`NoiseConfig` defaults, over 10 trials.  The
supervised protocol (:func:`_supervised`) follows that noise phase with
training at the :class:`TrainConfig` defaults on 5,000 MNIST training and
5,000 test images, beside an FA arm that skips the noise phase.  Protocol
values come from those dataclass defaults and are stated nowhere here.

Each preset returns a fully resolved, full-duration configuration; callers
shrink it for desk-scale runs with :func:`..config.apply_scale`.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..data import TransformSpec
from ..learn import TrainConfig
from ..noise import NoiseConfig
from .config import ExperimentConfig, MetaSettings, VariantSpec

__all__ = ["FIGURE_IDS", "reproduce"]

_FA = VariantSpec(name="fa")
_FA_PRE = VariantSpec(name="fa_pre", pretrain=True)
_BP = VariantSpec(name="bp", rule="BP")
_DEEP = (784, 100, 100, 10)


def _noise_only(experiment_id: str, notes: str, **changes) -> ExperimentConfig:
    """Noise-only pretraining of one FA arm, 784-100-10, 10 trials."""
    protocol = dict(dims=(784, 100, 10), variants=[_FA_PRE], trials=10,
                    pretrain=NoiseConfig(), output_dir=f"out/{experiment_id}")
    return ExperimentConfig(experiment_id=experiment_id, notes=notes,
                            **{**protocol, **changes})


def _supervised(experiment_id: str, notes: str, **changes) -> ExperimentConfig:
    """The noise phase, then supervised training on 5,000/5,000 MNIST images,
    beside an FA arm without the noise phase."""
    protocol = dict(variants=[_FA, _FA_PRE], train=TrainConfig(), dataset="mnist",
                    train_size=5_000, test_size=5_000)
    return _noise_only(experiment_id, notes, **{**protocol, **changes})


def _fig3(experiment_id: str = "fig3",
          notes: str = "full-dataset convergence with patience-10 early stopping",
          ) -> ExperimentConfig:
    return _supervised(experiment_id, notes, variants=[_FA, _FA_PRE, _BP], trials=3,
                       train=TrainConfig(epochs=500, patience=10),
                       train_size=None, test_size=None)


def _fig4ef(experiment_id: str = "fig4ef",
            notes: str = "accuracy and generalization gap vs training-set size",
            **changes) -> ExperimentConfig:
    return _supervised(experiment_id, notes, **{
        "dims": _DEEP,
        "train": TrainConfig(epochs=500),
        "train_size": 1_600,
        "test_size": 1_000,
        "sweep": {"train_size": [100, 200, 400, 800, 1600]},
        **changes,
    })


def _fig5b(experiment_id: str = "fig5b",
           notes: str = "test split replaced by randomly translated/scaled/rotated images",
           **changes) -> ExperimentConfig:
    return _supervised(experiment_id, notes, **{
        "dims": _DEEP,
        "eval_transform": TransformSpec(translate_frac=(-0.05, 0.05), scale=(0.8, 1.2),
                                        rotate_deg=(-25.0, 25.0)),
        "capture": ("clean_test",),
        **changes,
    })


_REGISTRY = {
    "fig1e": lambda: _noise_only(
        "fig1e", "alignment angles during noise-only training", capture=("angles",)),
    "fig1f": lambda: _noise_only(
        "fig1f", "final alignment vs input noise standard deviation",
        capture=("angles",),
        sweep={"pretrain.distribution.std": [round(0.1 * i, 1) for i in range(21)]}),
    "fig2b": lambda: _supervised(
        "fig2b", "learning curves: FA vs noise-pretrained FA vs BP, shared inits",
        variants=[_FA, _FA_PRE, _BP]),
    "fig2e": lambda: _noise_only(
        "fig2e", "first-layer weight trajectory toward feedback during noise training",
        capture=("distance", "trajectory")),
    "fig2g": lambda: _supervised(
        "fig2g", "phase-order dependence of the noise-training benefit",
        variants=[VariantSpec(name="noise_then_data", pretrain=True),
                  VariantSpec(name="data_then_noise", pretrain=True,
                              order="data_first")],
        capture=("angles",)),
    "fig3": _fig3,
    "fig4d": lambda: _noise_only(
        "fig4d", "weight effective rank during noise-only training",
        dims=_DEEP, capture=("eff_rank",)),
    "fig4ef": _fig4ef,
    "fig4gh": lambda: _fig4ef(
        "fig4gh", "feature dimensionality and accuracy vs network depth",
        dims=(784, 100, 100, 100, 10), capture=("gram",),
        sweep={"dims": [[784] + [100] * h + [10] for h in (3, 4, 5, 6, 7)]}),
    "fig5b": _fig5b,
    "fig5c": lambda: _fig5b(
        "fig5c", "train on one digit set, test on another (16x16 source resized)",
        eval_transform=None, eval_dataset="usps", test_size=None),
    "fig6a": lambda: _noise_only(
        "fig6a", "adaptation loss across three tasks during noise-only training",
        dims=_DEEP, capture=("meta",), meta=MetaSettings()),
    # the adaptation speed on each of fig6a's few-shot tasks
    "fig6c": lambda: _supervised(
        "fig6c", "per-task adaptation speed, untrained vs noise-pretrained",
        dims=_DEEP, sweep={"dataset": list(MetaSettings().tasks)}),
    "table1": lambda: _fig3(
        "table1", "final-accuracy comparison on the full dataset (2-layer)"),
}

FIGURE_IDS = tuple(sorted(_REGISTRY))


def reproduce(figure_id: str) -> ExperimentConfig:
    """Fully resolved full-duration config for a named result."""
    try:
        builder = _REGISTRY[figure_id]
    except KeyError:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        ) from None
    return builder()
