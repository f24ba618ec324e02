"""Named experiment presets, one per headline result.

Each preset returns a fully resolved, full-duration configuration; callers
shrink it for desk-scale runs with :func:`..config.apply_scale`.  Trial
counts follow each result's own protocol (10 networks for the figure-style
results, 3 for the table-style ones).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..data import TransformSpec
from ..learn import TrainConfig
from ..noise import Gaussian, NoiseConfig
from .config import ExperimentConfig, MetaSettings, VariantSpec

__all__ = ["FIGURE_IDS", "reproduce"]

_FA = VariantSpec(name="fa", rule="FA", pretrain=False)
_FA_PRE = VariantSpec(name="fa_pre", rule="FA", pretrain=True)
_BP = VariantSpec(name="bp", rule="BP", pretrain=False)

_NOISE = NoiseConfig(
    distribution=Gaussian(0.0, 1.0),
    total_samples=500_000,
    samples_per_epoch=5_000,
    batch_size=64,
    learning_rate=1e-4,
)


def _fig1e() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig1e",
        dims=(784, 100, 10),
        variants=[_FA_PRE],
        trials=10,
        pretrain=_NOISE,
        capture=("angles",),
        output_dir="out/fig1e",
        notes="alignment angles during noise-only training",
    )


def _fig1f() -> ExperimentConfig:
    cfg = _fig1e()
    cfg.experiment_id = "fig1f"
    cfg.output_dir = "out/fig1f"
    cfg.sweep = {
        "pretrain.distribution.std": [round(0.1 * i, 1) for i in range(21)]
    }
    cfg.notes = "final alignment vs input noise standard deviation"
    return cfg


def _fig2b() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig2b",
        dims=(784, 100, 10),
        variants=[_FA, _FA_PRE, _BP],
        trials=10,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=100),
        dataset="mnist",
        train_size=5_000,
        test_size=5_000,
        output_dir="out/fig2b",
        notes="learning curves: FA vs noise-pretrained FA vs BP, shared inits",
    )


def _fig2e() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig2e",
        dims=(784, 100, 10),
        variants=[_FA_PRE],
        trials=10,
        pretrain=_NOISE,
        capture=("distance", "trajectory"),
        traj_layer=0,
        output_dir="out/fig2e",
        notes="first-layer weight trajectory toward feedback during noise training",
    )


def _fig2g() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig2g",
        dims=(784, 100, 10),
        variants=[
            VariantSpec(name="noise_then_data", rule="FA", pretrain=True,
                        order="noise_first"),
            VariantSpec(name="data_then_noise", rule="FA", pretrain=True,
                        order="data_first"),
        ],
        trials=10,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=100),
        dataset="mnist",
        train_size=5_000,
        test_size=5_000,
        capture=("angles",),
        output_dir="out/fig2g",
        notes="phase-order dependence of the noise-training benefit",
    )


def _fig3() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig3",
        dims=(784, 100, 10),
        variants=[_FA, _FA_PRE, _BP],
        trials=3,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=500, patience=10),
        dataset="mnist",
        output_dir="out/fig3",
        notes="full-dataset convergence with patience-10 early stopping",
    )


def _fig4d() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig4d",
        dims=(784, 100, 100, 10),
        variants=[_FA_PRE],
        trials=10,
        pretrain=_NOISE,
        capture=("eff_rank",),
        output_dir="out/fig4d",
        notes="weight effective rank during noise-only training",
    )


def _fig4ef() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig4ef",
        dims=(784, 100, 100, 10),
        variants=[_FA, _FA_PRE],
        trials=10,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=500),
        dataset="mnist",
        train_size=1_600,
        test_size=1_000,
        sweep={"train_size": [100, 200, 400, 800, 1600]},
        output_dir="out/fig4ef",
        notes="accuracy and generalization gap vs training-set size",
    )


def _fig4gh() -> ExperimentConfig:
    dims_per_depth = [[784] + [100] * h + [10] for h in (3, 4, 5, 6, 7)]
    return ExperimentConfig(
        experiment_id="fig4gh",
        dims=(784, 100, 100, 100, 10),
        variants=[_FA, _FA_PRE],
        trials=10,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=500),
        dataset="mnist",
        train_size=1_600,
        test_size=1_000,
        capture=("gram",),
        sweep={"dims": dims_per_depth},
        output_dir="out/fig4gh",
        notes="feature dimensionality and accuracy vs network depth",
    )


def _fig5b() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig5b",
        dims=(784, 100, 100, 10),
        variants=[_FA, _FA_PRE],
        trials=10,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=100),
        dataset="mnist",
        train_size=5_000,
        test_size=5_000,
        eval_transform=TransformSpec(
            translate_frac=(-0.05, 0.05),
            scale=(0.8, 1.2),
            rotate_deg=(-25.0, 25.0),
        ),
        capture=("clean_test",),
        output_dir="out/fig5b",
        notes="test split replaced by randomly translated/scaled/rotated images",
    )


def _fig5c() -> ExperimentConfig:
    cfg = _fig5b()
    cfg.experiment_id = "fig5c"
    cfg.eval_transform = None
    cfg.eval_dataset = "usps"
    cfg.test_size = None
    cfg.output_dir = "out/fig5c"
    cfg.notes = "train on one digit set, test on another (16x16 source resized)"
    return cfg


def _fig6a() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig6a",
        dims=(784, 100, 100, 10),
        variants=[_FA_PRE],
        trials=10,
        pretrain=_NOISE,
        capture=("meta",),
        meta=MetaSettings(
            tasks=("mnist", "fashion-mnist", "kmnist"),
            shots_per_class=10,
            inner_steps=10,
            inner_lr=0.001,
            query_per_class=10,
        ),
        output_dir="out/fig6a",
        notes="adaptation loss across three tasks during noise-only training",
    )


def _fig6c() -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="fig6c",
        dims=(784, 100, 100, 10),
        variants=[_FA, _FA_PRE],
        trials=10,
        pretrain=_NOISE,
        train=TrainConfig(learning_rate=1e-4, batch_size=64, epochs=100),
        dataset="mnist",
        train_size=5_000,
        test_size=5_000,
        sweep={"dataset": ["mnist", "fashion-mnist", "kmnist"]},
        output_dir="out/fig6c",
        notes="per-task adaptation speed, untrained vs noise-pretrained",
    )


def _table1() -> ExperimentConfig:
    cfg = _fig3()
    cfg.experiment_id = "table1"
    cfg.trials = 3
    cfg.output_dir = "out/table1"
    cfg.notes = "final-accuracy comparison on the full dataset (2-layer)"
    return cfg


_REGISTRY = {
    "fig1e": _fig1e,
    "fig1f": _fig1f,
    "fig2b": _fig2b,
    "fig2e": _fig2e,
    "fig2g": _fig2g,
    "fig3": _fig3,
    "fig4d": _fig4d,
    "fig4ef": _fig4ef,
    "fig4gh": _fig4gh,
    "fig5b": _fig5b,
    "fig5c": _fig5c,
    "fig6a": _fig6a,
    "fig6c": _fig6c,
    "table1": _table1,
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
