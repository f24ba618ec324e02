"""Experiment orchestration: configs, presets, the runner, and emission."""

from .config import ExperimentConfig, MetaSettings, VariantSpec
from .experiment import load_named_dataset, load_named_split, run_experiment
from .presets import FIGURE_IDS, reproduce

__all__ = [
    "ExperimentConfig",
    "MetaSettings",
    "VariantSpec",
    "FIGURE_IDS",
    "reproduce",
    "load_named_dataset",
    "load_named_split",
    "run_experiment",
]
