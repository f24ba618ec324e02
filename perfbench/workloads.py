"""The four benchmark workloads as runner configurations.

Each builder starts from the named preset it stands for and shrinks only
durations and trial counts, so the hot code runs exactly as in the paper's
presets.  Why each workload exists is in ``README.md`` beside this file.
"""

from __future__ import annotations

import math
from dataclasses import replace

from prealign.runner.config import ExperimentConfig
from prealign.runner.presets import reproduce

NAMES = ("noise", "parallel", "supervised", "probes")

NOISE_SAMPLES = 20_000  # per trial of noise and parallel
NOISE_TRIALS = 2
SUPERVISED_EPOCHS = 1
SUPERVISED_NOISE_SAMPLES = 5_000  # the short noise phase of fa_pre
PROBE_EPOCH_SAMPLES = 640
PROBE_EPOCHS = 8
ALIGN_SAMPLES = 80_000
PROBE_CAPTURE = ("angles", "distance", "eff_rank", "gram", "trajectory", "meta")

# Datasets each workload reads; the generator writes only these.
DATASETS = {
    "noise": (),
    "parallel": (),
    "supervised": ("mnist",),
    "probes": ("mnist", "fashion-mnist", "kmnist"),
}


def build(name: str, seed: int, output_dir, data_dir, nproc: int) -> ExperimentConfig:
    """Configuration of workload ``name`` for workload seed ``seed``."""
    common = dict(master_seed=seed, output_dir=str(output_dir), data_dir=str(data_dir))
    if name in ("noise", "parallel"):
        cfg = reproduce("fig1e")
        return replace(
            cfg,
            trials=NOISE_TRIALS,
            threads=1 if name == "noise" else min(2, nproc),
            pretrain=replace(cfg.pretrain, total_samples=NOISE_SAMPLES),
            **common,
        )
    if name == "supervised":
        cfg = reproduce("fig5b")
        return replace(
            cfg,
            variants=reproduce("fig2b").variants,
            trials=1,
            pretrain=replace(cfg.pretrain, total_samples=SUPERVISED_NOISE_SAMPLES),
            train=replace(cfg.train, epochs=SUPERVISED_EPOCHS),
            **common,
        )
    if name == "probes":
        cfg = reproduce("fig6a")
        return replace(
            cfg,
            trials=1,
            capture=PROBE_CAPTURE,
            dataset="mnist",
            test_size=5_000,
            traj_layer=reproduce("fig2e").traj_layer,
            pretrain=replace(
                cfg.pretrain,
                samples_per_epoch=PROBE_EPOCH_SAMPLES,
                total_samples=PROBE_EPOCH_SAMPLES * PROBE_EPOCHS,
            ),
            **common,
        )
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")


def alignment_check(seed: int, output_dir) -> ExperimentConfig:
    """One fig1e trial long enough that the last layer reliably aligns.

    Over the first few tens of thousands of noise samples the last-layer
    angle of some seeds still drifts upward; from about 60,000 samples on it
    sits below its initial value for every seed tried (24 of 24).
    """
    cfg = reproduce("fig1e")
    return replace(
        cfg,
        trials=1,
        master_seed=seed,
        output_dir=str(output_dir),
        pretrain=replace(cfg.pretrain, total_samples=ALIGN_SAMPLES),
    )


def noise_epochs(cfg: ExperimentConfig) -> int:
    return math.ceil(cfg.pretrain.total_samples / cfg.pretrain.samples_per_epoch)


def expected_rows(cfg: ExperimentConfig) -> dict[str, int]:
    """``records.csv`` row count per variant: one row per logging epoch of
    each phase, for every trial (no workload sets early stopping)."""
    rows = {}
    for v in cfg.variants:
        per_trial = 0
        if v.pretrain and cfg.pretrain is not None:
            per_trial += noise_epochs(cfg)
        if cfg.train is not None:
            per_trial += cfg.train.epochs
        rows[v.name] = cfg.trials * per_trial
    return rows


def noise_samples(cfg: ExperimentConfig) -> int:
    """Noise samples drawn by one run of ``cfg``."""
    pre = sum(1 for v in cfg.variants if v.pretrain)
    return cfg.trials * pre * cfg.pretrain.total_samples


def train_sample_epochs(cfg: ExperimentConfig) -> int:
    """Supervised samples visited by one run of ``cfg``, counted per epoch."""
    if cfg.train is None:
        return 0
    return cfg.trials * len(cfg.variants) * cfg.train_size * cfg.train.epochs


def rows_used(cfg: ExperimentConfig, test_rows: int) -> int:
    """Dataset rows one run trains or evaluates on: the training subset when
    a train phase runs, the evaluation subset, and the whole test split of
    each few-shot task (its sampling pool)."""
    used = 0
    if cfg.train is not None:
        used += cfg.train_size
    if cfg.dataset is not None:
        used += cfg.test_size
    if cfg.meta is not None:
        used += len(cfg.meta.tasks) * test_rows
    return used
