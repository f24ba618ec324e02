"""Experiment execution: dataset resolution, trials, phases, outputs.

A run is one list of ``(point, trial, variant)`` items: a config with a
sweep expands into its points, and a config without one is one point.  Every
point's datasets are resolved before any item runs, once per distinct data
spec, so missing files fail before any compute.  The items then run on one
pool, longest first, or serially in list order.  Every variant of a trial
starts from identical initial weights; every random stream of a trial is
derived from the trial's seed, and every stream a whole point shares (data
subsets, the evaluation transform, few-shot episodes) from ``master_seed``,
each with a distinct label, so adding a metric never perturbs training
randomness.
Outputs per point: ``records.csv`` (per variant),
``model_<trial>_<phase>.bin`` checkpoints and a ``manifest.json`` embedding
the resolved config, seeds, initial-state metrics, per-trial summaries and
failures; a sweep adds an index manifest above its points.  Errors are written, then raised: a failing pair is
recorded in its point's manifest, and only after every point's outputs are
on disk is the first error of the first point in which no pair succeeded
raised.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .. import __version__
from ..data import Dataset, load_idx, load_usps_libsvm, subset, synthetic_blobs, \
    transform_affine
from ..errors import ConfigError, DataError, PrealignError
from ..learn import _one_blas_thread, _openblas_threads, evaluate, train
from ..metrics import (
    accuracy_auc,
    alignment_angles,
    effective_rank,
    gram_effective_dim,
    meta_loss,
    weight_feedback_distance,
    weight_trajectory_pca,
)
from ..net import forward, init_mlp, save_mlp
from ..noise import pretrain_random_noise
from ..records import RunRecord
from ..seeds import derive_entropy, derive_trial_seed, rng_for
from .config import ExperimentConfig, config_to_dict, expand_sweep, config_from_dict
from .emit import emit_csv, write_manifest

__all__ = ["load_named_split", "run_experiment", "DATASET_NAMES"]

DATASET_NAMES = (
    "mnist",
    "fashion-mnist",
    "kmnist",
    "usps",
    "blobs",
)

def default_data_dir(cfg_value: str | None = None) -> str:
    return cfg_value or os.environ.get("PREALIGN_DATA_DIR") or "data"


def _find(root: Path, name: str) -> Path:
    tried = [root / name, root / (name + ".gz")]
    for p in tried:
        if p.exists():
            return p
    raise DataError(f"missing data file; tried: {', '.join(map(str, tried))}")


def load_named_split(
    name: str, split: str, data_dir, input_dim: int = 784, class_count: int = 10
) -> Dataset:
    """Load one split, ``"train"`` or ``"test"``, of a dataset by name from
    its conventional layout under ``data_dir``; only that split's files are
    read.  ``blobs`` is synthetic and needs no files (``input_dim``/
    ``class_count`` apply only to it)."""
    if split not in ("train", "test"):
        raise ConfigError(f"unknown split {split!r}; valid: train, test")
    train = split == "train"
    if name == "blobs":
        full = synthetic_blobs(3072, input_dim, class_count, seed=7)
        rows = slice(None, 2048) if train else slice(2048, None)
        return Dataset(full.images[rows].copy(), full.labels[rows].copy(),
                       full.class_count, f"blobs-{split}")
    root = Path(data_dir) / name
    if name in ("mnist", "fashion-mnist", "kmnist"):
        prefix = "train" if train else "t10k"
        return load_idx(_find(root, f"{prefix}-images-idx3-ubyte"),
                        _find(root, f"{prefix}-labels-idx1-ubyte"))
    if name == "usps":
        return load_usps_libsvm(_find(root, "usps" if train else "usps.t"))
    raise ConfigError(f"unknown dataset {name!r}; valid: {DATASET_NAMES}")


def _data_key(cfg: ExperimentConfig) -> tuple:
    """The fields :class:`_ResolvedData` reads; points with equal keys share
    one resolved object, which is safe because dataset arrays are read-only."""
    return (default_data_dir(cfg.data_dir), cfg.dataset, cfg.dims[0], cfg.dims[-1],
            cfg.master_seed, cfg.train_size, cfg.test_size, cfg.eval_dataset,
            cfg.eval_transform, None if cfg.meta is None else cfg.meta.tasks)


class _ResolvedData:
    """Splits an experiment actually trains and evaluates on, and the
    few-shot tasks of its ``meta`` capture."""

    def __init__(self, cfg: ExperimentConfig):
        self.train = None
        self.eval_test = None
        self.clean_test = None
        self.meta_tasks = None
        data_dir = default_data_dir(cfg.data_dir)

        def load(name, split):
            return load_named_split(name, split, data_dir, cfg.dims[0], cfg.dims[-1])

        if cfg.dataset is not None:
            train_ds = load(cfg.dataset, "train")
            test_ds = load(cfg.dataset, "test")
            sub_seed = derive_entropy(cfg.master_seed, "subset")[0] % 2**63
            if cfg.train_size is not None:
                train_ds = subset(train_ds, cfg.train_size, sub_seed)
            if cfg.test_size is not None:
                test_ds = subset(test_ds, cfg.test_size, sub_seed + 1)
            self.train = train_ds
            self.clean_test = test_ds
            self.eval_test = test_ds
            if cfg.eval_dataset is not None:
                self.eval_test = load(cfg.eval_dataset, "test")
            elif cfg.eval_transform is not None:
                self.eval_test = transform_affine(
                    test_ds, cfg.eval_transform,
                    seed=derive_entropy(cfg.master_seed, "transform")[0] % 2**63,
                )
        if cfg.meta is not None:
            self.meta_tasks = [load(name, "test") for name in cfg.meta.tasks]


def _capture_metrics(cfg: ExperimentConfig, mlp, data: _ResolvedData) -> dict:
    out = {}
    n_layers = mlp.n_layers
    if "angles" in cfg.capture:
        for l in range(n_layers):
            out[f"angle_mean_l{l}"] = alignment_angles(mlp, l).mean_deg
    if "distance" in cfg.capture:
        for l in range(n_layers):
            out[f"wb_dist_l{l}"] = weight_feedback_distance(mlp, l)
    if "eff_rank" in cfg.capture:
        for l in range(n_layers):
            out[f"eff_rank_l{l}"] = effective_rank(mlp.weights[l])
    if "gram" in cfg.capture:
        trace = forward(mlp, data.eval_test.images)
        out["gram_eff_dim"] = gram_effective_dim(trace.activations[-1])
    if "clean_test" in cfg.capture:
        loss, acc = evaluate(mlp, data.clean_test.images, data.clean_test.labels)
        out["clean_test_loss"] = loss
        out["clean_test_acc"] = acc
    if "meta" in cfg.capture:
        total, per_task = meta_loss(
            mlp, data.meta_tasks, cfg.meta,
            seed=derive_entropy(cfg.master_seed, "meta")[0] % 2**63,
        )
        out["meta_loss"] = total
        for name, value in zip(cfg.meta.tasks, per_task):
            out[f"meta_loss_{name}"] = value
    return out


def _run_single(cfg: ExperimentConfig, variant, trial: int,
                data: _ResolvedData, out_dir: Path):
    """One (trial, variant) run.  Returns (records, initial, summary)."""
    seed_t = derive_trial_seed(cfg.master_seed, trial)
    mlp = init_mlp(cfg.dims, rng_for(seed_t, "init"))
    trajectory: list[np.ndarray] = []

    def hook(epoch, net):
        metrics = _capture_metrics(cfg, net, data)
        if "trajectory" in cfg.capture:
            trajectory.append(net.weights[cfg.traj_layer].ravel().copy())
        return metrics

    initial = _capture_metrics(cfg, mlp, data)
    if data.eval_test is not None:
        loss, acc = evaluate(mlp, data.eval_test.images, data.eval_test.labels)
        initial["test_loss"] = loss
        initial["test_acc"] = acc

    phases = []
    if variant.pretrain:
        phases.append("pretrain")
    if cfg.train is not None:
        phases.append("train")
    if variant.order == "data_first":
        phases.reverse()
    records: list[RunRecord] = []
    for phase in phases:
        if phase == "pretrain":
            records += pretrain_random_noise(mlp, cfg.pretrain, trial, hook, seed=seed_t)
        else:
            records += train(
                mlp,
                data.train.images,
                data.train.labels,
                data.eval_test.images,
                data.eval_test.labels,
                cfg.train,
                trial=trial,
                snapshot_hook=hook,
                rule=variant.rule,
                seed=seed_t,
            )
        save_mlp(mlp, out_dir / f"model_{trial}_{phase}.bin")
    summary: dict = {"seed": seed_t, "phases": phases}
    if "trajectory" in cfg.capture:
        feedback_flat = mlp.feedback[cfg.traj_layer].T.ravel()
        coords, feedback_coord = weight_trajectory_pca(trajectory, feedback_flat)
        for rec, (cx, cy) in zip(records, coords):
            rec.metrics["traj_x"] = float(cx)
            rec.metrics["traj_y"] = float(cy)
        summary["feedback_coord"] = [float(feedback_coord[0]),
                                     float(feedback_coord[1])]
    train_records = [r for r in records if r.phase == "train"]
    if train_records:
        accs = [r.test_acc for r in train_records]
        summary["final_test_acc"] = train_records[-1].test_acc
        summary["best_test_acc"] = max(accs)
        summary["auc_test_acc"] = accuracy_auc(accs)
        summary["final_generalization_gap"] = (
            train_records[-1].test_loss - train_records[-1].train_loss
        )
        summary["epochs_ran"] = len(train_records)
    if records and records[-1].metrics:
        summary["final_metrics"] = dict(records[-1].metrics)
    return records, initial, summary


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a config; returns the manifest payload of the run, or the
    sweep index of a config with a sweep."""
    named = expand_sweep(config_to_dict(cfg)) if cfg.sweep else []
    points = [config_from_dict(doc) for _, doc in named] or [cfg]
    resolved: dict[tuple, _ResolvedData] = {}
    data = []
    for point in points:
        key = _data_key(point)
        if key not in resolved:
            resolved[key] = _ResolvedData(point)
        data.append(resolved[key])
    variant_dirs = []
    for point in points:
        out_root = Path(point.output_dir)
        single = len(point.variants) == 1
        dirs = {v.name: out_root if single else out_root / v.name
                for v in point.variants}
        for vdir in dirs.values():
            vdir.mkdir(parents=True, exist_ok=True)
        variant_dirs.append(dirs)
    if cfg.sweep:
        index = {
            "experiment_id": cfg.experiment_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "library_version": __version__,
            "sweep": cfg.sweep,
            "scale": cfg.scale,
            "points": [name for name, _ in named],
        }
        write_manifest(index, Path(cfg.output_dir) / "manifest.json")

    items = [(i, t, v) for i, point in enumerate(points)
             for t in range(point.trials) for v in point.variants]

    def run_item(item):
        i, trial, v = item
        try:
            return _run_single(points[i], v, trial, data[i], variant_dirs[i][v.name])
        except PrealignError as e:
            return e

    def work(item) -> int:
        """Noise samples plus train sample-epochs that ``item`` runs."""
        i, _, v = item
        point = points[i]
        noise = point.pretrain.total_samples if v.pretrain else 0
        if point.train is None:
            return noise
        return noise + point.train.epochs * data[i].train.n

    workers = min(cfg.threads, len(items))
    if workers > 1:
        # longest first, so that no worker is left alone with a long item at
        # the end; the outcomes go back into list order
        order = sorted(range(len(items)), key=lambda k: work(items[k]), reverse=True)
        with (_one_blas_thread() as blas_threads,
              ThreadPoolExecutor(max_workers=workers) as pool):
            ranked = pool.map(run_item, [items[k] for k in order])
            outcomes = [outcome for _, outcome in sorted(zip(order, ranked))]
    else:
        blas = _openblas_threads()
        blas_threads = None if blas is None else blas[1]()
        outcomes = [run_item(item) for item in items]

    first_error: PrealignError | None = None
    for i, point in enumerate(points):
        by_variant: dict[str, list[RunRecord]] = {v.name: [] for v in point.variants}
        initial_metrics: dict[str, dict] = {v.name: {} for v in point.variants}
        summaries: dict[str, dict] = {v.name: {} for v in point.variants}
        failures: list[dict] = []
        errors = []
        for (j, trial, v), outcome in zip(items, outcomes):
            if j != i:
                continue
            if isinstance(outcome, PrealignError):
                failures.append(
                    {
                        "trial": trial,
                        "variant": v.name,
                        "error": type(outcome).__name__,
                        "message": str(outcome),
                    }
                )
                errors.append(outcome)
                continue
            records, initial, summary = outcome
            by_variant[v.name].extend(records)
            initial_metrics[v.name][str(trial)] = initial
            summaries[v.name][str(trial)] = summary
        if first_error is None and len(errors) == point.trials * len(point.variants):
            first_error = errors[0]

        for name, records in by_variant.items():
            if records:
                emit_csv(records, variant_dirs[i][name] / "records.csv")
        manifest = {
            "experiment_id": point.experiment_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "library_version": __version__,
            "numpy_version": np.__version__,
            "blas_threads": blas_threads,
            "scale": point.scale,
            "config": config_to_dict(point),
            "trial_seeds": [derive_trial_seed(point.master_seed, t)
                            for t in range(point.trials)],
            "data": {
                "train": None if data[i].train is None
                else {"name": data[i].train.name, "n": data[i].train.n},
                "eval_test": None if data[i].eval_test is None
                else {"name": data[i].eval_test.name, "n": data[i].eval_test.n},
            },
            "initial_metrics": initial_metrics,
            "summary": summaries,
            "failures": failures,
        }
        write_manifest(manifest, Path(point.output_dir) / "manifest.json")
    if first_error is not None:
        raise first_error
    return index if cfg.sweep else manifest
