"""Experiment execution: dataset resolution, trials, phases, outputs.

A run resolves its datasets up front (so missing files fail before any
compute), then executes ``trials x variants`` independent training runs.
Every variant of a trial starts from identical initial weights; every
random stream is derived from the trial's seed with a distinct label, so
adding a metric never perturbs training randomness.  Outputs per run:
``records.csv`` (per variant), ``model_<trial>_<phase>.bin`` checkpoints,
``curves.svg``, and a ``manifest.json`` embedding the resolved config,
seeds, initial-state metrics, and per-trial summaries.
"""

from __future__ import annotations

import ctypes
import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import __version__
from ..data import Dataset, load_cifar, load_idx, load_stl10, load_usps_libsvm, \
    subset, synthetic_blobs, transform_affine
from ..errors import ConfigError, DataError, PrealignError
from ..learn import evaluate, train
from ..metrics import (
    MetaConfig,
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
from .emit import emit_csv, emit_plot, write_manifest

__all__ = ["load_named_dataset", "run_experiment", "DATASET_NAMES"]

DATASET_NAMES = (
    "mnist",
    "fashion-mnist",
    "kmnist",
    "cifar10",
    "cifar100",
    "stl10",
    "usps",
    "blobs",
)

# (setter, getter) of the BLAS thread count, in the naming of the OpenBLAS
# numpy bundles: scipy-openblas (numpy >= 2.0), OpenBLAS 64-bit (1.24-1.26).
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)

_IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def default_data_dir(cfg_value: str | None = None) -> str:
    return cfg_value or os.environ.get("PREALIGN_DATA_DIR") or "data"


def _find(root: Path, *candidates: str) -> Path:
    tried = []
    for c in candidates:
        for name in (c, c + ".gz"):
            p = root / name
            tried.append(str(p))
            if p.exists():
                return p
    raise DataError(f"missing data file; tried: {', '.join(tried)}")


def load_named_dataset(
    name: str, data_dir, input_dim: int = 784, class_count: int = 10
) -> tuple[Dataset, Dataset]:
    """Load a dataset by name from its conventional layout under
    ``data_dir``; returns (train, test).  ``blobs`` is synthetic and needs
    no files (``input_dim``/``class_count`` apply only to it)."""
    if name == "blobs":
        full = synthetic_blobs(3072, input_dim, class_count, seed=7)
        train_ds = Dataset(full.images[:2048].copy(), full.labels[:2048].copy(),
                           full.class_count, "blobs-train")
        test_ds = Dataset(full.images[2048:].copy(), full.labels[2048:].copy(),
                          full.class_count, "blobs-test")
        return train_ds, test_ds
    root = Path(data_dir) / name
    if name in ("mnist", "fashion-mnist", "kmnist"):
        return (
            load_idx(_find(root, _IDX_FILES["train_images"]),
                     _find(root, _IDX_FILES["train_labels"])),
            load_idx(_find(root, _IDX_FILES["test_images"]),
                     _find(root, _IDX_FILES["test_labels"])),
        )
    if name == "cifar10":
        batches = [_find(root, f"data_batch_{i}.bin") for i in range(1, 6)]
        return (
            load_cifar(batches, "C10"),
            load_cifar([_find(root, "test_batch.bin")], "C10"),
        )
    if name == "cifar100":
        return (
            load_cifar([_find(root, "train.bin")], "C100"),
            load_cifar([_find(root, "test.bin")], "C100"),
        )
    if name == "stl10":
        return (
            load_stl10(_find(root, "train_X.bin"), _find(root, "train_y.bin")),
            load_stl10(_find(root, "test_X.bin"), _find(root, "test_y.bin")),
        )
    if name == "usps":
        return (
            load_usps_libsvm(_find(root, "usps")),
            load_usps_libsvm(_find(root, "usps.t")),
        )
    raise ConfigError(f"unknown dataset {name!r}; valid: {DATASET_NAMES}")


@functools.cache
def _openblas_threads():
    """``(set, get)`` for the thread count of the OpenBLAS bundled with
    numpy (``numpy.libs``), or None when there is no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread and restore the previous
    count after it.  Concurrent runs that each let BLAS start its own
    threads make those threads spin-wait against each other.  The setting
    is process-wide.  Yields the count the body runs with (None when it
    cannot be read; the count is then left as it is)."""
    blas = _openblas_threads()
    if blas is None:
        yield None
        return
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield 1
    finally:
        set_threads(before)


class _ResolvedData:
    """Splits an experiment actually trains and evaluates on."""

    def __init__(self, cfg: ExperimentConfig):
        self.train = None
        self.eval_test = None
        self.clean_test = None
        self.meta_tasks = None
        data_dir = default_data_dir(cfg.data_dir)
        if cfg.dataset is not None:
            train_ds, test_ds = load_named_dataset(
                cfg.dataset, data_dir, cfg.dims[0], cfg.dims[-1]
            )
            sub_seed = derive_entropy(cfg.master_seed, "subset")[0] % 2**63
            if cfg.train_size is not None:
                train_ds = subset(train_ds, cfg.train_size, sub_seed)
            if cfg.test_size is not None:
                test_ds = subset(test_ds, cfg.test_size, sub_seed + 1)
            self.train = train_ds
            self.clean_test = test_ds
            self.eval_test = test_ds
            if cfg.eval_dataset is not None:
                _, other_test = load_named_dataset(
                    cfg.eval_dataset, data_dir, cfg.dims[0], cfg.dims[-1]
                )
                self.eval_test = other_test
            elif cfg.eval_transform is not None:
                side = int(round(np.sqrt(cfg.dims[0])))
                self.eval_test = transform_affine(test_ds, cfg.eval_transform, side)
        if cfg.meta is not None:
            tasks = []
            for t_name in cfg.meta.tasks:
                _, task_test = load_named_dataset(
                    t_name, data_dir, cfg.dims[0], cfg.dims[-1]
                )
                tasks.append(task_test)
            self.meta_tasks = tasks


def _capture_metrics(cfg: ExperimentConfig, mlp, data: _ResolvedData,
                     meta_cfg: MetaConfig | None) -> dict:
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
    if "meta" in cfg.capture and meta_cfg is not None:
        total, per_task = meta_loss(mlp, meta_cfg)
        out["meta_loss"] = total
        for task, value in zip(meta_cfg.tasks, per_task):
            out[f"meta_loss_{task.name}"] = value
    return out


def _run_single(cfg: ExperimentConfig, variant, trial: int,
                data: _ResolvedData, out_dir: Path):
    """One (trial, variant) run.  Returns (records, initial, summary)."""
    seed_t = derive_trial_seed(cfg.master_seed, trial)
    mlp = init_mlp(cfg.dims, rng_for(seed_t, "init"))
    meta_cfg = None
    if "meta" in cfg.capture:
        meta_cfg = MetaConfig(
            tasks=data.meta_tasks,
            shots_per_class=cfg.meta.shots_per_class,
            inner_steps=cfg.meta.inner_steps,
            inner_lr=cfg.meta.inner_lr,
            query_per_class=cfg.meta.query_per_class,
            seed=derive_entropy(cfg.master_seed, "meta")[0] % 2**63,
        )
    trajectory: list[np.ndarray] = []

    def hook(epoch, net):
        metrics = _capture_metrics(cfg, net, data, meta_cfg)
        if "trajectory" in cfg.capture:
            trajectory.append(net.weights[cfg.traj_layer].ravel().copy())
        return metrics

    initial = _capture_metrics(cfg, mlp, data, meta_cfg)
    if data.eval_test is not None:
        loss, acc = evaluate(mlp, data.eval_test.images, data.eval_test.labels)
        initial["test_loss"] = loss
        initial["test_acc"] = acc

    phases = []
    if variant.pretrain and cfg.pretrain is not None:
        phases.append("pretrain")
    if cfg.train is not None and data.train is not None:
        phases.append("train")
    if variant.order == "data_first":
        phases.reverse()
    if not phases:
        raise ConfigError(
            f"variant {variant.name!r} has no phase to run in this config"
        )
    records: list[RunRecord] = []
    for phase in phases:
        if phase == "pretrain":
            noise_cfg = replace(cfg.pretrain, seed=seed_t)
            records += pretrain_random_noise(mlp, noise_cfg, trial, hook)
        else:
            train_cfg = replace(cfg.train, rule=variant.rule, seed=seed_t)
            records += train(
                mlp,
                data.train.images,
                data.train.labels,
                data.eval_test.images,
                data.eval_test.labels,
                train_cfg,
                trial=trial,
                snapshot_hook=hook,
            )
        save_mlp(mlp, out_dir / f"model_{trial}_{phase}.bin")
    summary: dict = {"seed": seed_t, "phases": phases}
    if "trajectory" in cfg.capture and len(trajectory) >= 3:
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


def _plot_series(cfg: ExperimentConfig,
                 by_variant: dict[str, list[RunRecord]]) -> dict:
    preference = ("angle_mean_l0", "eff_rank_l0", "wb_dist_l0", "meta_loss")
    series = {}
    for name, records in by_variant.items():
        train_recs = [r for r in records if r.phase == "train"]
        if train_recs:
            pick = lambda r: r.test_acc
            pool = train_recs
        else:
            pool = [r for r in records if r.phase == "pretrain"]
            if not pool:
                continue
            key = next((k for k in preference if k in pool[0].metrics), None)
            if key is None:
                pick = lambda r: r.train_loss
            else:
                pick = lambda r, k=key: r.metrics.get(k)
        by_epoch: dict[int, list[float]] = {}
        for r in pool:
            v = pick(r)
            if v is not None:
                by_epoch.setdefault(r.epoch, []).append(float(v))
        if not by_epoch:
            continue
        epochs = sorted(by_epoch)
        series[name] = (epochs, [float(np.mean(by_epoch[e])) for e in epochs])
    return series


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a config (expanding its sweep if present); returns the
    manifest payload of the run (or the sweep index)."""
    if cfg.sweep:
        doc = config_to_dict(cfg)
        points = expand_sweep(doc)
        out_root = Path(cfg.output_dir)
        out_root.mkdir(parents=True, exist_ok=True)
        index = {
            "experiment_id": cfg.experiment_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "library_version": __version__,
            "sweep": cfg.sweep,
            "scale": cfg.scale,
            "points": [name for name, _ in points],
        }
        write_manifest(index, out_root / "manifest.json")
        for _, point_doc in points:
            run_experiment(config_from_dict(point_doc))
        return index

    data = _ResolvedData(cfg)
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    single = len(cfg.variants) == 1
    variant_dirs = {}
    for v in cfg.variants:
        vdir = out_root if single else out_root / v.name
        vdir.mkdir(parents=True, exist_ok=True)
        variant_dirs[v.name] = vdir

    by_variant: dict[str, list[RunRecord]] = {v.name: [] for v in cfg.variants}
    initial_metrics: dict[str, dict] = {v.name: {} for v in cfg.variants}
    summaries: dict[str, dict] = {v.name: {} for v in cfg.variants}
    failures: list[dict] = []
    first_error: PrealignError | None = None

    pairs = [(t, v) for t in range(cfg.trials) for v in cfg.variants]

    def run_pair(pair):
        trial, v = pair
        try:
            return _run_single(cfg, v, trial, data, variant_dirs[v.name])
        except PrealignError as e:
            return e

    workers = min(cfg.threads, len(pairs))
    if workers > 1:
        with (_one_blas_thread() as blas_threads,
              ThreadPoolExecutor(max_workers=workers) as pool):
            outcomes = list(pool.map(run_pair, pairs))
    else:
        blas = _openblas_threads()
        blas_threads = None if blas is None else blas[1]()
        outcomes = [run_pair(p) for p in pairs]

    any_ok = False
    for (trial, v), outcome in zip(pairs, outcomes):
        if isinstance(outcome, PrealignError):
            failures.append(
                {
                    "trial": trial,
                    "variant": v.name,
                    "error": type(outcome).__name__,
                    "message": str(outcome),
                }
            )
            if first_error is None:
                first_error = outcome
            continue
        any_ok = True
        records, initial, summary = outcome
        by_variant[v.name].extend(records)
        initial_metrics[v.name][str(trial)] = initial
        summaries[v.name][str(trial)] = summary
    if not any_ok and first_error is not None:
        raise first_error

    for name, records in by_variant.items():
        if records:
            emit_csv(records, variant_dirs[name] / "records.csv")
    series = _plot_series(cfg, by_variant)
    if series:
        has_train = any(r.phase == "train" for rs in by_variant.values() for r in rs)
        emit_plot(
            series,
            out_root / "curves.svg",
            title=cfg.experiment_id,
            ylabel="test accuracy" if has_train else "captured metric",
        )
    manifest = {
        "experiment_id": cfg.experiment_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "library_version": __version__,
        "numpy_version": np.__version__,
        "blas_threads": blas_threads,
        "scale": cfg.scale,
        "config": config_to_dict(cfg),
        "trial_seeds": [derive_trial_seed(cfg.master_seed, t)
                        for t in range(cfg.trials)],
        "data": {
            "train": None if data.train is None
            else {"name": data.train.name, "n": data.train.n},
            "eval_test": None if data.eval_test is None
            else {"name": data.eval_test.name, "n": data.eval_test.n},
        },
        "initial_metrics": initial_metrics,
        "summary": summaries,
        "failures": failures,
    }
    write_manifest(manifest, out_root / "manifest.json")
    return manifest
