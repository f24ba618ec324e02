"""Experiment execution: dataset resolution, trials, phases, outputs.

A run is one list of ``(point, trial, variant)`` items: a config with a
sweep expands into its points, and a config without one is one point.  Every
point's datasets and few-shot episodes are resolved before any item runs,
once per distinct data spec, so missing files and few-shot classes too
short for an episode fail before any compute.  The items then run on one
pool, longest first, or serially in list order; the serial branch runs on
the calling thread, which is what lets Ctrl-C stop a serial run at once
(a pool finishes its running items first).  Each item holds a core of
``learn._CORES`` while it runs, and so computes on one BLAS thread, so that
no output depends on ``--threads`` or on other runs in the process; the
package's helper threads (the noise sampler, the few-shot adaptation of
the ``meta`` capture) run only on cores that no one holds, and the bytes
do not depend on where they ran.  One function, ``_capture_metrics``,
computes a snapshot's captures, with ``meta`` on its helper thread.  Every
variant of a trial starts from identical initial weights; every random
stream of a trial is derived from the trial's seed, and every stream a
whole point shares (data subsets, the evaluation transform, few-shot
episodes) from ``master_seed``, each with a distinct label, so adding a
metric never perturbs training randomness.
Once every item has run, ``_write_point`` writes each point, in list
order, from its own items' outcomes (results or errors): ``records.csv``
per variant and a ``manifest.json`` embedding the resolved config, seeds,
initial-state metrics, per-trial summaries and failures, beside the
``model_<trial>_<phase>.bin`` checkpoints; a sweep adds an index manifest
above its points.  Errors are written, then raised: only after every
point's outputs are on disk is the first error of the first point in which
no pair succeeded raised.
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
from ..learn import _CORES, _openblas_threads, evaluate, train
from ..metrics import (
    accuracy_auc,
    alignment_angles,
    draw_episodes,
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
    name: str, split: str, data_dir, input_dim: int = 784, class_count: int = 10,
) -> Dataset:
    """Load one split, ``"train"`` or ``"test"``, of a dataset by name from
    its conventional layout under ``data_dir``; only that split's files are
    read.  ``blobs`` is synthetic and needs no files
    (``input_dim``/``class_count`` apply only to it)."""
    if split not in ("train", "test"):
        raise ConfigError(f"unknown split {split!r}; valid: train, test")
    train = split == "train"
    if name == "blobs":
        full = synthetic_blobs(3072, input_dim, class_count, seed=7)
        rows = slice(None, 2048) if train else slice(2048, None)
        return Dataset._derived(full.images[rows].copy(), full.labels[rows].copy(),
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
            cfg.eval_transform, cfg.train is None,
            None if cfg.meta is None
            else (cfg.meta.tasks, cfg.meta.shots_per_class, cfg.meta.query_per_class))


class _ResolvedData:
    """The splits an experiment reads and the few-shot episodes of its
    ``meta`` capture; the training split is loaded only when a data phase
    runs.  Each is float32, as every dataset is.  Each few-shot task's test
    split is loaded, its episode drawn and the split freed before the next
    task loads, so only the episodes' rows are held."""

    def __init__(self, cfg: ExperimentConfig):
        self.train = None
        self.eval_test = None
        self.clean_test = None
        self.meta_episodes = None
        data_dir = default_data_dir(cfg.data_dir)

        def load(name, split, size=None, seed=None):
            ds = load_named_split(name, split, data_dir, cfg.dims[0], cfg.dims[-1])
            return ds if size is None else subset(ds, size, seed)

        if cfg.dataset is not None:
            sub_seed = derive_entropy(cfg.master_seed, "subset")[0] % 2**63
            if cfg.train is not None:
                self.train = load(cfg.dataset, "train", cfg.train_size, sub_seed)
            self.clean_test = self.eval_test = load(cfg.dataset, "test", cfg.test_size,
                                                    sub_seed + 1)
            if cfg.eval_dataset is not None:
                self.eval_test = load(cfg.eval_dataset, "test")
            elif cfg.eval_transform is not None:
                self.eval_test = transform_affine(
                    self.clean_test, cfg.eval_transform,
                    seed=derive_entropy(cfg.master_seed, "transform")[0] % 2**63,
                )
        if cfg.meta is not None:
            self.meta_episodes = draw_episodes(
                (load(name, "test") for name in cfg.meta.tasks),
                cfg.meta, seed=derive_entropy(cfg.master_seed, "meta")[0] % 2**63)


def _capture_metrics(cfg: ExperimentConfig, mlp, data: _ResolvedData) -> dict:
    out = {}
    with _CORES.helper("meta") as helper:
        # the few-shot episodes adapt on a free core while this thread
        # computes the other captures; both only read ``mlp``.  An executor
        # starts no thread until something is submitted.
        if cfg.meta is not None:
            meta = helper.submit(meta_loss, mlp, data.meta_episodes, cfg.meta)
        if "angles" in cfg.capture:
            for l in range(mlp.n_layers):
                out[f"angle_mean_l{l}"] = alignment_angles(mlp, l).mean_deg
        if "distance" in cfg.capture:
            for l in range(mlp.n_layers):
                out[f"wb_dist_l{l}"] = weight_feedback_distance(mlp, l)
        if "eff_rank" in cfg.capture:
            for l in range(mlp.n_layers):
                out[f"eff_rank_l{l}"] = effective_rank(mlp.weights[l])
        if "gram" in cfg.capture:
            trace = forward(mlp, data.eval_test.images)
            out["gram_eff_dim"] = gram_effective_dim(trace.activations[-1])
        if "clean_test" in cfg.capture:
            loss, acc = evaluate(mlp, data.clean_test.images, data.clean_test.labels)
            out["clean_test_loss"] = loss
            out["clean_test_acc"] = acc
        if cfg.meta is not None:
            out["meta_loss"], per_task = meta.result()
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


def _variant_dir(point: ExperimentConfig, variant) -> Path:
    """Where ``variant``'s outputs of ``point`` go: the point's directory,
    or a subdirectory named after the variant when the point has several."""
    out = Path(point.output_dir)
    return out if len(point.variants) == 1 else out / variant.name


def _write_point(point: ExperimentConfig, data: _ResolvedData,
                 outcomes) -> tuple[dict, list[PrealignError]]:
    """Write ``point``'s ``records.csv`` files and manifest from its own
    ``(trial, variant, outcome)`` list, in item order, where an outcome is
    :func:`_run_single`'s result or the error it raised.  Returns the
    manifest and the point's errors."""
    records = {v.name: [] for v in point.variants}
    initial = {v.name: {} for v in point.variants}
    summaries = {v.name: {} for v in point.variants}
    failures = []
    for trial, v, outcome in outcomes:
        if isinstance(outcome, PrealignError):
            failures.append((trial, v.name, outcome))
            continue
        rows, initial[v.name][str(trial)], summaries[v.name][str(trial)] = outcome
        records[v.name] += rows
    for v in point.variants:
        if records[v.name]:
            emit_csv(records[v.name], _variant_dir(point, v) / "records.csv")
    manifest = {
        "experiment_id": point.experiment_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "library_version": __version__,
        "numpy_version": np.__version__,
        "blas_threads": None if _openblas_threads() is None else 1,
        "scale": point.scale,
        "config": config_to_dict(point),
        "trial_seeds": [derive_trial_seed(point.master_seed, t)
                        for t in range(point.trials)],
        "data": {
            "train": None if data.train is None
            else {"name": data.train.name, "n": data.train.n},
            "eval_test": None if data.eval_test is None
            else {"name": data.eval_test.name, "n": data.eval_test.n},
        },
        "initial_metrics": initial,
        "summary": summaries,
        "failures": [{"trial": trial, "variant": name, "error": type(e).__name__,
                      "message": str(e)} for trial, name, e in failures],
    }
    write_manifest(manifest, Path(point.output_dir) / "manifest.json")
    return manifest, [e for _, _, e in failures]


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
    for point in points:
        for v in point.variants:
            _variant_dir(point, v).mkdir(parents=True, exist_ok=True)
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
            with _CORES.item():
                return _run_single(points[i], v, trial, data[i], _variant_dir(points[i], v))
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
        # longest first, so that no worker is left alone with a long item
        # at the end; the outcomes go back into list order
        order = sorted(range(len(items)), key=lambda k: work(items[k]), reverse=True)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ranked = pool.map(run_item, [items[k] for k in order])
            outcomes = [outcome for _, outcome in sorted(zip(order, ranked))]
    else:
        outcomes = [run_item(item) for item in items]

    by_point = [[] for _ in points]
    for (i, trial, v), outcome in zip(items, outcomes):
        by_point[i].append((trial, v, outcome))
    first_error: PrealignError | None = None
    for point, point_data, point_outcomes in zip(points, data, by_point):
        manifest, errors = _write_point(point, point_data, point_outcomes)
        if first_error is None and len(errors) == len(point_outcomes):
            first_error = errors[0]
    if first_error is not None:
        raise first_error
    return index if cfg.sweep else manifest
