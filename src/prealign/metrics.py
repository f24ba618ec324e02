"""Analysis quantities computed from networks, activations, and run curves.

All operations are pure.  Angle and similarity conventions are pinned here
once: zero-norm vectors get the neutral values (angle 90 degrees, cosine 0)
so ReLU-dead neurons never produce NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, NumericError, ShapeError, require_int
from .learn import AdamState, step
from .net import Mlp, cross_entropy, forward
from .seeds import rng_for

__all__ = [
    "AngleReport",
    "MetaConfig",
    "alignment_angles",
    "weight_feedback_distance",
    "effective_rank",
    "gram_effective_dim",
    "accuracy_auc",
    "weight_trajectory_pca",
    "meta_loss",
]


@dataclass
class AngleReport:
    """Alignment angles of one layer, in degrees, one per input-side unit."""

    per_neuron_deg: np.ndarray
    mean_deg: float
    layer_index: int


@dataclass(frozen=True)
class MetaConfig:
    """Settings for the episodic adaptation loss.

    For each task dataset a clone of the network adapts for ``inner_steps``
    full-batch Adam steps (feedback-alignment updates, learning rate
    ``inner_lr``) on a support set of ``shots_per_class`` examples per
    class, then is scored by cross-entropy on a disjoint query set of
    ``query_per_class`` examples per class.
    """

    shots_per_class: int = 10
    inner_steps: int = 10
    inner_lr: float = 0.001
    query_per_class: int = 10

    def __post_init__(self) -> None:
        for name in ("shots_per_class", "query_per_class", "inner_steps"):
            require_int(name, getattr(self, name), 1)
        if self.inner_lr <= 0:
            raise ConfigError(f"inner_lr must be > 0, got {self.inner_lr}")


def _check_layer(mlp: Mlp, layer: int) -> None:
    if not 0 <= layer < mlp.n_layers:
        raise ConfigError(
            f"layer {layer} outside [0, {mlp.n_layers}) for dims {mlp.dims}"
        )


def alignment_angles(mlp: Mlp, layer: int) -> AngleReport:
    """Angle between each forward weight column and its feedback row.

    For input-side unit ``i`` of the layer, the angle between
    ``W[:, i]`` and ``B[i, :]`` in degrees.  Random initialization puts
    these near 90; alignment pulls them down.  Zero-norm vectors give the
    neutral 90.
    """
    _check_layer(mlp, layer)
    w = mlp.weights[layer]
    b = mlp.feedback[layer]
    dots = (w.T * b).sum(axis=1)
    norm_w = np.linalg.norm(w, axis=0)
    norm_b = np.linalg.norm(b, axis=1)
    ok = (norm_w > 0) & (norm_b > 0)
    cos = np.zeros_like(dots)
    np.divide(dots, norm_w * norm_b, out=cos, where=ok)
    angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    return AngleReport(
        per_neuron_deg=angles,
        mean_deg=float(angles.mean()),
        layer_index=layer,
    )


def weight_feedback_distance(mlp: Mlp, layer: int) -> float:
    """Frobenius norm of ``W_layer - B_layer.T``."""
    _check_layer(mlp, layer)
    return float(np.linalg.norm(mlp.weights[layer] - mlp.feedback[layer].T))


def effective_rank(m) -> float:
    """Exponential of the Shannon entropy of the normalized singular values:
    ``exp(-sum sbar_i ln sbar_i)`` with ``sbar = s / sum(s)`` and
    ``0 * ln 0 := 0``.  Raises :class:`ShapeError` unless ``m`` is a nonempty
    2-D matrix and :class:`NumericError` on NaN, Inf or an all-zero matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"need a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix contains NaN or Inf")
    # full SVD: compute_uv=False rounds s differently, changing recorded ranks
    s = np.linalg.svd(a, full_matrices=False)[1]
    total = s.sum()
    if total == 0.0:
        raise NumericError("effective rank of an all-zero matrix is undefined")
    sbar = s / total
    entropy = -np.sum(np.where(sbar > 0, sbar * np.log(np.maximum(sbar, 1e-300)), 0.0))
    return float(np.exp(entropy))


def gram_effective_dim(hidden_activations) -> float:
    """Effective rank of the neuron-by-neuron cosine similarity matrix.

    Each neuron's feature vector is its activation column across samples.
    Zero-norm columns give zero similarity to everything, with the diagonal
    entry kept at 1.
    """
    h = np.asarray(hidden_activations, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] < 2 or h.shape[0] < 2:
        raise ConfigError(
            f"need >= 2 samples and >= 2 neurons, got shape {h.shape}"
        )
    norms = np.linalg.norm(h, axis=0)
    ok = norms > 0
    unit = np.zeros_like(h)
    np.divide(h, norms, out=unit, where=ok)
    gram = unit.T @ unit
    gram[~ok, :] = 0.0
    gram[:, ~ok] = 0.0
    np.fill_diagonal(gram, np.where(ok, np.diag(gram), 1.0))
    # symmetrize away matmul roundoff before the spectrum
    gram = (gram + gram.T) / 2.0
    return effective_rank(gram)


def accuracy_auc(per_epoch_accuracy) -> float:
    """Trapezoidal area under a per-epoch curve, normalized by the epoch
    span so a constant curve returns its own value.  A single point returns
    that point."""
    a = np.asarray(per_epoch_accuracy, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ConfigError(f"need a nonempty 1-D curve, got shape {a.shape}")
    if a.size == 1:
        return float(a[0])
    return float(np.trapezoid(a) / (a.size - 1))


def weight_trajectory_pca(snapshots, feedback_point, k: int = 2):
    """Project a weight trajectory and its feedback target to ``k``
    principal components.

    The fit includes the feedback point alongside the snapshots so the
    target is faithfully placed in the same plane.  The components are the
    top ``k`` right singular vectors of the centred points, each with its
    sign flipped so that its first nonzero entry is positive.  Returns
    ``(coords, feedback_coord)``: an ``(n_snapshots, k)`` array and a
    ``(k,)`` vector.
    """
    snaps = [np.asarray(s, dtype=np.float64).ravel() for s in snapshots]
    if len(snaps) < 3:
        raise ShapeError(f"need >= 3 snapshots, got {len(snaps)}")
    fb = np.asarray(feedback_point, dtype=np.float64).ravel()
    lengths = {s.shape[0] for s in snaps} | {fb.shape[0]}
    if len(lengths) != 1:
        raise ShapeError(f"snapshot/feedback lengths differ: {sorted(lengths)}")
    stacked = np.vstack(snaps + [fb])
    if not 1 <= k <= min(stacked.shape):
        raise ShapeError(f"k={k} outside [1, {min(stacked.shape)}] for "
                         f"{stacked.shape[0]} points in {stacked.shape[1]} dims")
    if not np.all(np.isfinite(stacked)):
        raise NumericError("snapshots or feedback contain NaN or Inf")
    mean = stacked.mean(axis=0)
    components = np.linalg.svd(stacked - mean, full_matrices=False)[2][:k]
    for row in components:
        if row[np.flatnonzero(row)[0]] < 0:
            row *= -1.0
    coords = np.array([components @ (s - mean) for s in snaps])
    return coords, components @ (fb - mean)


def _episode_split(task: Dataset, shots: int, queries: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    support_idx, query_idx = [], []
    for c in range(task.class_count):
        pool = np.flatnonzero(task.labels == c)
        if pool.size < shots + queries:
            raise ConfigError(
                f"task {task.name}: class {c} has {pool.size} examples, "
                f"needs {shots + queries}"
            )
        picked = rng.choice(pool, size=shots + queries, replace=False)
        support_idx.append(picked[:shots])
        query_idx.append(picked[shots:])
    return np.concatenate(support_idx), np.concatenate(query_idx)


def meta_loss(mlp: Mlp, tasks: list[Dataset], cfg: MetaConfig = MetaConfig(),
              *, seed: int = 0) -> tuple[float, list[float]]:
    """Summed post-adaptation query loss across ``tasks``.

    Per task: clone the network, adapt the clone on a support sample drawn
    from ``seed`` with ``cfg.inner_steps`` full-batch feedback-alignment
    Adam steps, then evaluate cross-entropy on the disjoint query sample.
    The input network is never mutated.
    """
    if not tasks:
        raise ConfigError("tasks must be nonempty")
    for task in tasks:
        if task.input_dim != mlp.dims[0] or task.class_count != mlp.dims[-1]:
            raise ConfigError(
                f"task {task.name} shape ({task.input_dim} features, "
                f"{task.class_count} classes) does not match network dims "
                f"{mlp.dims}"
            )
    per_task = []
    for t, task in enumerate(tasks):
        rng = rng_for(seed, "meta", t)
        support, query = _episode_split(
            task, cfg.shots_per_class, cfg.query_per_class, rng
        )
        clone = mlp.copy()
        adam = AdamState.for_mlp(clone)
        x_s, y_s = task.images[support], task.labels[support]
        for _ in range(cfg.inner_steps):
            step(clone, adam, x_s, y_s, "FA", cfg.inner_lr)
        trace = forward(clone, task.images[query])
        per_task.append(cross_entropy(trace.probabilities, task.labels[query]))
    return float(sum(per_task)), per_task
