"""Analysis quantities computed from networks, activations, and run curves.

All operations are pure.  Each quantity is computed in float64, whatever
the precision of the network or activations it reads; only
:func:`meta_loss`'s adaptation steps run in the network's own precision,
as training does.  Angle and similarity conventions are pinned here once:
zero-norm vectors get the neutral values (angle 90 degrees, cosine 0) so
ReLU-dead neurons never produce NaN.  The few-shot loss is split in two:
:func:`draw_episodes` samples each task's support and query rows once, and
:func:`meta_loss` scores a network on those rows, as often as it is asked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, NumericError, ShapeError, require_float, require_int
from .learn import _CORES, AdamState, step
from .net import Mlp, cross_entropy, forward
from .seeds import rng_for

__all__ = [
    "AngleReport",
    "Episode",
    "MetaConfig",
    "alignment_angles",
    "weight_feedback_distance",
    "effective_rank",
    "gram_effective_dim",
    "accuracy_auc",
    "weight_trajectory_pca",
    "draw_episodes",
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

    :func:`draw_episodes` reads ``shots_per_class`` and
    ``query_per_class``: each task's support set has that many examples per
    class, and its disjoint query set this many.  :func:`meta_loss` reads
    the other two: a clone of the network adapts on each support set for
    ``inner_steps`` full-batch Adam steps (feedback-alignment updates,
    learning rate ``inner_lr``), then is scored by cross-entropy on the
    query set.
    """

    shots_per_class: int = 10
    inner_steps: int = 10
    inner_lr: float = 0.001
    query_per_class: int = 10

    def __post_init__(self) -> None:
        for name in ("shots_per_class", "query_per_class", "inner_steps"):
            require_int(name, getattr(self, name), 1)
        require_float("inner_lr", self.inner_lr)
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
    neutral 90.  Computed in float64 whatever the network's precision.
    """
    _check_layer(mlp, layer)
    w = np.asarray(mlp.weights[layer], dtype=np.float64)
    b = np.asarray(mlp.feedback[layer], dtype=np.float64)
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


@_CORES.item()
def weight_feedback_distance(mlp: Mlp, layer: int) -> float:
    """Frobenius norm of ``W_layer - B_layer.T``, computed in float64.  The
    call holds a core, as :func:`gram_effective_dim` does."""
    _check_layer(mlp, layer)
    w = np.asarray(mlp.weights[layer], dtype=np.float64)
    b = np.asarray(mlp.feedback[layer], dtype=np.float64)
    return float(np.linalg.norm(w - b.T))


@_CORES.item()
def effective_rank(m) -> float:
    """Exponential of the Shannon entropy of the normalized singular values:
    ``exp(-sum sbar_i ln sbar_i)`` with ``sbar = s / sum(s)`` and
    ``0 * ln 0 := 0``.  Raises :class:`ShapeError` unless ``m`` is a nonempty
    2-D matrix and :class:`NumericError` on NaN, Inf or an all-zero matrix.
    The call holds a core, as :func:`gram_effective_dim` does."""
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
    entry kept at 1.  The call holds a core (see ``learn._Cores``), so the
    product gives the runner's bits whatever BLAS count the caller set.
    """
    h = np.asarray(hidden_activations, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] < 2 or h.shape[0] < 2:
        raise ConfigError(
            f"need >= 2 samples and >= 2 neurons, got shape {h.shape}"
        )
    with _CORES.item():
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


@_CORES.item()
def weight_trajectory_pca(snapshots, feedback_point, k: int = 2):
    """Project a weight trajectory and its feedback target to ``k``
    principal components.

    The fit includes the feedback point alongside the snapshots so the
    target is faithfully placed in the same plane.  The components are the
    top ``k`` right singular vectors of the centred points, each with its
    sign flipped so that its first nonzero entry is positive.  Returns
    ``(coords, feedback_coord)``: an ``(n_snapshots, k)`` array and a
    ``(k,)`` vector.  The call holds a core, as :func:`gram_effective_dim`
    does.
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


@dataclass(frozen=True)
class Episode:
    """One task's few-shot episode: ``support`` holds ``shots_per_class``
    rows per class, to adapt on, and ``query`` a disjoint
    ``query_per_class`` rows per class, to score.  Both are named after the
    task."""

    support: Dataset
    query: Dataset


def draw_episodes(tasks, cfg: MetaConfig = MetaConfig(), *,
                  seed: int = 0) -> list[Episode]:
    """One episode per task, drawn from ``seed``: task ``t`` draws from the
    stream ``rng_for(seed, "meta", t)``, class by class, its support and
    query rows at once.  The episodes copy their rows, so the tasks may be
    freed once drawn; ``tasks`` may be a lazy iterable, and then holds one
    task at a time.  Raises :class:`ConfigError` when there are no tasks or
    a class has fewer than ``shots_per_class + query_per_class`` rows."""
    shots, queries = cfg.shots_per_class, cfg.query_per_class
    episodes = []
    for task in tasks:
        rng = rng_for(seed, "meta", len(episodes))
        support, query = [], []
        for c in range(task.class_count):
            pool = np.flatnonzero(task.labels == c)
            if pool.size < shots + queries:
                raise ConfigError(
                    f"task {task.name}: class {c} has {pool.size} examples, "
                    f"needs {shots + queries}"
                )
            picked = rng.choice(pool, size=shots + queries, replace=False)
            support.append(picked[:shots])
            query.append(picked[shots:])
        episodes.append(Episode(*(
            Dataset._derived(task.images[rows], task.labels[rows], task.class_count,
                             task.name)
            for rows in (np.concatenate(support), np.concatenate(query)))))
        # a lazily loaded task is freed before the next one loads
        del task
    if not episodes:
        raise ConfigError("tasks must be nonempty")
    return episodes


def meta_loss(mlp: Mlp, episodes: list[Episode],
              cfg: MetaConfig = MetaConfig()) -> tuple[float, list[float]]:
    """Summed post-adaptation query loss across ``episodes``, and the loss
    of each.

    Per episode: clone the network, adapt the clone on the support rows
    with ``cfg.inner_steps`` full-batch feedback-alignment Adam steps at
    ``cfg.inner_lr``, then evaluate cross-entropy on the query rows.  The
    episodes are drawn once, by :func:`draw_episodes`, and may be scored
    any number of times.  The input network is never mutated, only read,
    so other readers of it may run beside the call (the runner computes its
    other captures so).  The call holds a core (see ``learn._Cores``): the
    core of whichever thread ``_Cores.run_reads`` gave it, the caller's or
    a helper's on a free core.
    """
    if not episodes:
        raise ConfigError("episodes must be nonempty")
    for episode in episodes:
        task = episode.support
        if task.input_dim != mlp.dims[0] or task.class_count != mlp.dims[-1]:
            raise ConfigError(
                f"task {task.name} shape ({task.input_dim} features, "
                f"{task.class_count} classes) does not match network dims "
                f"{mlp.dims}"
            )
    per_task = []
    with _CORES.item():
        for episode in episodes:
            clone = mlp.copy()
            adam = AdamState.for_mlp(clone)
            x_s, y_s = episode.support.images, episode.support.labels
            for _ in range(cfg.inner_steps):
                step(clone, adam, x_s, y_s, "FA", cfg.inner_lr)
            trace = forward(clone, episode.query.images)
            per_task.append(cross_entropy(trace.probabilities, episode.query.labels))
    return float(sum(per_task)), per_task
