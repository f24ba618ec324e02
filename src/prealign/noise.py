"""Pretraining on random noise with random labels.

Every batch is fresh: inputs drawn from a configured distribution, labels
uniform over the classes, nothing ever reused.  The network trains on this
stream with the feedback-alignment backward pass and Adam.  There is no data
to fit, so the interesting outputs are the side effects on the weights:
alignment with the feedback matrices and shrinking effective rank.

Sample counts are bookkept in epochs of ``samples_per_epoch`` draws purely
for logging; batches run back to back across epoch boundaries (a total of
``ceil(total_samples / batch_size)`` optimizer steps) and each batch is
attributed to the epoch containing its first sample.

Each logging epoch's steps hold a core (see ``learn._Cores``), and so run
on one thread of the OpenBLAS that numpy bundles; the snapshot hook runs
outside the hold, at the caller's BLAS count.  Inside a runner item, which
holds its core throughout, an epoch takes no other.  When a core is free,
a helper thread draws the batches, from the same generator in the same
order, and keeps two draws in flight ahead of the batch that steps; no
draw crosses an epoch boundary.  When no core is free, the calling thread
draws them itself, in the same order.  The draws are the same on both
paths, and so are the trained weights, bit for bit.

Batches are drawn in the network's precision.  At float32 on a 784-100-10
network with batches of 64, a draw takes longer than a step (the
``stage_us`` of ``BENCH_17.json`` has the numbers), so where a helper
thread draws, it sets the pace; the second draw in flight keeps it from
waiting on the step thread.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_float, require_int
from .learn import _CORES, AdamState, _snapshot_metrics, step
from .net import TRAIN_DTYPE, Mlp, accuracy, cross_entropy
from .records import RunRecord
from .seeds import rng_for

__all__ = [
    "Gaussian",
    "Uniform",
    "NoiseConfig",
    "sample_noise_batch",
    "sample_random_labels",
    "pretrain_random_noise",
]


@dataclass(frozen=True)
class Gaussian:
    """Independent N(mean, std^2) entries."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self) -> None:
        require_float("mean", self.mean)
        require_float("std", self.std)
        if self.std < 0:
            raise ConfigError(f"std must be >= 0, got {self.std}")


@dataclass(frozen=True)
class Uniform:
    """Independent uniform entries on [low, high]."""

    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        require_float("low", self.low)
        require_float("high", self.high)
        if self.low > self.high:
            raise ConfigError(f"low {self.low} exceeds high {self.high}")


@dataclass
class NoiseConfig:
    """Settings for the random-noise phase."""

    distribution: Gaussian | Uniform = field(default_factory=Gaussian)
    total_samples: int = 500_000
    samples_per_epoch: int = 5_000
    batch_size: int = 64
    learning_rate: float = 1e-4

    def __post_init__(self) -> None:
        require_int("total_samples", self.total_samples, 1)
        require_int("samples_per_epoch", self.samples_per_epoch, 1)
        require_int("batch_size", self.batch_size, 1)
        require_float("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def _epoch_batches(config: NoiseConfig) -> list[tuple[int, list[int]]]:
    """``(epoch, batch sizes)`` for each logging epoch of ``config``: the
    epochs in which a batch starts, numbered from 1."""
    total, size = config.total_samples, config.batch_size
    starts = itertools.groupby(range(0, total, size),
                               key=lambda start: start // config.samples_per_epoch + 1)
    return [(epoch, [min(size, total - start) for start in group])
            for epoch, group in starts]


def sample_noise_batch(n: int, dim: int, distribution, rng: np.random.Generator,
                       dtype=TRAIN_DTYPE) -> np.ndarray:
    """Draw an ``(n, dim)`` batch of noise inputs in ``dtype`` (float32 or
    float64): standard draws of that width, scaled and shifted in place."""
    if n < 1 or dim < 1:
        raise ConfigError(f"batch shape must be positive, got ({n}, {dim})")
    if isinstance(distribution, Gaussian):
        x = rng.standard_normal((n, dim), dtype=dtype)
        x *= float(distribution.std)
        x += float(distribution.mean)
        return x
    if isinstance(distribution, Uniform):
        x = rng.random((n, dim), dtype=dtype)
        x *= float(distribution.high - distribution.low)
        x += float(distribution.low)
        return x
    raise ConfigError(f"unknown distribution {distribution!r}")


def sample_random_labels(n: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` labels uniformly from ``{0, ..., n_classes - 1}``."""
    if n < 1 or n_classes < 1:
        raise ConfigError(f"need n >= 1 and n_classes >= 1, got {n}, {n_classes}")
    return rng.integers(0, n_classes, size=n)


def pretrain_random_noise(
    mlp: Mlp,
    config: NoiseConfig,
    trial: int = 0,
    snapshot_hook=None,
    *,
    seed: int = 0,
) -> list[RunRecord]:
    """Train ``mlp`` in place on fresh noise with random labels, drawn from
    the stream that ``seed`` picks.

    Returns one :class:`RunRecord` per logging epoch with the sample-weighted
    mean batch loss and accuracy of the noise stream itself (test fields stay
    ``None``; there is no held-out split of noise).  ``snapshot_hook(epoch,
    mlp)`` may return extra scalars for that epoch's metrics; it runs
    outside the epoch's hold on a core, at the caller's BLAS count.  No
    helper thread outlives the call, whatever a step or the hook raises.
    """
    rng = rng_for(seed, "noise")
    adam = AdamState.for_mlp(mlp)
    dim, n_classes = mlp.dims[0], mlp.dims[-1]
    records: list[RunRecord] = []
    sum_loss = sum_acc = 0.0

    def draw(size: int):
        x = sample_noise_batch(size, dim, config.distribution, rng, mlp.params.dtype)
        return x, sample_random_labels(size, n_classes, rng)

    def train_step(x: np.ndarray, y: np.ndarray) -> None:
        nonlocal sum_loss, sum_acc
        trace = step(mlp, adam, x, y, "FA", config.learning_rate)
        sum_loss += len(y) * cross_entropy(trace.probabilities, y)
        sum_acc += len(y) * accuracy(trace.probabilities, y)

    for epoch, sizes in _epoch_batches(config):
        sum_loss = sum_acc = 0.0
        # up to two draws in flight while a batch steps; leaving the block
        # joins the sampler, and result() raises what the draw raised
        with _CORES.item(), _CORES.helper("noise-sampler") as sampler:
            ahead = deque()
            for size in sizes:
                ahead.append(sampler.submit(draw, size))
                if len(ahead) > 2:
                    train_step(*ahead.popleft().result())
            while ahead:
                train_step(*ahead.popleft().result())
        seen = sum(sizes)
        records.append(
            RunRecord(
                trial=trial,
                phase="pretrain",
                epoch=epoch,
                train_loss=sum_loss / seen,
                test_loss=None,
                train_acc=sum_acc / seen,
                test_acc=None,
                metrics=_snapshot_metrics(snapshot_hook, epoch, mlp, {}),
            )
        )
    return records
