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

Noise steps run on one thread of the OpenBLAS that numpy bundles.  Where
BLAS runs on more, each logging epoch's steps run with it pinned to one
thread while a one-worker executor draws the next batch, from the same
generator in the same order, as the current one steps; the snapshot hook
then runs at the original count.  Where BLAS already runs on one thread (as
inside the runner's pool), batches are drawn and stepped in turn on the
calling thread, and so they are where its count cannot be read (then at
whatever count BLAS runs with).  The draws are the same on every path, and
the trained weights bitwise the same on the two one-thread paths.

Batches are drawn in the network's precision.  At float32, on a 784-100-10
network with batches of 64 on one BLAS thread of a 2-core host, a step took
about 0.71 ms and a draw about 0.87 ms (medians of five rounds, which ranged
over 0.60-0.86 ms and 0.69-0.92 ms), so the draw is the longer half and,
where a sampler thread runs, it sets the pace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_float, require_int
from .learn import AdamState, _one_blas_thread, _openblas_threads, _snapshot_metrics, step
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
    mlp)`` may return extra scalars for that epoch's metrics; it runs at the
    BLAS thread count the call started with.
    """
    rng = rng_for(seed, "noise")
    adam = AdamState.for_mlp(mlp)
    dim, n_classes = mlp.dims[0], mlp.dims[-1]
    blas = _openblas_threads()
    draw_ahead = blas is not None and blas[1]() > 1
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
        if draw_ahead:
            # imported here, not at the top: it adds about 6 ms to ``import prealign``
            from concurrent.futures import ThreadPoolExecutor

            # one batch is drawn while the one before it steps; leaving the
            # block joins the worker, and result() raises what draw raised
            with _one_blas_thread(), ThreadPoolExecutor(1, "noise-sampler") as sampler:
                pending = sampler.submit(draw, sizes[0])
                for size in sizes[1:]:
                    batch = pending.result()
                    pending = sampler.submit(draw, size)
                    train_step(*batch)
                train_step(*pending.result())
        else:
            for size in sizes:
                train_step(*draw(size))
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
