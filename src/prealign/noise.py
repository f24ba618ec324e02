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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .learn import AdamState, step
from .net import Mlp, accuracy, cross_entropy
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
        if self.std < 0:
            raise ConfigError(f"std must be >= 0, got {self.std}")


@dataclass(frozen=True)
class Uniform:
    """Independent uniform entries on [low, high]."""

    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_samples < 1:
            raise ConfigError(f"total_samples must be >= 1, got {self.total_samples}")
        if self.samples_per_epoch < 1:
            raise ConfigError(
                f"samples_per_epoch must be >= 1, got {self.samples_per_epoch}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def sample_noise_batch(n: int, dim: int, distribution, rng: np.random.Generator) -> np.ndarray:
    """Draw an ``(n, dim)`` batch of noise inputs."""
    if n < 1 or dim < 1:
        raise ConfigError(f"batch shape must be positive, got ({n}, {dim})")
    if isinstance(distribution, Gaussian):
        return rng.normal(distribution.mean, distribution.std, size=(n, dim))
    if isinstance(distribution, Uniform):
        return rng.uniform(distribution.low, distribution.high, size=(n, dim))
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
) -> list[RunRecord]:
    """Train ``mlp`` in place on fresh noise with random labels.

    Returns one :class:`RunRecord` per logging epoch with the sample-weighted
    mean batch loss and accuracy of the noise stream itself (test fields stay
    ``None``; there is no held-out split of noise).  ``snapshot_hook(epoch,
    mlp)`` may return extra scalars for that epoch's metrics.
    """
    rng = rng_for(config.seed, "noise")
    adam = AdamState.for_mlp(mlp)
    dim, n_classes = mlp.dims[0], mlp.dims[-1]
    records: list[RunRecord] = []
    sum_loss = sum_acc = 0.0
    seen_in_epoch = 0
    epoch = 1

    def flush() -> None:
        metrics = {}
        if snapshot_hook is not None:
            extra = snapshot_hook(epoch, mlp)
            if extra:
                metrics.update({k: float(v) for k, v in extra.items()})
        records.append(
            RunRecord(
                trial=trial,
                phase="pretrain",
                epoch=epoch,
                train_loss=sum_loss / seen_in_epoch,
                test_loss=None,
                train_acc=sum_acc / seen_in_epoch,
                test_acc=None,
                seed=config.seed,
                metrics=metrics,
            )
        )

    start = 0
    while start < config.total_samples:
        size = min(config.batch_size, config.total_samples - start)
        batch_epoch = start // config.samples_per_epoch + 1
        if batch_epoch != epoch:
            flush()
            sum_loss = sum_acc = 0.0
            seen_in_epoch = 0
            epoch = batch_epoch
        x = sample_noise_batch(size, dim, config.distribution, rng)
        y = sample_random_labels(size, n_classes, rng)
        trace = step(mlp, adam, x, y, "FA", config.learning_rate)
        sum_loss += size * cross_entropy(trace.probabilities, y)
        sum_acc += size * accuracy(trace.probabilities, y)
        seen_in_epoch += size
        start += size
    flush()
    return records
