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

The call holds a core (see ``learn._Cores``), hook included, so it computes
on one thread of the OpenBLAS that numpy bundles.  An epoch's batches are
drawn up to four at a time, one draw of inputs and one of labels per group,
from two streams of the seed: ``noise`` for the inputs and ``labels`` for
the labels, so that where one group ends does not move the other stream.
When a core is free, a helper thread makes the draws and keeps one ahead of
the group that steps; no draw crosses an epoch boundary.  When no core is
free, the calling thread makes each draw itself as its group comes up to
step, in the same groups and order.  The draws are the same on both paths,
and so are the trained weights, bit for bit.

Batches are drawn in float32 whatever the network's precision, so a
float64 network, which widens each batch in ``forward``, trains on the same
noise as a float32 one.  Gaussian batches come from the Box-Muller
transform (Box & Muller, 1958) on raw 64-bit words of the generator: the
high 24 bits k of word i set the radius ``sqrt(-2 ln((k + 1) 2**-24))``,
which bounds every value by ``sqrt(48 ln 2)``, about 5.77; the low 24 bits
set the angle; and the cosine and sine terms fill flat positions 2i and
2i + 1.  Its float32 ``log``, ``sin`` and ``cos`` are numpy's, whose kernels
numpy picks by CPU feature, so those bytes hold for one host (README's
"Determinism" says what was compared).  Uniform batches are float32
``random``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_float, require_int
from .learn import _CORES, AdamState, _snapshot_metrics, step
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
        if not isinstance(self.distribution, (Gaussian, Uniform)):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        require_int("total_samples", self.total_samples, 1)
        require_int("samples_per_epoch", self.samples_per_epoch, 1)
        require_int("batch_size", self.batch_size, 1)
        require_float("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


# batches per draw: a helper's numpy calls contend with the stepping thread
# for the interpreter lock, and drawing four batches at once makes them few
# per batch
_BATCHES_PER_DRAW = 4


def _epoch_batches(config: NoiseConfig) -> list[tuple[int, list[int]]]:
    """``(epoch, batch sizes)`` for each logging epoch of ``config``: the
    epochs in which a batch starts, numbered from 1."""
    total, size = config.total_samples, config.batch_size
    starts = itertools.groupby(range(0, total, size),
                               key=lambda start: start // config.samples_per_epoch + 1)
    return [(epoch, [min(size, total - start) for start in group])
            for epoch, group in starts]


# Box-Muller: 24-bit integers to the radius's uniform on (0, 1] and to the
# angle on [0, 2 pi)
_UNIT = np.float32(2.0**-24)
_TURN = np.float32(2 * np.pi * 2.0**-24)
# words per pass: each of the three float32-wide temporaries is 128 KiB at
# most, whatever the draw's size (larger ones raised the peak RSS of two
# pooled noise trials by about 2 MB)
_PASS_WORDS = 1 << 15
# columns of a word's low and high 32 bits in its uint32 view
_LOW, _HIGH = (0, 1) if np.little_endian else (1, 0)


def _box_muller(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` float32 standard normal values from ``ceil(count / 2)``
    raw words of ``rng``'s bit generator.  The words' buffer becomes the
    output: each pass reads its words before it writes their values."""
    pairs = -(-count // 2)
    words = rng.bit_generator.random_raw(pairs)
    halves = words.view(np.uint32).reshape(pairs, 2)
    out = words.view(np.float32).reshape(pairs, 2)
    size = min(pairs, _PASS_WORDS)
    ints, radius, angle = (np.empty(size, np.uint32), np.empty(size, np.float32),
                           np.empty(size, np.float32))
    for start in range(0, pairs, size):
        stop = min(start + size, pairs)
        k, r, a = ints[:stop - start], radius[:stop - start], angle[:stop - start]
        np.right_shift(halves[start:stop, _HIGH], 8, out=k)
        k += 1
        np.multiply(k, _UNIT, out=r, dtype=np.float32)
        np.log(r, out=r)
        r *= np.float32(-2)
        np.sqrt(r, out=r)
        np.bitwise_and(halves[start:stop, _LOW], 0xFFFFFF, out=k)
        np.multiply(k, _TURN, out=a, dtype=np.float32)
        cos = np.cos(a, out=k.view(np.float32))
        np.sin(a, out=a)
        np.multiply(cos, r, out=out[start:stop, 0])
        np.multiply(a, r, out=out[start:stop, 1])
    return out.reshape(-1)[:count]


def sample_noise_batch(n: int, dim: int, distribution,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw an ``(n, dim)`` float32 batch of noise inputs, scaled and
    shifted in place: Box-Muller values for Gaussian batches and ``random``
    for uniform ones.  ``n`` rows drawn at once are the rows of consecutive
    draws from the same stream whenever each of those draws holds an even
    number of values."""
    if n < 1 or dim < 1:
        raise ConfigError(f"batch shape must be positive, got ({n}, {dim})")
    if isinstance(distribution, Gaussian):
        x = _box_muller(n * dim, rng).reshape(n, dim)
        x *= float(distribution.std)
        x += float(distribution.mean)
        return x
    if isinstance(distribution, Uniform):
        x = rng.random((n, dim), dtype=np.float32)
        x *= float(distribution.high - distribution.low)
        x += float(distribution.low)
        return x
    raise ConfigError(f"unknown distribution {distribution!r}")


def sample_random_labels(n: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` labels uniformly from ``{0, ..., n_classes - 1}``."""
    if n < 1 or n_classes < 1:
        raise ConfigError(f"need n >= 1 and n_classes >= 1, got {n}, {n_classes}")
    return rng.integers(0, n_classes, size=n)


@_CORES.item()
def pretrain_random_noise(
    mlp: Mlp,
    config: NoiseConfig,
    trial: int = 0,
    snapshot_hook=None,
    *,
    seed: int = 0,
) -> list[RunRecord]:
    """Train ``mlp`` in place on fresh noise with random labels, drawn from
    the streams that ``seed`` picks.

    Returns one :class:`RunRecord` per logging epoch with the sample-weighted
    mean batch loss and accuracy of the noise stream itself (test fields stay
    ``None``; there is no held-out split of noise).  ``snapshot_hook(epoch,
    mlp)`` may return extra scalars for that epoch's metrics.  The call
    holds a core, hook included, as a runner item does.  No helper thread
    outlives its epoch, whatever a step or the hook raises.
    """
    inputs, labels = rng_for(seed, "noise"), rng_for(seed, "labels")
    adam = AdamState.for_mlp(mlp)
    dim, n_classes = mlp.dims[0], mlp.dims[-1]
    records: list[RunRecord] = []
    sum_loss = sum_acc = 0.0

    def draw(sizes: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        n = sum(sizes)
        x = sample_noise_batch(n, dim, config.distribution, inputs)
        y = sample_random_labels(n, n_classes, labels)
        offsets = list(itertools.accumulate(sizes[:-1]))
        return list(zip(np.split(x, offsets), np.split(y, offsets)))

    def train_step(x: np.ndarray, y: np.ndarray) -> None:
        nonlocal sum_loss, sum_acc
        trace = step(mlp, adam, x, y, "FA", config.learning_rate)
        sum_loss += len(y) * cross_entropy(trace.probabilities, y)
        sum_acc += len(y) * accuracy(trace.probabilities, y)

    def train_group(drawn) -> None:
        for batch in drawn.result():
            train_step(*batch)

    for epoch, sizes in _epoch_batches(config):
        sum_loss = sum_acc = 0.0
        groups = [sizes[start:start + _BATCHES_PER_DRAW]
                  for start in range(0, len(sizes), _BATCHES_PER_DRAW)]
        # the next group's draw is in flight while a group steps; leaving
        # the block joins the sampler, and result() raises what a draw raised
        with _CORES.helper("noise-sampler") as sampler:
            pending = sampler.submit(draw, groups[0])
            for group in groups[1:]:
                drawn, pending = pending, sampler.submit(draw, group)
                train_group(drawn)
            train_group(pending)
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
