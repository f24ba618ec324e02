"""Multilayer perceptron: state, forward pass, loss, and checkpoints.

The network is a plain dataclass of numpy arrays.  Layer ``l`` maps
``dims[l] -> dims[l + 1]`` through ``o = h @ W_l.T + b_l``; hidden layers
apply ReLU and the final layer a row-wise softmax.  Alongside each forward
matrix ``W_l`` the network carries a fixed random feedback matrix ``B_l`` of
the transposed shape, used only by the feedback-alignment backward pass and
never updated by training.

The trainable parameters live in one contiguous float64 vector, laid out
``W_0, b_0, W_1, b_1, ...`` with each matrix row-major; ``weights`` and
``biases`` are views into it, so the optimizer can update every parameter
with a handful of whole-vector operations.  Gradients and optimizer state
use the same layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError

__all__ = [
    "Mlp",
    "ForwardTrace",
    "init_mlp",
    "forward",
    "softmax",
    "cross_entropy",
    "accuracy",
    "save_mlp",
    "load_mlp",
]

_MAGIC = b"PRLN1"
_LOG_CLAMP = 1e-12


def _split_params(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a vector in the parameter layout."""
    weights, biases = [], []
    off = 0
    for n_in, n_out in zip(dims, dims[1:]):
        weights.append(flat[off : off + n_out * n_in].reshape(n_out, n_in))
        off += n_out * n_in
        biases.append(flat[off : off + n_out])
        off += n_out
    return weights, biases


@dataclass
class Mlp:
    """Network parameters.  ``weights[l]`` has shape ``(dims[l+1], dims[l])``,
    ``biases[l]`` shape ``(dims[l+1],)``, and ``feedback[l]`` the transposed
    shape ``(dims[l], dims[l+1])``.

    Construction copies ``weights`` and ``biases`` into ``params``, the flat
    parameter vector, and replaces them with views of it.  Write them in
    place (``w[...] = ...``): an array put in their place is not part of
    ``params``, which is what the optimizer updates.
    """

    dims: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    feedback: list[np.ndarray] = field(repr=False)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dims = self.dims = tuple(int(d) for d in self.dims)
        self.params = np.empty(sum((a + 1) * b for a, b in zip(dims, dims[1:])))
        weights, biases = _split_params(self.params, dims)
        given = list(self.weights) + list(self.biases)
        if [np.shape(a) for a in given] != [a.shape for a in weights + biases]:
            raise ShapeError(f"weight and bias shapes do not match dims {dims}")
        for dst, src in zip(weights + biases, given):
            dst[...] = src
        self.weights, self.biases = weights, biases

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def copy(self) -> "Mlp":
        # construction copies weights and biases into a new parameter vector
        return Mlp(
            dims=self.dims,
            weights=self.weights,
            biases=self.biases,
            feedback=[b.copy() for b in self.feedback],
        )


@dataclass
class ForwardTrace:
    """Intermediate state of one forward pass, kept for the backward pass.

    ``activations[l]`` is the input to layer ``l`` (``activations[0]`` is the
    batch itself), ``pre_activations[l]`` the affine output ``o`` of layer
    ``l`` before its nonlinearity, and ``probabilities`` the softmax output.
    """

    activations: list[np.ndarray]
    pre_activations: list[np.ndarray]
    probabilities: np.ndarray


def init_mlp(dims, seed) -> Mlp:
    """He-initialized network: ``W_l ~ N(0, 2 / dims[l])``, biases zero, and
    feedback ``B_l`` drawn independently from the same distribution as
    ``W_l``.  ``seed`` is an integer seed or a ``numpy.random.Generator``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output sizes, got dims={dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"all layer sizes must be >= 1, got dims={dims}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases, feedback = [], [], []
    for l in range(len(dims) - 1):
        std = np.sqrt(2.0 / dims[l])
        weights.append(rng.normal(0.0, std, size=(dims[l + 1], dims[l])))
        biases.append(np.zeros(dims[l + 1]))
        feedback.append(rng.normal(0.0, std, size=(dims[l], dims[l + 1])))
    return Mlp(dims=dims, weights=weights, biases=biases, feedback=feedback)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety, written
    into ``out`` when given."""
    # infinite logits yield NaN rows here; forward() turns that into
    # NumericError rather than a runtime warning
    with np.errstate(invalid="ignore"):
        e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
        return e


def forward(mlp: Mlp, batch, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run a 2-D batch (rows are samples) through the network.

    ``out``, a trace with at least as many rows as the batch, supplies the
    buffers to write (all but its ``activations[0]``); the returned trace
    then holds views of their leading rows.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got ndim={x.ndim}")
    if x.shape[1] != mlp.dims[0]:
        raise ShapeError(
            f"batch has {x.shape[1]} features, network expects {mlp.dims[0]}"
        )
    n = x.shape[0]
    if out is None:
        out = _empty_trace(mlp.dims, n)
    pre_activations = [o[:n] for o in out.pre_activations]
    activations = [x] + [h[:n] for h in out.activations[1:]]
    probabilities = out.probabilities[:n]
    last = mlp.n_layers - 1
    # overflow here surfaces as NumericError below, not a runtime warning
    with np.errstate(over="ignore"):
        for l in range(mlp.n_layers):
            o = np.matmul(activations[l], mlp.weights[l].T, out=pre_activations[l])
            o += mlp.biases[l]
            if l == last:
                softmax(o, out=probabilities)
            else:
                np.maximum(o, 0.0, out=activations[l + 1])
    if not np.all(np.isfinite(probabilities)):
        raise NumericError("forward pass produced NaN or Inf probabilities")
    return ForwardTrace(
        activations=activations,
        pre_activations=pre_activations,
        probabilities=probabilities,
    )


def _empty_trace(dims, rows: int) -> ForwardTrace:
    """Uninitialized forward buffers for ``rows`` samples; ``activations[0]``,
    the batch itself, is left as ``None``."""
    return ForwardTrace(
        activations=[None] + [np.empty((rows, d)) for d in dims[1:-1]],
        pre_activations=[np.empty((rows, d)) for d in dims[1:]],
        probabilities=np.empty((rows, dims[-1])),
    )


def _check_labels(probabilities: np.ndarray, labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != probabilities.shape[0]:
        raise ShapeError(
            f"labels shape {y.shape} does not match batch of "
            f"{probabilities.shape[0]}"
        )
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError(f"labels must be integers, got dtype {y.dtype}")
    if y.size and (y.min() < 0 or y.max() >= probabilities.shape[1]):
        raise ShapeError(
            f"labels outside [0, {probabilities.shape[1]}): "
            f"min={y.min()}, max={y.max()}"
        )
    return y


def cross_entropy(probabilities: np.ndarray, labels) -> float:
    """Mean negative log probability of the true class, with the probability
    clamped below at 1e-12 before the log."""
    y = _check_labels(probabilities, labels)
    p_true = probabilities[np.arange(y.shape[0]), y]
    return float(-np.mean(np.log(np.maximum(p_true, _LOG_CLAMP))))


def accuracy(probabilities: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax matches the label."""
    y = _check_labels(probabilities, labels)
    return float(np.mean(np.argmax(probabilities, axis=1) == y))


def save_mlp(mlp: Mlp, path) -> None:
    """Write a checkpoint: magic ``PRLN1``, little-endian u32 layer count and
    sizes, then per layer the float64 buffers ``W_l``, ``b_l``, ``B_l`` in
    row-major order."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(mlp.dims)))
        f.write(struct.pack(f"<{len(mlp.dims)}I", *mlp.dims))
        for l in range(mlp.n_layers):
            for a in (mlp.weights[l], mlp.biases[l], mlp.feedback[l]):
                f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_mlp(path) -> Mlp:
    """Read a checkpoint written by :func:`save_mlp`.  Raises
    :class:`FormatError` on a bad magic, truncation, or trailing bytes, and
    :class:`NumericError` if any stored value is not finite."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    if raw[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    off = len(_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"truncated checkpoint {path}")
        chunk = raw[off : off + n]
        off += n
        return chunk

    (n_dims,) = struct.unpack("<I", take(4))
    if n_dims < 2:
        raise FormatError(f"checkpoint {path} declares {n_dims} layer sizes")
    dims = struct.unpack(f"<{n_dims}I", take(4 * n_dims))
    weights, biases, feedback = [], [], []
    for l in range(n_dims - 1):
        n_out, n_in = dims[l + 1], dims[l]
        w = np.frombuffer(take(8 * n_out * n_in), dtype="<f8").reshape(n_out, n_in)
        b = np.frombuffer(take(8 * n_out), dtype="<f8")
        bk = np.frombuffer(take(8 * n_in * n_out), dtype="<f8").reshape(n_in, n_out)
        weights.append(w)
        biases.append(b)
        feedback.append(bk.astype(np.float64))
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes in checkpoint {path}")
    mlp = Mlp(dims=dims, weights=weights, biases=biases, feedback=feedback)
    for a in [mlp.params] + mlp.feedback:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"checkpoint {path} holds NaN or Inf values")
    return mlp
