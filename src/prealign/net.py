"""Multilayer perceptron: state, forward pass, loss, and checkpoints.

The network is a plain dataclass of numpy arrays.  Layer ``l`` maps
``dims[l] -> dims[l + 1]`` through ``o = h @ W_l.T + b_l``; hidden layers
apply ReLU and the final layer a row-wise softmax.  Alongside each forward
matrix ``W_l`` the network carries a fixed random feedback matrix ``B_l`` of
the transposed shape, used only by the feedback-alignment backward pass and
never updated by training.

The trainable parameters live in one contiguous vector, laid out
``W_0, b_0, W_1, b_1, ...`` with each matrix row-major; ``weights`` and
``biases`` are views into it, so the optimizer can update every parameter
with a handful of whole-vector operations.  Gradients and optimizer state
use the same layout.

Networks train in float32 (:data:`TRAIN_DTYPE`): the vector's dtype sets the
precision of the forward pass, the backward pass and Adam, and a float64
network runs the same code in float64, on noise drawn in float32 and widened.
Losses and every metric reduce in float64; checkpoints store float64 and
load as float32, so a float32 network round-trips exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError

__all__ = [
    "TRAIN_DTYPE",
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

# the precision that init_mlp builds networks in, and so that runs train in
TRAIN_DTYPE = np.dtype(np.float32)

_MAGIC = b"PRLN1"
_LOG_CLAMP = 1e-12


def _split_params(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a vector in the parameter layout."""
    if flat.shape != (sum((a + 1) * b for a, b in zip(dims, dims[1:])),):
        raise ShapeError(f"parameter vector {flat.shape} does not fit dims {dims}")
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
    ``params``, which is what the optimizer updates.  ``params`` is float32
    when every given weight and bias array is, and float64 otherwise;
    ``feedback`` is held in the same dtype.
    """

    dims: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    feedback: list[np.ndarray] = field(repr=False)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dims = self.dims = tuple(int(d) for d in self.dims)
        given = list(self.weights) + list(self.biases)
        single = all(np.asarray(a).dtype == np.float32 for a in given)
        dtype = np.dtype(np.float32 if single else np.float64)
        self.params = np.empty(sum(np.size(a) for a in given), dtype=dtype)
        weights, biases = _split_params(self.params, dims)
        if [np.shape(a) for a in given] != [a.shape for a in weights + biases]:
            raise ShapeError(f"weight and bias shapes do not match dims {dims}")
        for dst, src in zip(weights + biases, given):
            dst[...] = src
        self.weights, self.biases = weights, biases
        self.feedback = [np.asarray(b, dtype=dtype) for b in self.feedback]

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

    ``activations[l]`` is the input to layer ``l``: ``activations[0]`` is
    the batch itself, and each later one the ReLU output of the layer
    before, which is positive exactly where that layer's affine output is.
    ``probabilities`` is the softmax output of the last layer.
    """

    activations: list[np.ndarray]
    probabilities: np.ndarray


def init_mlp(dims, seed, dtype=TRAIN_DTYPE) -> Mlp:
    """He-initialized network: ``W_l ~ N(0, 2 / dims[l])``, biases zero, and
    feedback ``B_l`` drawn independently from the same distribution as
    ``W_l``.  ``seed`` is an integer seed or a ``numpy.random.Generator``.
    Values are drawn in float64 and rounded once to ``dtype`` (float32 or
    float64), so both precisions start from the same draws.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output sizes, got dims={dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"all layer sizes must be >= 1, got dims={dims}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def draw(n_in, shape):
        return rng.normal(0.0, np.sqrt(2.0 / n_in), size=shape).astype(dtype, copy=False)

    weights, biases, feedback = [], [], []
    for n_in, n_out in zip(dims, dims[1:]):
        weights.append(draw(n_in, (n_out, n_in)))
        biases.append(np.zeros(n_out, dtype=dtype))
        feedback.append(draw(n_in, (n_in, n_out)))
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
    then holds views of their leading rows.  The batch is cast to the
    network's precision, and every array of the trace is in it.
    """
    x = np.asarray(batch, dtype=mlp.params.dtype)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got ndim={x.ndim}")
    if x.shape[1] != mlp.dims[0]:
        raise ShapeError(
            f"batch has {x.shape[1]} features, network expects {mlp.dims[0]}"
        )
    n = x.shape[0]
    if out is None:
        out = _empty_trace(mlp.dims, n, mlp.params.dtype)
    activations = [x] + [h[:n] for h in out.activations[1:]]
    probabilities = out.probabilities[:n]
    last = mlp.n_layers - 1
    # each layer's affine output is transformed in its output buffer;
    # overflow here surfaces as NumericError below, not a runtime warning
    with np.errstate(over="ignore"):
        for l, o in enumerate(activations[1:] + [probabilities]):
            np.matmul(activations[l], mlp.weights[l].T, out=o)
            o += mlp.biases[l]
            if l == last:
                softmax(o, out=o)
            else:
                np.maximum(o, 0.0, out=o)
    if not np.all(np.isfinite(probabilities)):
        raise NumericError("forward pass produced NaN or Inf probabilities")
    return ForwardTrace(activations=activations, probabilities=probabilities)


def _empty_trace(dims, rows: int, dtype) -> ForwardTrace:
    """Uninitialized ``dtype`` forward buffers for ``rows`` samples;
    ``activations[0]``, the batch itself, is left as ``None``."""
    return ForwardTrace(
        activations=[None] + [np.empty((rows, d), dtype=dtype) for d in dims[1:-1]],
        probabilities=np.empty((rows, dims[-1]), dtype=dtype),
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
    clamped below at 1e-12 before the log; computed in float64 whatever the
    precision of ``probabilities``."""
    y = _check_labels(probabilities, labels)
    p_true = probabilities[np.arange(y.shape[0]), y].astype(np.float64)
    return float(-np.mean(np.log(np.maximum(p_true, _LOG_CLAMP))))


def accuracy(probabilities: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax matches the label, as a float64 mean.
    The argmax reads ``probabilities`` as given: widening them to float64
    is exact and keeps their order."""
    y = _check_labels(probabilities, labels)
    return float(np.mean(np.argmax(probabilities, axis=1) == y))


def save_mlp(mlp: Mlp, path) -> None:
    """Write a checkpoint: magic ``PRLN1``, little-endian u32 layer count and
    sizes, then per layer the float64 buffers ``W_l``, ``b_l``, ``B_l`` in
    row-major order.  A float32 network is widened to float64, which is
    exact, so the format does not depend on the precision."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(mlp.dims)))
        f.write(struct.pack(f"<{len(mlp.dims)}I", *mlp.dims))
        for l in range(mlp.n_layers):
            for a in (mlp.weights[l], mlp.biases[l], mlp.feedback[l]):
                f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_mlp(path) -> Mlp:
    """Read a checkpoint written by :func:`save_mlp` into a
    :data:`TRAIN_DTYPE` network, as runs train, rounding the stored float64
    values: exact for a float32 network's checkpoint.  Raises
    :class:`FormatError` on a bad magic, truncation, or trailing bytes, and
    :class:`NumericError` if any value is not finite in float32."""
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
    # a value beyond float32's range rounds to Inf, refused below
    with np.errstate(over="ignore"):
        for l in range(n_dims - 1):
            n_out, n_in = dims[l + 1], dims[l]
            w = np.frombuffer(take(8 * n_out * n_in), dtype="<f8").reshape(n_out, n_in)
            b = np.frombuffer(take(8 * n_out), dtype="<f8")
            bk = np.frombuffer(take(8 * n_in * n_out), dtype="<f8").reshape(n_in, n_out)
            weights.append(w.astype(TRAIN_DTYPE))
            biases.append(b.astype(TRAIN_DTYPE))
            feedback.append(bk.astype(TRAIN_DTYPE))
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes in checkpoint {path}")
    mlp = Mlp(dims=dims, weights=weights, biases=biases, feedback=feedback)
    for a in [mlp.params] + mlp.feedback:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"checkpoint {path} holds NaN or Inf in float32")
    return mlp
