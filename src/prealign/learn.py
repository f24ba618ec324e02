"""Backward passes, the Adam optimizer, and the supervised training loop.

Two backward rules share one implementation and differ in a single line.
Backpropagation carries the error downward through the transposed forward
weights; feedback alignment replaces that factor with the network's fixed
random feedback matrices:

    BP:  delta_l = (delta_{l+1} @ W_{l+1})   * relu'(o_l)
    FA:  delta_l = (delta_{l+1} @ B_{l+1}.T) * relu'(o_l)

with ``relu'(0) := 0``.  The output delta is ``probabilities - one_hot``
divided by the batch size, the fused gradient of mean cross-entropy through
softmax.  Setting ``B = W.T`` makes the two rules bitwise identical, which
the tests assert.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, require_int
from .net import (Mlp, ForwardTrace, _check_labels, _empty_trace, _split_params,
                  accuracy, cross_entropy, forward)
from .records import RunRecord
from .seeds import rng_for

__all__ = [
    "Gradients",
    "AdamState",
    "TrainConfig",
    "backward_bp",
    "backward_fa",
    "adam_step",
    "step",
    "evaluate",
    "train",
]

_RULES = ("BP", "FA")
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8

# (setter, getter) of the BLAS thread count in the scipy-openblas that
# numpy (>= 2.0) bundles
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"
)


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
        set_name, get_name = _OPENBLAS_THREAD_SYMBOLS
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
    threads make those threads spin-wait against each other, and so does
    the noise loop's sampler thread against a two-thread gemm.  The setting
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


@dataclass
class Gradients:
    """Loss gradients of a network with layer sizes ``dims``, held in
    ``flat``, a vector in the parameter layout.  ``d_weights[l]`` and
    ``d_biases[l]`` are views of it with the shapes of ``W_l`` and ``b_l``."""

    dims: tuple[int, ...]
    flat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.d_weights, self.d_biases = _split_params(self.flat, self.dims)


@dataclass
class _Buffers:
    """Everything one :func:`step` writes, allocated once for batches of up
    to ``rows`` samples; a shorter batch uses the leading rows."""

    rows: int
    trace: ForwardTrace
    grads: Gradients
    deltas: list[np.ndarray]
    masks: list[np.ndarray]

    @classmethod
    def allocate(cls, mlp: Mlp, rows: int) -> "_Buffers":
        return cls(
            rows=rows,
            trace=_empty_trace(mlp.dims, rows),
            grads=Gradients(mlp.dims, np.empty_like(mlp.params)),
            deltas=[np.empty((rows, d)) for d in mlp.dims[1:]],
            masks=[np.empty((rows, d), dtype=bool) for d in mlp.dims[1:-1]],
        )


@dataclass
class AdamState:
    """Adam moment accumulators ``m`` and ``v`` in the flat parameter
    layout, and the work buffers the update and :func:`step` reuse."""

    step: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    temps: np.ndarray | None = field(default=None, repr=False)
    buffers: _Buffers | None = field(default=None, repr=False)

    @classmethod
    def for_mlp(cls, mlp: Mlp) -> "AdamState":
        return cls(
            m=np.zeros_like(mlp.params),
            v=np.zeros_like(mlp.params),
            temps=np.empty((2, mlp.params.size)),
        )


@dataclass
class TrainConfig:
    """Settings for the supervised loop.

    ``patience``, when set, stops training after that many consecutive
    epochs without an improvement in test accuracy.
    """

    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    patience: int | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        require_int("batch_size", self.batch_size, 1)
        require_int("epochs", self.epochs, 1)
        if self.patience is not None:
            require_int("patience", self.patience, 1)


def _backward(mlp: Mlp, trace: ForwardTrace, labels, use_feedback: bool,
              buffers: _Buffers | None) -> Gradients:
    y = _check_labels(trace.probabilities, labels)
    n = trace.probabilities.shape[0]
    if len(trace.pre_activations) != mlp.n_layers:
        raise ShapeError(
            f"trace has {len(trace.pre_activations)} layers, network has "
            f"{mlp.n_layers}"
        )
    if buffers is None:
        buffers = _Buffers.allocate(mlp, n)
    grads = buffers.grads
    delta = buffers.deltas[-1][:n]
    np.copyto(delta, trace.probabilities)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for l in range(mlp.n_layers - 1, -1, -1):
        np.matmul(delta.T, trace.activations[l], out=grads.d_weights[l])
        np.sum(delta, axis=0, out=grads.d_biases[l])
        if l > 0:
            carried = buffers.deltas[l - 1][:n]
            if use_feedback:
                np.matmul(delta, mlp.feedback[l].T, out=carried)
            else:
                np.matmul(delta, mlp.weights[l], out=carried)
            mask = buffers.masks[l - 1][:n]
            np.greater(trace.pre_activations[l - 1], 0, out=mask)
            carried *= mask
            delta = carried
    return grads


def backward_bp(mlp: Mlp, trace: ForwardTrace, labels, buffers=None) -> Gradients:
    """Exact cross-entropy gradients by backpropagation.  ``buffers``, the
    work buffers of an :class:`AdamState`, receive the result in place of
    fresh arrays."""
    return _backward(mlp, trace, labels, False, buffers)


def backward_fa(mlp: Mlp, trace: ForwardTrace, labels, buffers=None) -> Gradients:
    """Feedback-alignment update directions: the backward pass uses the fixed
    random matrices ``B_l`` in place of the transposed forward weights.  The
    output layer's gradient is exact; hidden gradients are not, by design.
    ``buffers`` is as for :func:`backward_bp`."""
    return _backward(mlp, trace, labels, True, buffers)


def adam_step(mlp: Mlp, state: AdamState, grads: Gradients, learning_rate: float) -> None:
    """One bias-corrected Adam update, applied in place to ``mlp`` and
    ``state``.  Touches weights and biases only; feedback matrices stay
    fixed for the life of the network.

    Results are bitwise those of the per-element formula
    ``p -= lr * (m * s_m) / (sqrt(v * s_v) + eps)`` evaluated in that order,
    so every operation below keeps its operands where the formula puts them.
    """
    if learning_rate <= 0:
        raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
    if grads.dims != mlp.dims:
        raise ShapeError(f"gradients for dims {grads.dims}, network has {mlp.dims}")
    state.step += 1
    t = state.step
    scale_m = 1.0 / (1.0 - _BETA1**t)
    scale_v = 1.0 / (1.0 - _BETA2**t)
    g, m, v, p = grads.flat, state.m, state.v, mlp.params
    a, b = state.temps
    m *= _BETA1
    m += np.multiply(g, 1.0 - _BETA1, out=a)
    v *= _BETA2
    v += np.multiply(np.square(g, out=a), 1.0 - _BETA2, out=a)
    # a blown-up gradient surfaces as NumericError, not a runtime warning
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(m, scale_m, out=a)
        a *= learning_rate
        np.multiply(v, scale_v, out=b)
        np.sqrt(b, out=b)
        b += _EPSILON
        a /= b
        p -= a
    if not np.all(np.isfinite(p)):
        raise NumericError("parameters became NaN or Inf during Adam update")


def step(mlp: Mlp, state: AdamState, x: np.ndarray, y: np.ndarray, rule: str,
         learning_rate: float) -> ForwardTrace:
    """One training step on the batch ``(x, y)``: forward pass, the
    ``rule`` backward pass (``"BP"`` or ``"FA"``), and an Adam update of
    ``mlp`` in place.

    Returns the forward trace of the batch, taken before the update.  Its
    arrays are ``state``'s work buffers, which the next step overwrites.
    """
    n = len(x)
    buffers = state.buffers
    if buffers is None or buffers.rows < n:
        buffers = state.buffers = _Buffers.allocate(mlp, n)
    trace = forward(mlp, x, out=buffers.trace)
    if rule == "FA":
        grads = backward_fa(mlp, trace, y, buffers)
    elif rule == "BP":
        grads = backward_bp(mlp, trace, y, buffers)
    else:
        raise ConfigError(f"rule must be one of {_RULES}, got {rule!r}")
    adam_step(mlp, state, grads, learning_rate)
    return trace


def evaluate(mlp: Mlp, inputs, labels) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of the network on a full split."""
    trace = forward(mlp, inputs)
    return cross_entropy(trace.probabilities, labels), accuracy(
        trace.probabilities, labels
    )


def _snapshot_metrics(snapshot_hook, epoch: int, mlp: Mlp, metrics: dict) -> dict:
    """``metrics`` with the scalars ``snapshot_hook(epoch, mlp)`` returns, if
    a hook is given, merged in as floats."""
    if snapshot_hook is not None:
        extra = snapshot_hook(epoch, mlp) or {}
        metrics.update({k: float(v) for k, v in extra.items()})
    return metrics


def _check_split(name: str, x: np.ndarray, y: np.ndarray, mlp: Mlp) -> None:
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError(f"{name} inputs must be a nonempty 2-D array")
    if x.shape[0] != y.shape[0]:
        raise ConfigError(
            f"{name} has {x.shape[0]} inputs but {y.shape[0]} labels"
        )
    if x.shape[1] != mlp.dims[0]:
        raise ConfigError(
            f"{name} feature count {x.shape[1]} != network input {mlp.dims[0]}"
        )


def train(
    mlp: Mlp,
    train_inputs,
    train_labels,
    test_inputs,
    test_labels,
    config: TrainConfig,
    trial: int = 0,
    snapshot_hook=None,
    *,
    rule: str = "FA",
    seed: int = 0,
) -> list[RunRecord]:
    """Minibatch training with Adam, updating ``mlp`` in place.

    ``rule`` picks the backward pass (``"BP"`` or ``"FA"``) and ``seed`` the
    shuffling stream.  Each epoch visits every training sample once in a
    freshly shuffled order (the last batch may be short), then evaluates
    both splits and appends one :class:`RunRecord`.  ``snapshot_hook(epoch,
    mlp)`` may return extra scalars to merge into that epoch's metrics.
    Early stopping, when ``config.patience`` is set, triggers after
    ``patience`` consecutive epochs without a new best test accuracy; the
    best value seen is logged in each record under ``best_test_acc``.
    """
    x_train = np.asarray(train_inputs, dtype=np.float64)
    y_train = np.asarray(train_labels)
    x_test = np.asarray(test_inputs, dtype=np.float64)
    y_test = np.asarray(test_labels)
    _check_split("train", x_train, y_train, mlp)
    _check_split("test", x_test, y_test, mlp)
    rng = rng_for(seed, "shuffle")
    adam = AdamState.for_mlp(mlp)
    records: list[RunRecord] = []
    n = x_train.shape[0]
    rows = min(config.batch_size, n)
    x_batch = np.empty((rows, x_train.shape[1]))
    y_batch = np.empty(rows, dtype=y_train.dtype)
    best_acc = -np.inf
    stalled = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            # indices come from a permutation of range(n), so "clip" never
            # clips; it spares the copy "raise" makes when writing to out
            x = np.take(x_train, idx, axis=0, out=x_batch[: len(idx)], mode="clip")
            y = np.take(y_train, idx, out=y_batch[: len(idx)], mode="clip")
            step(mlp, adam, x, y, rule, config.learning_rate)
        train_loss, train_acc = evaluate(mlp, x_train, y_train)
        test_loss, test_acc = evaluate(mlp, x_test, y_test)
        if test_acc > best_acc:
            best_acc = test_acc
            stalled = 0
        else:
            stalled += 1
        metrics = _snapshot_metrics(snapshot_hook, epoch, mlp,
                                    {"best_test_acc": best_acc})
        records.append(
            RunRecord(
                trial=trial,
                phase="train",
                epoch=epoch,
                train_loss=train_loss,
                test_loss=test_loss,
                train_acc=train_acc,
                test_acc=test_acc,
                metrics=metrics,
            )
        )
        if config.patience is not None and stalled >= config.patience:
            break
    return records
