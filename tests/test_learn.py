"""Backward rules, Adam, and the training loop."""

import numpy as np
import pytest

from prealign.errors import ConfigError, NumericError, ShapeError
from prealign.learn import (
    AdamState,
    Gradients,
    TrainConfig,
    adam_step,
    backward_bp,
    backward_fa,
    evaluate,
    step,
    train,
)
from prealign.net import cross_entropy, forward, init_mlp

from oracles import (
    adam_sequence,
    adam_unfused,
    backward_unfused,
    fa_backward_reference,
    forward_unfused,
    finite_difference_gradients,
    max_relative_error,
)


def _loss_of(mlp, x, y):
    return cross_entropy(forward(mlp, x).probabilities, y)


class TestBackwardBp:
    def test_matches_finite_differences(self, rng):
        mlp = init_mlp((5, 4, 3), seed=0)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        trace = forward(mlp, x)
        grads = backward_bp(mlp, trace, y)
        fd_w = finite_difference_gradients(lambda: _loss_of(mlp, x, y), mlp.weights)
        fd_b = finite_difference_gradients(lambda: _loss_of(mlp, x, y), mlp.biases)
        for got, want in zip(grads.d_weights + grads.d_biases, fd_w + fd_b):
            assert max_relative_error(got, want) < 1e-6

    def test_three_layer_finite_differences(self, rng):
        mlp = init_mlp((4, 5, 4, 3), seed=1)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        grads = backward_bp(mlp, forward(mlp, x), y)
        fd_w = finite_difference_gradients(lambda: _loss_of(mlp, x, y), mlp.weights)
        for got, want in zip(grads.d_weights, fd_w):
            assert max_relative_error(got, want) < 1e-6


class TestBackwardFa:
    def test_matches_loop_reference(self, rng):
        mlp = init_mlp((6, 5, 4, 3), seed=2)
        x = rng.normal(size=(7, 6))
        y = rng.integers(0, 3, size=7)
        grads = backward_fa(mlp, forward(mlp, x), y)
        ref_w, ref_b = fa_backward_reference(
            mlp.weights, mlp.biases, mlp.feedback, x, y
        )
        for got, want in zip(grads.d_weights + grads.d_biases, ref_w + ref_b):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_equals_bp_when_feedback_is_transpose(self, rng):
        mlp = init_mlp((5, 4, 4, 3), seed=3)
        mlp.feedback = [w.T.copy() for w in mlp.weights]
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        trace = forward(mlp, x)
        fa = backward_fa(mlp, trace, y)
        bp = backward_bp(mlp, trace, y)
        for a, b in zip(fa.d_weights + fa.d_biases, bp.d_weights + bp.d_biases):
            np.testing.assert_array_equal(a, b)

    def test_output_layer_gradient_always_exact(self, rng):
        mlp = init_mlp((5, 4, 3), seed=4)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        trace = forward(mlp, x)
        fa = backward_fa(mlp, trace, y)
        bp = backward_bp(mlp, trace, y)
        np.testing.assert_array_equal(fa.d_weights[-1], bp.d_weights[-1])
        np.testing.assert_array_equal(fa.d_biases[-1], bp.d_biases[-1])

    def test_hidden_direction_differs_from_bp(self, rng):
        mlp = init_mlp((5, 4, 3), seed=5)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        trace = forward(mlp, x)
        fa = backward_fa(mlp, trace, y)
        bp = backward_bp(mlp, trace, y)
        assert not np.allclose(fa.d_weights[0], bp.d_weights[0])

    def test_trace_mismatch_rejected(self, rng):
        big = init_mlp((5, 4, 4, 3), seed=0)
        small = init_mlp((5, 4, 3), seed=0)
        trace = forward(small, rng.normal(size=(2, 5)))
        with pytest.raises(ShapeError):
            backward_fa(big, trace, np.array([0, 1]))


class TestAdam:
    def test_matches_scalar_unroll(self):
        mlp = init_mlp((3, 2), seed=0)
        state = AdamState.for_mlp(mlp)
        grad_values = [0.5, -0.3, 0.8, 0.1, -0.9]
        start = mlp.weights[0].copy()
        observed = []
        for g in grad_values:
            grads = Gradients(
                d_weights=[np.full_like(mlp.weights[0], g)],
                d_biases=[np.full_like(mlp.biases[0], g)],
            )
            adam_step(mlp, state, grads, learning_rate=0.01)
            observed.append(mlp.weights[0][0, 0] - start[0, 0])
        expected = adam_sequence(grad_values, lr=0.01)
        np.testing.assert_allclose(observed, expected, atol=1e-14)

    def test_feedback_never_updated(self, rng):
        mlp = init_mlp((5, 4, 3), seed=1)
        frozen = [b.copy() for b in mlp.feedback]
        state = AdamState.for_mlp(mlp)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        for _ in range(5):
            grads = backward_fa(mlp, forward(mlp, x), y)
            adam_step(mlp, state, grads, learning_rate=0.01)
        for before, after in zip(frozen, mlp.feedback):
            np.testing.assert_array_equal(before, after)

    def test_step_counter_increments(self, tiny_mlp):
        state = AdamState.for_mlp(tiny_mlp)
        grads = Gradients(
            d_weights=[np.zeros_like(w) for w in tiny_mlp.weights],
            d_biases=[np.zeros_like(b) for b in tiny_mlp.biases],
        )
        adam_step(tiny_mlp, state, grads, learning_rate=0.1)
        adam_step(tiny_mlp, state, grads, learning_rate=0.1)
        assert state.step == 2

    def test_shape_mismatch_rejected(self, tiny_mlp):
        state = AdamState.for_mlp(tiny_mlp)
        grads = Gradients(
            d_weights=[np.zeros((2, 2)) for _ in tiny_mlp.weights],
            d_biases=[np.zeros_like(b) for b in tiny_mlp.biases],
        )
        with pytest.raises(ShapeError):
            adam_step(tiny_mlp, state, grads, learning_rate=0.1)

    def test_nonfinite_update_rejected(self, tiny_mlp):
        state = AdamState.for_mlp(tiny_mlp)
        grads = Gradients(
            d_weights=[np.full_like(w, np.inf) for w in tiny_mlp.weights],
            d_biases=[np.zeros_like(b) for b in tiny_mlp.biases],
        )
        with pytest.raises(NumericError):
            adam_step(tiny_mlp, state, grads, learning_rate=0.1)


class TestStep:
    @pytest.mark.parametrize("dims", [(784, 100, 10), (784, 100, 100, 100, 10)])
    @pytest.mark.parametrize("rule", ["FA", "BP"])
    def test_bitwise_equal_to_unfused_reference(self, dims, rule):
        # a short first batch, full batches, then a short last batch
        sizes = [40] + [64] * 48 + [23]
        rng = np.random.default_rng(17)
        mlp = init_mlp(dims, seed=3)
        adam = AdamState.for_mlp(mlp)
        weights = [w.copy() for w in mlp.weights]
        biases = [b.copy() for b in mlp.biases]
        ms = [np.zeros_like(p) for p in weights + biases]
        vs = [np.zeros_like(p) for p in weights + biases]
        for t, size in enumerate(sizes, start=1):
            x = rng.normal(size=(size, dims[0]))
            y = rng.integers(0, dims[-1], size=size)
            trace = step(mlp, adam, x, y, rule, 1e-3)
            acts, pre, probs = forward_unfused(weights, biases, x)
            np.testing.assert_array_equal(trace.probabilities, probs)
            d_w, d_b = backward_unfused(weights, mlp.feedback, acts, pre, probs, y,
                                        use_feedback=rule == "FA")
            adam_unfused(weights + biases, d_w + d_b, ms, vs, t, 1e-3)
        assert adam.step == len(sizes)
        for got, want in zip(mlp.weights + mlp.biases, weights + biases):
            np.testing.assert_array_equal(got, want)
        n = len(weights)

        def layout(per_tensor):
            # the flat parameter layout: W_0, b_0, W_1, b_1, ...
            return np.concatenate([a.ravel() for l in range(n)
                                   for a in (per_tensor[l], per_tensor[n + l])])

        np.testing.assert_array_equal(adam.m, layout(ms))
        np.testing.assert_array_equal(adam.v, layout(vs))
        np.testing.assert_array_equal(mlp.params, layout(weights + biases))

    def test_unknown_rule_rejected(self, tiny_mlp, rng):
        with pytest.raises(ConfigError):
            step(tiny_mlp, AdamState.for_mlp(tiny_mlp), rng.normal(size=(2, 5)),
                 np.array([0, 1]), "DFA", 0.1)


def _blob_split(rng, n, dim=8, classes=3, spread=0.4):
    centers = rng.normal(size=(classes, dim)) * 2.0
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + rng.normal(size=(n, dim)) * spread
    return x, labels


class TestTrainLoop:
    def test_record_count_and_fields(self, rng):
        x, y = _blob_split(rng, 120)
        xt, yt = _blob_split(rng, 60)
        mlp = init_mlp((8, 6, 3), seed=0)
        cfg = TrainConfig(rule="FA", learning_rate=1e-3, batch_size=32, epochs=4)
        records = train(mlp, x, y, xt, yt, cfg, trial=2, phase="train")
        assert len(records) == 4
        assert [r.epoch for r in records] == [1, 2, 3, 4]
        for r in records:
            assert r.trial == 2 and r.phase == "train"
            assert r.train_loss is not None and r.test_acc is not None
            assert 0.0 <= r.test_acc <= 1.0

    def test_learns_separable_blobs(self, rng):
        x, y = _blob_split(rng, 300, spread=0.2)
        mlp = init_mlp((8, 16, 3), seed=1)
        cfg = TrainConfig(rule="FA", learning_rate=3e-3, batch_size=32, epochs=40)
        records = train(mlp, x, y, x, y, cfg)
        assert records[-1].train_acc > 0.9

    def test_bp_matches_fa_given_transposed_feedback(self, rng):
        # equivalence only lasts while B == W.T, i.e. a single update step
        x, y = _blob_split(rng, 100)
        xt, yt = _blob_split(rng, 50)
        fa_mlp = init_mlp((8, 6, 3), seed=7)
        fa_mlp.feedback = [w.T.copy() for w in fa_mlp.weights]
        bp_mlp = fa_mlp.copy()
        cfg_fa = TrainConfig(rule="FA", learning_rate=1e-3, batch_size=100, epochs=1)
        cfg_bp = TrainConfig(rule="BP", learning_rate=1e-3, batch_size=100, epochs=1)
        rec_fa = train(fa_mlp, x, y, xt, yt, cfg_fa)
        rec_bp = train(bp_mlp, x, y, xt, yt, cfg_bp)
        for a, b in zip(fa_mlp.weights, bp_mlp.weights):
            np.testing.assert_array_equal(a, b)
        assert rec_fa[-1].train_loss == rec_bp[-1].train_loss

    def test_determinism(self, rng):
        x, y = _blob_split(rng, 100)
        cfg = TrainConfig(rule="FA", learning_rate=1e-3, batch_size=16, epochs=3,
                          seed=5)
        rec_a = train(init_mlp((8, 6, 3), seed=2), x, y, x, y, cfg)
        rec_b = train(init_mlp((8, 6, 3), seed=2), x, y, x, y, cfg)
        assert [r.train_loss for r in rec_a] == [r.train_loss for r in rec_b]

    def test_patience_stops_stalled_run(self, rng):
        x, y = _blob_split(rng, 60)
        mlp = init_mlp((8, 6, 3), seed=3)
        # learning rate so small that test accuracy never improves again
        cfg = TrainConfig(rule="FA", learning_rate=1e-15, batch_size=32,
                          epochs=50, patience=2)
        records = train(mlp, x, y, x, y, cfg)
        assert len(records) == 3

    def test_best_test_acc_logged(self, rng):
        x, y = _blob_split(rng, 120)
        mlp = init_mlp((8, 6, 3), seed=4)
        cfg = TrainConfig(rule="FA", learning_rate=2e-3, batch_size=32, epochs=5)
        records = train(mlp, x, y, x, y, cfg)
        running_best = max(r.test_acc for r in records)
        assert records[-1].metrics["best_test_acc"] == running_best

    def test_snapshot_hook_metrics_merged(self, rng):
        x, y = _blob_split(rng, 60)
        mlp = init_mlp((8, 6, 3), seed=5)
        cfg = TrainConfig(rule="FA", learning_rate=1e-3, batch_size=32, epochs=2)
        records = train(mlp, x, y, x, y, cfg,
                        snapshot_hook=lambda epoch, net: {"probe": float(epoch)})
        assert [r.metrics["probe"] for r in records] == [1.0, 2.0]

    def test_empty_split_rejected(self, rng, tiny_mlp):
        with pytest.raises(ConfigError):
            train(tiny_mlp, np.zeros((0, 5)), np.zeros(0, dtype=int),
                  np.zeros((1, 5)), np.zeros(1, dtype=int),
                  TrainConfig(rule="FA"))

    def test_bad_rule_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(rule="DFA")

    def test_evaluate_matches_loss(self, rng, tiny_mlp):
        x = rng.normal(size=(10, 5))
        y = rng.integers(0, 3, size=10)
        loss, acc = evaluate(tiny_mlp, x, y)
        trace = forward(tiny_mlp, x)
        assert loss == cross_entropy(trace.probabilities, y)
        assert 0.0 <= acc <= 1.0
