"""Network construction, forward pass, loss, and checkpoint format."""

import numpy as np
import pytest

from prealign.errors import ConfigError, FormatError, NumericError, ShapeError
from prealign.net import (
    Mlp,
    accuracy,
    cross_entropy,
    forward,
    init_mlp,
    load_mlp,
    save_mlp,
    softmax,
)

from prealign.learn import AdamState, step

from oracles import softmax_cross_entropy_reference


class TestInit:
    def test_shapes(self):
        mlp = init_mlp((784, 100, 10), seed=0)
        assert mlp.n_layers == 2
        assert mlp.weights[0].shape == (100, 784)
        assert mlp.weights[1].shape == (10, 100)
        assert mlp.biases[0].shape == (100,)
        assert mlp.feedback[0].shape == (784, 100)
        assert mlp.feedback[1].shape == (100, 10)

    def test_he_scaling(self):
        mlp = init_mlp((784, 300, 10), seed=1)
        target = np.sqrt(2.0 / 784)
        assert abs(mlp.weights[0].std() - target) < 0.05 * target
        target1 = np.sqrt(2.0 / 300)
        assert abs(mlp.weights[1].std() - target1) < 0.1 * target1

    def test_feedback_same_scale_but_independent(self):
        mlp = init_mlp((200, 100, 10), seed=2)
        w, b = mlp.weights[0], mlp.feedback[0]
        target = np.sqrt(2.0 / 200)
        assert abs(b.std() - target) < 0.05 * target
        corr = np.corrcoef(w.T.ravel(), b.ravel())[0, 1]
        assert abs(corr) < 0.02

    def test_biases_zero(self):
        mlp = init_mlp((5, 4, 3), seed=0)
        for b in mlp.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_seed_determinism(self):
        a = init_mlp((6, 5, 4), seed=9)
        b = init_mlp((6, 5, 4), seed=9)
        for x, y in zip(a.weights + a.feedback, b.weights + b.feedback):
            np.testing.assert_array_equal(x, y)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_mlp((5,), seed=0)
        with pytest.raises(ConfigError):
            init_mlp((5, 0, 3), seed=0)

    def test_copy_is_deep(self, tiny_mlp):
        clone = tiny_mlp.copy()
        clone.weights[0][0, 0] += 1.0
        assert clone.weights[0][0, 0] != tiny_mlp.weights[0][0, 0]


class TestForward:
    def test_single_layer_by_hand(self):
        mlp = Mlp(
            dims=(2, 2),
            weights=[np.array([[1.0, 0.0], [0.0, 1.0]])],
            biases=[np.array([0.0, 0.0])],
            feedback=[np.zeros((2, 2))],
        )
        trace = forward(mlp, np.array([[2.0, 0.0]]))
        expected = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
        np.testing.assert_allclose(trace.probabilities[0], expected, atol=1e-12)

    def test_rows_sum_to_one(self, tiny_mlp, rng):
        trace = forward(tiny_mlp, rng.normal(size=(7, 5)))
        np.testing.assert_allclose(trace.probabilities.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_relu_gates_negative_preactivations(self, tiny_mlp, rng):
        trace = forward(tiny_mlp, rng.normal(size=(6, 5)))
        hidden = trace.activations[1]
        pre = trace.pre_activations[0]
        np.testing.assert_array_equal(hidden, np.maximum(pre, 0.0))
        assert (pre < 0).any()

    def test_trace_shapes(self, tiny_mlp, rng):
        trace = forward(tiny_mlp, rng.normal(size=(6, 5)))
        assert len(trace.activations) == 2
        assert len(trace.pre_activations) == 2
        assert trace.probabilities.shape == (6, 3)

    def test_large_logits_stay_finite(self):
        mlp = init_mlp((4, 3), seed=0)
        trace = forward(mlp, np.full((2, 4), 1e4))
        assert np.all(np.isfinite(trace.probabilities))

    def test_feature_mismatch_rejected(self, tiny_mlp):
        with pytest.raises(ShapeError):
            forward(tiny_mlp, np.zeros((3, 4)))

    def test_softmax_max_subtraction(self):
        logits = np.array([[1000.0, 1000.0]])
        np.testing.assert_allclose(softmax(logits), [[0.5, 0.5]])


class TestLoss:
    def test_matches_reference(self, tiny_mlp, rng):
        x = rng.normal(size=(9, 5))
        y = rng.integers(0, 3, size=9)
        trace = forward(tiny_mlp, x)
        expected = softmax_cross_entropy_reference(trace.pre_activations[-1], y)
        assert abs(cross_entropy(trace.probabilities, y) - expected) < 1e-10

    def test_perfect_prediction_near_zero(self):
        probs = np.array([[1.0 - 2e-12, 1e-12, 1e-12]])
        assert cross_entropy(probs, np.array([0])) < 1e-11

    def test_zero_probability_clamped(self):
        probs = np.array([[0.0, 1.0]])
        expected = -np.log(1e-12)
        assert abs(cross_entropy(probs, np.array([0])) - expected) < 1e-9

    def test_label_out_of_range_rejected(self, tiny_mlp, rng):
        trace = forward(tiny_mlp, rng.normal(size=(2, 5)))
        with pytest.raises(ShapeError):
            cross_entropy(trace.probabilities, np.array([0, 3]))

    def test_label_count_mismatch_rejected(self, tiny_mlp, rng):
        trace = forward(tiny_mlp, rng.normal(size=(2, 5)))
        with pytest.raises(ShapeError):
            cross_entropy(trace.probabilities, np.array([0]))

    def test_accuracy_by_hand(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert accuracy(probs, np.array([0, 1, 1, 1])) == 0.75


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, rng):
        mlp = init_mlp((7, 6, 4), seed=3)
        path = tmp_path / "model.bin"
        save_mlp(mlp, path)
        loaded = load_mlp(path)
        assert loaded.dims == mlp.dims
        for a, b in zip(
            mlp.weights + mlp.biases + mlp.feedback,
            loaded.weights + loaded.biases + loaded.feedback,
        ):
            np.testing.assert_array_equal(a, b)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        save_mlp(init_mlp((3, 2), seed=0), path)
        assert path.read_bytes()[:5] == b"PRLN1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_mlp(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_mlp(init_mlp((3, 2), seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_mlp(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_mlp(init_mlp((3, 2), seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_mlp(path)

    def test_training_a_copy_leaves_the_source_untouched(self, tmp_path, rng):
        source = init_mlp((12, 8, 4), seed=3)
        arrays = source.weights + source.biases + source.feedback + [source.params]
        before = [a.copy() for a in arrays]
        save_mlp(source, tmp_path / "model.bin")
        clones = [
            source.copy(),
            load_mlp(tmp_path / "model.bin"),
            Mlp(dims=source.dims, weights=source.weights, biases=source.biases,
                feedback=source.feedback),
        ]
        for clone in clones:
            adam = AdamState.for_mlp(clone)
            for _ in range(5):
                step(clone, adam, rng.normal(size=(16, 12)),
                     rng.integers(0, 4, size=16), "FA", 1e-2)
            assert not np.array_equal(clone.params, source.params)
        for got, want in zip(arrays, before):
            np.testing.assert_array_equal(got, want)

    def test_nan_payload_rejected(self, tmp_path):
        mlp = init_mlp((3, 2), seed=0)
        mlp.weights[0][0, 0] = np.nan
        path = tmp_path / "model.bin"
        save_mlp(mlp, path)
        with pytest.raises(NumericError):
            load_mlp(path)
