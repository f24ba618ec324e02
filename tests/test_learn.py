"""Backward rules, Adam, and the training loop."""

import sys
import threading
import time

import numpy as np
import pytest

import prealign.learn as learn_mod
from prealign.data import synthetic_blobs
from prealign.errors import ConfigError, NumericError, ShapeError
from prealign.learn import (
    _CORES,
    _OnCaller,
    _usable_cores,
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
from prealign.metrics import (
    MetaConfig,
    draw_episodes,
    effective_rank,
    gram_effective_dim,
    meta_loss,
    weight_feedback_distance,
    weight_trajectory_pca,
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
        mlp = init_mlp((5, 4, 3), seed=0, dtype=np.float64)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        trace = forward(mlp, x)
        grads = backward_bp(mlp, trace, y)
        fd_w = finite_difference_gradients(lambda: _loss_of(mlp, x, y), mlp.weights)
        fd_b = finite_difference_gradients(lambda: _loss_of(mlp, x, y), mlp.biases)
        for got, want in zip(grads.d_weights + grads.d_biases, fd_w + fd_b):
            assert max_relative_error(got, want) < 1e-6

    def test_three_layer_finite_differences(self, rng):
        mlp = init_mlp((4, 5, 4, 3), seed=1, dtype=np.float64)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        grads = backward_bp(mlp, forward(mlp, x), y)
        fd_w = finite_difference_gradients(lambda: _loss_of(mlp, x, y), mlp.weights)
        for got, want in zip(grads.d_weights, fd_w):
            assert max_relative_error(got, want) < 1e-6


class TestBackwardFa:
    def test_matches_loop_reference(self, rng):
        mlp = init_mlp((6, 5, 4, 3), seed=2, dtype=np.float64)
        x = rng.normal(size=(7, 6))
        y = rng.integers(0, 3, size=7)
        grads = backward_fa(mlp, forward(mlp, x), y)
        ref_w, ref_b = fa_backward_reference(
            mlp.weights, mlp.biases, mlp.feedback, x, y
        )
        for got, want in zip(grads.d_weights + grads.d_biases, ref_w + ref_b):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

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
        # the second run's gradients are the size of eps, so that where eps
        # sits in the denominator, and whether v is bias-corrected, shows
        for grad_values in ([0.5, -0.3, 0.8, 0.1, -0.9],
                            [5e-9, -3e-9, 8e-9, 1e-9, -9e-9]):
            mlp = init_mlp((3, 2), seed=0, dtype=np.float64)
            state = AdamState.for_mlp(mlp)
            start = mlp.weights[0].copy()
            observed = []
            for g in grad_values:
                grads = Gradients(mlp.dims, np.full_like(mlp.params, g))
                adam_step(mlp, state, grads, learning_rate=0.01)
                observed.append(mlp.weights[0][0, 0] - start[0, 0])
            expected = adam_sequence(grad_values, lr=0.01)
            np.testing.assert_allclose(observed, expected, atol=1e-14, rtol=0)

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
        grads = Gradients(tiny_mlp.dims, np.zeros_like(tiny_mlp.params))
        adam_step(tiny_mlp, state, grads, learning_rate=0.1)
        adam_step(tiny_mlp, state, grads, learning_rate=0.1)
        assert state.step == 2

    def test_shape_mismatch_rejected(self, tiny_mlp):
        state = AdamState.for_mlp(tiny_mlp)
        other = init_mlp((5, 2, 3), seed=0)
        grads = Gradients(other.dims, np.zeros_like(other.params))
        with pytest.raises(ShapeError):
            adam_step(tiny_mlp, state, grads, learning_rate=0.1)
        with pytest.raises(ShapeError):
            Gradients(tiny_mlp.dims, np.zeros(tiny_mlp.params.size + 1))

    def test_zero_learning_rate_rejected(self, tiny_mlp):
        state = AdamState.for_mlp(tiny_mlp)
        grads = Gradients(tiny_mlp.dims, np.zeros_like(tiny_mlp.params))
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            adam_step(tiny_mlp, state, grads, learning_rate=0.0)
        assert state.step == 0

    def test_nonfinite_update_rejected(self, tiny_mlp):
        state = AdamState.for_mlp(tiny_mlp)
        grads = Gradients(tiny_mlp.dims, np.zeros_like(tiny_mlp.params))
        for w in grads.d_weights:
            w[...] = np.inf
        with pytest.raises(NumericError):
            adam_step(tiny_mlp, state, grads, learning_rate=0.1)


class TestStep:
    @pytest.mark.parametrize("dims", [(784, 100, 10), (784, 100, 100, 100, 10)])
    @pytest.mark.parametrize("rule", ["FA", "BP"])
    def test_bitwise_equal_to_unfused_reference(self, dims, rule):
        _assert_steps_equal_unfused_reference(dims, rule, np.float64)

    @pytest.mark.parametrize("dims", [(784, 100, 10), (784, 100, 100, 100, 10)])
    @pytest.mark.parametrize("rule", ["FA", "BP"])
    def test_bitwise_equal_to_unfused_reference_float32(self, dims, rule):
        _assert_steps_equal_unfused_reference(dims, rule, np.float32)

    def test_unknown_rule_rejected(self, tiny_mlp, rng):
        with pytest.raises(ConfigError):
            step(tiny_mlp, AdamState.for_mlp(tiny_mlp), rng.normal(size=(2, 5)),
                 np.array([0, 1]), "DFA", 0.1)


def _assert_steps_equal_unfused_reference(dims, rule, dtype):
    """50 steps of a ``dtype`` network equal, bit for bit, the unfused
    reference run in the same precision."""
    # a short first batch, full batches, then a short last batch
    sizes = [40] + [64] * 48 + [23]
    rng = np.random.default_rng(17)
    mlp = init_mlp(dims, seed=3, dtype=dtype)
    adam = AdamState.for_mlp(mlp)
    weights = [w.copy() for w in mlp.weights]
    biases = [b.copy() for b in mlp.biases]
    ms = [np.zeros_like(p) for p in weights + biases]
    vs = [np.zeros_like(p) for p in weights + biases]
    for t, size in enumerate(sizes, start=1):
        x = rng.normal(size=(size, dims[0])).astype(dtype)
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

    np.testing.assert_array_equal(adam.m, layout(ms), strict=True)
    np.testing.assert_array_equal(adam.v, layout(vs), strict=True)
    np.testing.assert_array_equal(mlp.params, layout(weights + biases), strict=True)


class TestPrecision:
    """A float32 network trains with every array in float32.  A silent
    upcast to float64 fails no numeric test and only costs speed, so these
    tests are what catch it."""

    @pytest.mark.parametrize("dims", [(784, 100, 10), (784, 100, 100, 10)])
    @pytest.mark.parametrize("rule", ["FA", "BP"])
    def test_three_steps_keep_every_array_float32(self, dims, rule):
        rng = np.random.default_rng(5)
        mlp = init_mlp(dims, seed=0)
        adam = AdamState.for_mlp(mlp)
        for _ in range(3):
            # a float64 batch, as a caller may pass one
            step(mlp, adam, rng.normal(size=(64, dims[0])),
                 rng.integers(0, dims[-1], size=64), rule, 1e-3)
        buffers = adam.buffers
        trace, grads = buffers.trace, buffers.grads
        arrays = {"params": mlp.params, "m": adam.m, "v": adam.v, "temps": adam.temps,
                  "grads": grads.flat, "probabilities": trace.probabilities}
        for name, group in (("weights", mlp.weights), ("biases", mlp.biases),
                            ("feedback", mlp.feedback), ("d_weights", grads.d_weights),
                            ("d_biases", grads.d_biases), ("deltas", buffers.deltas),
                            ("activations", trace.activations[1:])):
            arrays.update((f"{name}[{l}]", a) for l, a in enumerate(group))
        assert {name: a.dtype for name, a in arrays.items()
                if a.dtype != np.float32} == {}

    def test_forward_of_a_float64_batch_is_float32(self, rng):
        mlp = init_mlp((784, 100, 10), seed=0)
        trace = forward(mlp, rng.normal(size=(5, 784)))
        for a in trace.activations + [trace.probabilities]:
            assert a.dtype == np.float32

    def test_train_keeps_the_network_float32(self, rng):
        x, y = _blob_split(rng, 40)
        mlp = init_mlp((8, 6, 3), seed=0)
        train(mlp, x, y, x, y, TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1))
        assert mlp.params.dtype == np.float32
        assert all(b.dtype == np.float32 for b in mlp.feedback)


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
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=4)
        records = train(mlp, x, y, xt, yt, cfg, trial=2)
        assert len(records) == 4
        assert [r.epoch for r in records] == [1, 2, 3, 4]
        for r in records:
            assert r.trial == 2 and r.phase == "train"
            assert r.train_loss is not None and r.test_acc is not None
            assert 0.0 <= r.test_acc <= 1.0

    def test_learns_separable_blobs(self, rng):
        x, y = _blob_split(rng, 300, spread=0.2)
        mlp = init_mlp((8, 16, 3), seed=1)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=40)
        records = train(mlp, x, y, x, y, cfg)
        assert records[-1].train_acc > 0.9

    def test_bp_matches_fa_given_transposed_feedback(self, rng):
        # equivalence only lasts while B == W.T, i.e. a single update step
        x, y = _blob_split(rng, 100)
        xt, yt = _blob_split(rng, 50)
        fa_mlp = init_mlp((8, 6, 3), seed=7)
        fa_mlp.feedback = [w.T.copy() for w in fa_mlp.weights]
        bp_mlp = fa_mlp.copy()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=100, epochs=1)
        rec_fa = train(fa_mlp, x, y, xt, yt, cfg, rule="FA")
        rec_bp = train(bp_mlp, x, y, xt, yt, cfg, rule="BP")
        for a, b in zip(fa_mlp.weights, bp_mlp.weights):
            np.testing.assert_array_equal(a, b)
        assert rec_fa[-1].train_loss == rec_bp[-1].train_loss

    def test_determinism(self, rng):
        x, y = _blob_split(rng, 100)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=3)
        rec_a = train(init_mlp((8, 6, 3), seed=2), x, y, x, y, cfg, seed=5)
        rec_b = train(init_mlp((8, 6, 3), seed=2), x, y, x, y, cfg, seed=5)
        assert [r.train_loss for r in rec_a] == [r.train_loss for r in rec_b]

    def test_rule_and_seed_pick_the_backward_pass_and_the_order(self, rng):
        x, y = _blob_split(rng, 100)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=2)
        runs = {}
        for rule, seed in (("FA", 5), ("BP", 5), ("FA", 6)):
            mlp = init_mlp((8, 6, 3), seed=2)
            train(mlp, x, y, x, y, cfg, rule=rule, seed=seed)
            runs[rule, seed] = mlp.params
        assert not np.array_equal(runs["FA", 5], runs["BP", 5])
        assert not np.array_equal(runs["FA", 5], runs["FA", 6])

    def test_patience_stops_stalled_run(self, rng):
        x, y = _blob_split(rng, 60)
        mlp = init_mlp((8, 6, 3), seed=3)
        # learning rate so small that test accuracy never improves again
        cfg = TrainConfig(learning_rate=1e-15, batch_size=32, epochs=50, patience=2)
        records = train(mlp, x, y, x, y, cfg)
        assert len(records) == 3

    def test_best_test_acc_logged(self, rng):
        x, y = _blob_split(rng, 120)
        mlp = init_mlp((8, 6, 3), seed=4)
        cfg = TrainConfig(learning_rate=2e-3, batch_size=32, epochs=5)
        records = train(mlp, x, y, x, y, cfg)
        running_best = max(r.test_acc for r in records)
        assert records[-1].metrics["best_test_acc"] == running_best

    def test_snapshot_hook_metrics_merged(self, rng):
        x, y = _blob_split(rng, 60)
        mlp = init_mlp((8, 6, 3), seed=5)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=2)
        records = train(mlp, x, y, x, y, cfg,
                        snapshot_hook=lambda epoch, net: {"probe": float(epoch)})
        assert [r.metrics["probe"] for r in records] == [1.0, 2.0]

    def test_empty_split_rejected(self, rng, tiny_mlp):
        with pytest.raises(ConfigError):
            train(tiny_mlp, np.zeros((0, 5)), np.zeros(0, dtype=int),
                  np.zeros((1, 5)), np.zeros(1, dtype=int),
                  TrainConfig())

    @pytest.mark.parametrize("x, y, message", [
        (np.zeros((4, 5)), np.zeros(3, dtype=int), "4 inputs but 3 labels"),
        (np.zeros((4, 6)), np.zeros(4, dtype=int), "feature count 6 != network input 5"),
    ], ids=["label-count", "feature-count"])
    def test_mismatched_split_rejected(self, tiny_mlp, x, y, message):
        with pytest.raises(ConfigError, match=message):
            train(tiny_mlp, x, y, np.zeros((1, 5)), np.zeros(1, dtype=int),
                  TrainConfig())

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            TrainConfig(learning_rate=0)

    def test_bad_rule_rejected(self, rng, tiny_mlp):
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        with pytest.raises(ConfigError, match="DFA"):
            train(tiny_mlp, x, y, x, y, TrainConfig(), rule="DFA")

    def test_evaluate_matches_loss(self, rng, tiny_mlp):
        x = rng.normal(size=(10, 5))
        y = rng.integers(0, 3, size=10)
        loss, acc = evaluate(tiny_mlp, x, y)
        trace = forward(tiny_mlp, x)
        assert loss == cross_entropy(trace.probabilities, y)
        assert 0.0 <= acc <= 1.0


class TestDirectCallsComputeOnOneBlasThread:
    """A direct call holds a core as a runner item does, so it computes on
    one BLAS thread whatever count the caller set, and leaves that count
    as it found it.  784-100-10 is large enough that OpenBLAS threads its
    products, so a call that kept two threads would differ in the last
    bits."""

    @pytest.fixture(scope="class")
    def blobs(self):
        return synthetic_blobs(3_000, 784, 10, seed=3)

    @staticmethod
    def at_counts(blas_threads, call):
        set_threads, get_threads = blas_threads
        results = []
        for count in (2, 1):
            set_threads(count)
            results.append(call())
            assert get_threads() == count
        return results

    def test_train(self, blas_threads, blobs):
        x, y = blobs.images, blobs.labels

        def call():
            mlp = init_mlp((784, 100, 10), seed=1)
            records = train(mlp, x[:2_000], y[:2_000], x[2_000:], y[2_000:],
                            TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2),
                            seed=2)
            return mlp.params, records

        (two, two_records), (one, one_records) = self.at_counts(blas_threads, call)
        np.testing.assert_array_equal(two, one)
        assert two_records == one_records

    def test_meta_loss(self, blas_threads, blobs):
        mlp = init_mlp((784, 100, 10), seed=1)
        cfg = MetaConfig(shots_per_class=60, query_per_class=30, inner_steps=3)
        episodes = draw_episodes([blobs], cfg, seed=4)
        two, one = self.at_counts(blas_threads,
                                  lambda: meta_loss(mlp, episodes, cfg))
        assert two == one

    def test_evaluate(self, blas_threads, blobs):
        mlp = init_mlp((784, 100, 10), seed=1)
        x, y = blobs.images[:2_000], blobs.labels[:2_000]
        two, one = self.at_counts(blas_threads, lambda: evaluate(mlp, x, y))
        assert two == one

    def test_gram_effective_dim(self, blas_threads):
        mlp = init_mlp((784, 100, 10), seed=1)
        with _CORES.item():
            hidden = [forward(mlp, synthetic_blobs(3_000, 784, 10, seed=k).images)
                      .activations[-1] for k in range(3)]
        two, one = self.at_counts(blas_threads,
                                  lambda: [gram_effective_dim(h) for h in hidden])
        assert two == one

    def test_effective_rank(self, blas_threads):
        rng = np.random.default_rng(5)
        matrices = [rng.normal(size=(300, 784)) for _ in range(5)]
        two, one = self.at_counts(blas_threads,
                                  lambda: [effective_rank(m) for m in matrices])
        assert two == one

    def test_weight_feedback_distance(self, blas_threads):
        # layer 0 of 784-100-100-10: its 78,400-term norm is a threaded dot
        nets = [init_mlp((784, 100, 100, 10), seed=k) for k in range(5)]
        two, one = self.at_counts(
            blas_threads, lambda: [weight_feedback_distance(mlp, 0) for mlp in nets])
        assert two == one

    def test_weight_trajectory_pca(self, blas_threads):
        # 20 snapshots of fig2e's size, a 784-100 layer
        rng = np.random.default_rng(6)
        snapshots = np.cumsum(rng.normal(size=(20, 78_400)), axis=0)
        feedback = rng.normal(size=78_400)
        (two, two_fb), (one, one_fb) = self.at_counts(
            blas_threads, lambda: weight_trajectory_pca(snapshots, feedback))
        assert two.tobytes() == one.tobytes() and two_fb.tobytes() == one_fb.tobytes()


def test_holds_from_more_threads_than_cores_balance(blas_threads):
    # every hold, nested or not, computes on one BLAS thread, and once the
    # last one is given back no core is held and the count is restored
    _, get_threads = blas_threads
    with _CORES.item(), _CORES.item():
        assert _CORES.free() == _usable_cores() - 1
    n_threads, rounds = 8, 200
    seen = []

    def holds():
        for _ in range(rounds):
            with _CORES.item(), _CORES.item():
                seen.append((get_threads(), _usable_cores() - _CORES.free()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=holds) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == n_threads * rounds
    assert {count for count, _ in seen} == {1}
    assert all(1 <= held <= n_threads for _, held in seen)
    assert _CORES.free() == _usable_cores()
    assert get_threads() == 2


@pytest.mark.parametrize("n_cores", [1, 2], ids=["on-caller", "executor"])
def test_a_helpers_failed_call_raises_its_error_on_every_read(cores, n_cores):
    cores(n_cores)

    def fails():
        raise NumericError("boom")

    with _CORES.item(), _CORES.helper("test") as helper:
        assert isinstance(helper, _OnCaller) == (n_cores == 1)
        pending = helper.submit(fails)
        raised = []
        for _ in range(3):
            with pytest.raises(NumericError, match="boom") as info:
                pending.result()
            raised.append(info.value)
    assert raised[0] is raised[1] is raised[2]


class TestRunReads:
    """``_CORES.run_reads`` runs a list of independent reads on the held core
    and, when a core is free, one helper thread, and returns their results
    in list order."""

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_results_come_back_in_list_order(self, cores, n_cores):
        cores(n_cores)

        def read(i):
            time.sleep(0.002 * (6 - i))  # the later calls finish sooner
            return i

        assert _CORES.run_reads([lambda i=i: read(i) for i in range(6)]) == list(range(6))

    @pytest.mark.parametrize("first_to_fail", [0, 1])
    def test_the_lowest_index_failure_is_raised(self, cores, first_to_fail):
        # calls 0 and 1 wait for each other, so the two threads run them;
        # whichever fails first, both stop, and call 2 is never taken
        cores(2)
        barrier = threading.Barrier(2, timeout=10)
        threads, later = {}, []

        def fails(i):
            threads[i] = threading.get_ident()
            barrier.wait()
            if i != first_to_fail:
                time.sleep(0.05)
            raise NumericError(str(i))

        calls = [lambda: fails(0), lambda: fails(1), lambda: later.append(2)]
        with pytest.raises(NumericError, match="0"):
            _CORES.run_reads(calls)
        assert threads[0] != threads[1]
        assert later == []

    def test_a_failure_stops_later_calls_being_taken(self, cores):
        cores(2)
        failed = threading.Event()
        ran = []

        def waits():
            assert failed.wait(10)
            time.sleep(0.1)  # the other thread records its failure meanwhile
            ran.append(0)

        def fails():
            failed.set()
            raise NumericError("1")

        calls = [waits, fails] + [lambda i=i: ran.append(i) for i in range(2, 5)]
        with pytest.raises(NumericError, match="1"):
            _CORES.run_reads(calls)
        assert ran == [0]

    def test_with_no_free_core_the_caller_runs_every_call_in_order(self, cores):
        cores(1)
        ran = []

        def read(i):
            ran.append((i, threading.current_thread() is threading.main_thread()))
            if i == 3:
                raise NumericError("3")
            return i

        calls = [lambda i=i: read(i) for i in range(6)]
        assert _CORES.run_reads(calls[:3]) == [0, 1, 2]
        with pytest.raises(NumericError, match="3"):
            _CORES.run_reads(calls)
        assert ran == [(i, True) for i in (0, 1, 2, 0, 1, 2, 3)]

    @pytest.mark.parametrize("failing", [None, 0, 1], ids=["returns", "call-0", "call-1"])
    def test_no_helper_outlives_the_call(self, cores, failing):
        cores(2)
        barrier = threading.Barrier(2, timeout=10)

        def read(i):
            barrier.wait()  # both threads are running
            if i == failing:
                raise NumericError(str(i))
            return i

        threads_before = set(threading.enumerate())
        calls = [lambda i=i: read(i) for i in range(2)]
        if failing is None:
            assert _CORES.run_reads(calls) == [0, 1]
        else:
            with pytest.raises(NumericError):
                _CORES.run_reads(calls)
        assert set(threading.enumerate()) == threads_before
        assert _CORES.free() == _usable_cores()

    def test_callers_on_more_threads_than_cores_run_each_call_once(self, cores):
        # each caller's calls are taken from one shared index by two threads
        cores(4)
        n_callers, n_calls = 8, 300
        ran, lost = [], []

        def caller(k):
            calls = [lambda i=i: ran.append((k, i)) or i for i in range(n_calls)]
            if _CORES.run_reads(calls) != list(range(n_calls)):
                lost.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(n_callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lost == []
        assert sorted(ran) == [(k, i) for k in range(n_callers) for i in range(n_calls)]
        assert _CORES.free() == 4

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_each_call_computes_on_one_blas_thread(self, blas_threads, cores, n_cores):
        _, get_threads = blas_threads
        cores(n_cores)
        seen = _CORES.run_reads([get_threads] * 4)
        assert seen == [1, 1, 1, 1]
        assert get_threads() == 2


class TestTrainEvaluatesOnTwoCores:
    """``train`` evaluates its two splits side by side when a core is free;
    the records, the weights and where the hook runs do not change."""

    @staticmethod
    def run(hook=None, epochs=2):
        blobs = synthetic_blobs(600, 784, 10, seed=3)
        x, y = blobs.images, blobs.labels
        mlp = init_mlp((784, 100, 10), seed=1)
        records = train(mlp, x[:400], y[:400], x[400:], y[400:],
                        TrainConfig(learning_rate=1e-3, epochs=epochs),
                        snapshot_hook=hook, seed=2)
        return mlp, records

    def test_bitwise_equal_with_one_or_two_cores(self, blas_threads, cores):
        def hook(epoch, net):
            return {"norm": np.linalg.norm(forward(net, np.eye(784, dtype=np.float32))
                                           .probabilities)}

        runs = []
        for n_cores in (1, 2):
            cores(n_cores)
            runs.append(self.run(hook))
        (one, one_records), (two, two_records) = runs
        np.testing.assert_array_equal(one.params, two.params)
        assert one_records == two_records

    def test_the_hook_runs_on_the_caller_after_both_evaluations(self, cores, monkeypatch):
        cores(2)
        done, hooked = [], []
        original = learn_mod.evaluate

        def recorded(*args):
            result = original(*args)
            done.append(threading.get_ident())
            return result

        def hook(epoch, net):
            hooked.append((epoch, len(done), threading.get_ident()))

        monkeypatch.setattr(learn_mod, "evaluate", recorded)
        self.run(hook, epochs=3)
        caller = threading.get_ident()
        assert hooked == [(1, 2, caller), (2, 4, caller), (3, 6, caller)]

    def test_the_two_evaluations_run_on_two_threads_when_a_core_is_free(
            self, cores, monkeypatch):
        cores(2)
        # each evaluation waits for the other, so they must run side by side
        barrier = threading.Barrier(2, timeout=10)
        threads = []
        original = learn_mod.evaluate

        def side_by_side(*args):
            threads.append(threading.get_ident())
            barrier.wait()
            return original(*args)

        monkeypatch.setattr(learn_mod, "evaluate", side_by_side)
        self.run()
        assert len(threads) == 4 and threading.get_ident() in threads
        assert len(set(threads[:2])) == len(set(threads[2:])) == 2
