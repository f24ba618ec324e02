"""Tests for noise sampling and the random-noise pretraining loop."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import prealign.learn as learn_mod
import prealign.noise as noise_mod
from prealign.data import synthetic_blobs
from prealign.errors import ConfigError, NumericError
from prealign.learn import AdamState, TrainConfig, adam_step, backward_fa, train
from prealign.metrics import alignment_angles
from prealign.net import forward, init_mlp
from prealign.noise import (
    Gaussian,
    NoiseConfig,
    Uniform,
    pretrain_random_noise,
    sample_noise_batch,
    sample_random_labels,
)
from prealign.seeds import derive_trial_seed, rng_for


class TestDistributions:
    def test_gaussian_defaults(self):
        d = Gaussian()
        assert d.mean == 0.0 and d.std == 1.0

    def test_gaussian_rejects_negative_std(self):
        with pytest.raises(ConfigError):
            Gaussian(std=-0.1)

    def test_gaussian_zero_std_allowed(self):
        Gaussian(std=0.0)

    def test_uniform_rejects_inverted_range(self):
        with pytest.raises(ConfigError):
            Uniform(low=1.0, high=-1.0)

    def test_distributions_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Gaussian().std = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            Uniform().low = 0.0


class TestSampling:
    def test_shapes(self, rng):
        x = sample_noise_batch(7, 11, Gaussian(), rng)
        assert x.shape == (7, 11)
        y = sample_random_labels(7, 4, rng)
        assert y.shape == (7,)

    @pytest.mark.parametrize("distribution", [Gaussian(0.5, 2.0), Uniform(-0.5, 0.5)])
    def test_draws_follow_the_requested_precision(self, rng, distribution):
        # float32 whatever network will use the batch: a float64 network
        # widens it in forward
        assert sample_noise_batch(3, 4, distribution, rng).dtype == np.float32

    def test_gaussian_statistics(self):
        rng = np.random.default_rng(42)
        x = sample_noise_batch(2000, 50, Gaussian(mean=1.5, std=0.5), rng)
        np.testing.assert_allclose(x.mean(), 1.5, atol=0.01, rtol=0)
        np.testing.assert_allclose(x.std(), 0.5, atol=0.01, rtol=0)

    def test_uniform_bounds_and_mean(self):
        rng = np.random.default_rng(42)
        x = sample_noise_batch(2000, 50, Uniform(low=-2.0, high=4.0), rng)
        assert x.min() >= -2.0 and x.max() <= 4.0
        np.testing.assert_allclose(x.mean(), 1.0, atol=0.02, rtol=0)

    def test_sampling_deterministic(self):
        a = sample_noise_batch(5, 3, Gaussian(), np.random.default_rng(9))
        b = sample_noise_batch(5, 3, Gaussian(), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_labels_cover_range(self):
        rng = np.random.default_rng(42)
        y = sample_random_labels(500, 5, rng)
        assert y.min() >= 0 and y.max() < 5
        assert set(np.unique(y)) == {0, 1, 2, 3, 4}

    def test_bad_arguments(self, rng):
        with pytest.raises(ConfigError):
            sample_noise_batch(0, 3, Gaussian(), rng)
        with pytest.raises(ConfigError):
            sample_noise_batch(3, 0, Gaussian(), rng)
        with pytest.raises(ConfigError):
            sample_noise_batch(3, 3, "gaussian", rng)
        with pytest.raises(ConfigError):
            sample_random_labels(0, 3, rng)
        with pytest.raises(ConfigError):
            sample_random_labels(3, 0, rng)


def _raw_words(*words: int):
    """A stand-in generator whose bit generator returns ``words`` raw."""
    return SimpleNamespace(bit_generator=SimpleNamespace(
        random_raw=lambda n: np.array(words[:n], dtype=np.uint64)))


def _x86_v4() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("X86_V4"))


# prints whether numpy dispatches X86_V4 kernels, and the SHA-256 of 1.6M
# float32 Gaussian values
_DRAW_DIGEST = """
import hashlib
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from prealign.noise import Gaussian, sample_noise_batch
x = sample_noise_batch(2048, 784, Gaussian(), np.random.default_rng(3))
print(__cpu_features__["X86_V4"], hashlib.sha256(x.tobytes()).hexdigest())
"""


class TestBoxMuller:
    """Float32 Gaussian batches: Box-Muller on raw 64-bit words."""

    def test_word_bits_set_radius_and_angle(self):
        # word i's high 24 bits k give the radius sqrt(-2 ln((k + 1) 2**-24))
        # and its low 24 bits j the angle 2 pi j 2**-24; bits 24-39 are
        # unused; the cosine term goes first
        k_max, quarter_turn = (1 << 24) - 1, 1 << 22
        x = sample_noise_batch(2, 3, Gaussian(), _raw_words(
            0, (k_max << 40) | 12345, ((k_max - 1) << 40) | (0xFFFF << 24) | quarter_turn))
        assert x.dtype == np.float32
        top, small = math.sqrt(48 * math.log(2)), math.sqrt(-2 * math.log1p(-2.0**-24))
        np.testing.assert_allclose(x.ravel(), [top, 0, 0, 0, 0, small], rtol=1e-5, atol=1e-10)
        assert x[0, 1] == 0 and x[0, 2] == 0 and x[1, 0] == 0

    def test_moments_and_bound(self):
        x = sample_noise_batch(1024, 1024, Gaussian(), np.random.default_rng(11))
        z = x.astype(np.float64).ravel()
        assert z.size >= 1_000_000
        mean, std = z.mean(), z.std()
        kurtosis = float(np.mean((z - mean) ** 4)) / std**4
        assert abs(mean) < 0.005  # standard errors: 0.001, 0.0007 and 0.005
        assert abs(std - 1) < 0.005
        assert abs(kurtosis - 3) < 0.025
        assert np.abs(x).max() <= math.sqrt(48 * math.log(2)) * (1 + 1e-6)

    def test_one_draw_of_four_batches_is_four_draws(self):
        one = sample_noise_batch(4 * 64, 784, Gaussian(0.5, 2.0), rng_for(2, "noise"))
        rng = rng_for(2, "noise")
        four = [sample_noise_batch(64, 784, Gaussian(0.5, 2.0), rng) for _ in range(4)]
        np.testing.assert_array_equal(one, np.concatenate(four), strict=True)

    def test_odd_value_count_uses_a_whole_last_word(self):
        rng = np.random.default_rng(4)
        odd = sample_noise_batch(3, 5, Gaussian(), rng)
        after = rng.bit_generator.random_raw()
        fresh = np.random.default_rng(4)
        even = sample_noise_batch(4, 4, Gaussian(), fresh)
        assert odd.shape == (3, 5) and odd.flags.c_contiguous
        np.testing.assert_array_equal(odd.ravel(), even.ravel()[:15])
        assert after == fresh.bit_generator.random_raw()

    @pytest.mark.skipif(not _x86_v4(), reason="numpy finds no X86_V4 on this CPU")
    def test_same_bytes_without_avx512_kernels(self):
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
            env = dict(os.environ, PYTHONPATH=str(src))
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            result = subprocess.run([sys.executable, "-c", _DRAW_DIGEST], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.split())
        (v4_default, default), (v4_disabled, disabled) = outputs
        assert (v4_default, v4_disabled) == ("True", "False")
        assert default == disabled


class TestNoiseConfig:
    def test_defaults(self):
        cfg = NoiseConfig()
        assert cfg.total_samples == 500_000
        assert cfg.samples_per_epoch == 5_000
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 1e-4
        assert isinstance(cfg.distribution, Gaussian)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseConfig(total_samples=0)
        with pytest.raises(ConfigError):
            NoiseConfig(samples_per_epoch=0)
        with pytest.raises(ConfigError):
            NoiseConfig(batch_size=0)
        with pytest.raises(ConfigError):
            NoiseConfig(learning_rate=0.0)

    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, "0.1", None])
    def test_float_settings_must_be_finite_numbers(self, bad):
        for make in (lambda v: NoiseConfig(learning_rate=v), lambda v: Gaussian(mean=v),
                     lambda v: Gaussian(std=v), lambda v: Uniform(low=v),
                     lambda v: Uniform(high=v)):
            with pytest.raises(ConfigError, match="finite number"):
                make(bad)

    @pytest.mark.parametrize("bad", ["gaussian", {"kind": "gaussian"}, Gaussian, None])
    def test_distribution_must_be_gaussian_or_uniform(self, bad):
        with pytest.raises(ConfigError, match="unknown distribution"):
            NoiseConfig(distribution=bad)

    def test_integer_float_settings_kept_as_given(self):
        cfg = NoiseConfig(distribution=Uniform(-1, 1), learning_rate=1)
        assert type(cfg.learning_rate) is int and type(cfg.distribution.low) is int
        assert Gaussian(np.float64(0.5), 2).std == 2


class TestPretrain:
    def test_epoch_attribution(self):
        # batches start at samples 0, 40, 80 -> epochs 1, 2, 3; epoch 4 never
        # gets a batch start, so no record for it
        mlp = init_mlp((6, 5, 3), seed=0)
        cfg = NoiseConfig(total_samples=100, samples_per_epoch=30, batch_size=40)
        records = pretrain_random_noise(mlp, cfg)
        assert [r.epoch for r in records] == [1, 2, 3]

    def test_even_split_record_count(self):
        mlp = init_mlp((6, 5, 3), seed=0)
        cfg = NoiseConfig(total_samples=200, samples_per_epoch=50, batch_size=50)
        records = pretrain_random_noise(mlp, cfg)
        assert [r.epoch for r in records] == [1, 2, 3, 4]

    @pytest.mark.parametrize("total, per_epoch, batch, epochs", [
        (250, 100, 64, 2),  # batches start at 0, 64, 128, 192: none in epoch 3
        (100, 30, 40, 3),
        (200, 50, 50, 4),
        (130, 50, 64, 3),
        (10, 100, 64, 1),
    ])
    def test_epoch_batches_are_the_logged_epochs(self, total, per_epoch, batch, epochs):
        cfg = NoiseConfig(total_samples=total, samples_per_epoch=per_epoch, batch_size=batch)
        batches = noise_mod._epoch_batches(cfg)
        records = pretrain_random_noise(init_mlp((6, 5, 3), seed=0), cfg)
        assert len(batches) == len(records) == epochs
        assert [epoch for epoch, _ in batches] == [r.epoch for r in records]
        assert sum(sum(sizes) for _, sizes in batches) == total

    def test_record_fields(self):
        mlp = init_mlp((6, 5, 3), seed=0)
        cfg = NoiseConfig(total_samples=120, samples_per_epoch=60, batch_size=30)
        records = pretrain_random_noise(mlp, cfg, trial=4, seed=11)
        for r in records:
            assert r.phase == "pretrain"
            assert r.trial == 4
            assert r.test_loss is None and r.test_acc is None
            assert math.isfinite(r.train_loss)
            assert 0.0 <= r.train_acc <= 1.0

    def test_batches_run_across_epoch_boundaries(self):
        # replay the exact rng streams by hand: batch sizes 64, 64, 2, one
        # draw each (one batch per epoch), with no reset at the epoch-2 and
        # epoch-3 boundaries
        cfg = NoiseConfig(total_samples=130, samples_per_epoch=50, batch_size=64,
                          learning_rate=1e-3)
        mlp = init_mlp((6, 5, 3), seed=1)
        manual = mlp.copy()
        pretrain_random_noise(mlp, cfg, seed=3)

        inputs, labels = rng_for(3, "noise"), rng_for(3, "labels")
        adam = AdamState.for_mlp(manual)
        for size in (64, 64, 2):
            x = sample_noise_batch(size, 6, cfg.distribution, inputs)
            y = sample_random_labels(size, 3, labels)
            grads = backward_fa(manual, forward(manual, x), y)
            adam_step(manual, adam, grads, cfg.learning_rate)
        for a, b in zip(mlp.weights, manual.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(mlp.biases, manual.biases):
            np.testing.assert_array_equal(a, b)

    def test_mean_loss_weighted_by_batch_size(self):
        # epoch 1 sees batches of 40 and 20 samples, drawn as one group of
        # 60; recompute the weighted mean from a hand replay and compare
        # exactly
        cfg = NoiseConfig(total_samples=60, samples_per_epoch=60, batch_size=40,
                          learning_rate=1e-3)
        mlp = init_mlp((6, 5, 3), seed=2)
        manual = mlp.copy()
        records = pretrain_random_noise(mlp, cfg, seed=5)

        xs = sample_noise_batch(60, 6, cfg.distribution, rng_for(5, "noise"))
        ys = sample_random_labels(60, 3, rng_for(5, "labels"))
        adam = AdamState.for_mlp(manual)
        total = 0.0
        for rows in (slice(0, 40), slice(40, 60)):
            x, y = xs[rows], ys[rows]
            size = len(y)
            trace = forward(manual, x)
            # the loss reduces in float64 whatever the network's precision
            p_true = trace.probabilities[np.arange(size), y].astype(np.float64)
            total += size * float(-np.log(np.maximum(p_true, 1e-12)).mean())
            adam_step(manual, adam, backward_fa(manual, trace, y), cfg.learning_rate)
        assert len(records) == 1
        np.testing.assert_allclose(records[0].train_loss, total / 60, rtol=1e-12)

    def test_deterministic(self):
        cfg = NoiseConfig(total_samples=200, samples_per_epoch=100, batch_size=32)
        a = init_mlp((6, 5, 3), seed=4)
        b = init_mlp((6, 5, 3), seed=4)
        rec_a = pretrain_random_noise(a, cfg, seed=7)
        rec_b = pretrain_random_noise(b, cfg, seed=7)
        assert [r.train_loss for r in rec_a] == [r.train_loss for r in rec_b]
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_weights_move_but_feedback_frozen(self):
        mlp = init_mlp((6, 5, 3), seed=0)
        before_w = [w.copy() for w in mlp.weights]
        before_b = [b.copy() for b in mlp.feedback]
        cfg = NoiseConfig(total_samples=500, samples_per_epoch=500, batch_size=50,
                          learning_rate=1e-2)
        pretrain_random_noise(mlp, cfg)
        assert any(not np.array_equal(w, o) for w, o in zip(mlp.weights, before_w))
        for b, o in zip(mlp.feedback, before_b):
            np.testing.assert_array_equal(b, o)

    def test_loss_stays_near_chance(self):
        # random labels carry no signal, so the loss hovers around log(3)
        mlp = init_mlp((6, 5, 3), seed=0)
        cfg = NoiseConfig(total_samples=2000, samples_per_epoch=1000, batch_size=64)
        records = pretrain_random_noise(mlp, cfg)
        assert abs(records[-1].train_loss - math.log(3)) < 0.5

    def test_snapshot_hook_merges_metrics(self):
        mlp = init_mlp((6, 5, 3), seed=0)
        seen = []

        def hook(epoch, net):
            seen.append(epoch)
            return {"probe": epoch * 10.0}

        cfg = NoiseConfig(total_samples=90, samples_per_epoch=30, batch_size=30)
        records = pretrain_random_noise(mlp, cfg, snapshot_hook=hook)
        assert seen == [1, 2, 3]
        assert [r.metrics["probe"] for r in records] == [10.0, 20.0, 30.0]

    def test_uniform_distribution_runs(self):
        mlp = init_mlp((6, 5, 3), seed=0)
        cfg = NoiseConfig(distribution=Uniform(-0.5, 0.5), total_samples=64,
                          samples_per_epoch=64)
        records = pretrain_random_noise(mlp, cfg)
        assert len(records) == 1

    def test_a_float32_noise_phase_tracks_the_float64_one(self):
        # both precisions train on the same float32 draws, so they part only
        # by rounding.  Over trials 3-5 of master seed 0 the logged losses
        # differed by at most 9.2e-8 and the final angles by 1.5e-6 deg; the
        # bounds are about 100 times that, and 100 times below the 1e-2 gap
        # that noise drawn in each network's own precision leaves.
        cfg = NoiseConfig(total_samples=20_000)
        for trial in range(3):
            seed = derive_trial_seed(0, trial)
            runs = []
            for dtype in (np.float32, np.float64):
                mlp = init_mlp((784, 100, 10), rng_for(seed, "init"), dtype=dtype)
                records = pretrain_random_noise(mlp, cfg, seed=seed)
                runs.append(([r.train_loss for r in records],
                             [alignment_angles(mlp, l).mean_deg for l in range(2)]))
            (losses32, angles32), (losses64, angles64) = runs
            np.testing.assert_allclose(losses32, losses64, rtol=0, atol=1e-5)
            np.testing.assert_allclose(angles32, angles64, rtol=0, atol=2e-4)


@pytest.fixture
def cores(monkeypatch):
    """Sets how many cores the package sees the process may use."""
    def set_cores(n: int) -> None:
        monkeypatch.setattr(learn_mod, "_usable_cores", lambda: n)
    return set_cores


class TestSamplerThread:
    """When a core is free, a helper thread draws the batches while the
    calling thread steps them on one BLAS thread; the BLAS count the call
    starts with does not decide it."""

    @pytest.mark.parametrize("cfg, seed", [
        # batches of 64, 64, 2: a short last batch, and batches straddling
        # the epoch-2 and epoch-3 boundaries
        (NoiseConfig(total_samples=130, samples_per_epoch=50, batch_size=64), 3),
        (NoiseConfig(total_samples=40, samples_per_epoch=100, batch_size=64), 4),
        (NoiseConfig(distribution=Uniform(-0.5, 0.5), total_samples=448,
                     samples_per_epoch=128, batch_size=64), 5),
    ], ids=["short-last-batch", "total-below-batch", "uniform"])
    def test_bitwise_equal_at_either_blas_count(self, blas_threads, cores, monkeypatch,
                                                cfg, seed):
        set_threads, _ = blas_threads
        drawn_on = []

        def recorded(*args):
            drawn_on.append(threading.current_thread() is threading.main_thread())
            return sample_noise_batch(*args)

        monkeypatch.setattr(noise_mod, "sample_noise_batch", recorded)
        runs = []
        # the two settings in which a rule keyed on the BLAS count would
        # place the draws the other way
        for n_cores, count in ((2, 1), (1, 2)):
            cores(n_cores)
            set_threads(count)
            drawn_on.clear()
            mlp = init_mlp((784, 100, 10), seed=1)
            records = pretrain_random_noise(mlp, cfg, seed=seed)
            runs.append((mlp, records, set(drawn_on)))
        (helped, helped_records, helped_on), (alone, alone_records, alone_on) = runs
        assert helped_on == {False} and alone_on == {True}
        np.testing.assert_array_equal(helped.params, alone.params)
        assert helped_records == alone_records

    @pytest.mark.parametrize("failure", [None, NumericError, ConfigError],
                             ids=["returns", "step-raises", "sampler-raises"])
    def test_count_restored_and_helper_ended(self, blas_threads, cores, monkeypatch,
                                             failure):
        set_threads, get_threads = blas_threads
        set_threads(2)
        cores(2)
        cfg = NoiseConfig(total_samples=640, samples_per_epoch=320, batch_size=64)
        if failure is ConfigError:
            # set past the config's check, so that the sampler raises
            cfg.distribution = "not a distribution"
        # each epoch's 5 batches are drawn in groups of 4 and 1: the second
        # draw is in flight while the first group's batches step
        drawing_2 = threading.Event()
        draws, steps = [], []

        def slow_draw_2(*args):
            draws.append(None)
            if len(draws) == 2:
                drawing_2.set()
                time.sleep(0.2)  # still drawing when step 3 raises
            return sample_noise_batch(*args)

        original_step = noise_mod.step

        def raises_on_step_3(*args):
            steps.append(None)
            if failure is NumericError and len(steps) == 3:
                assert drawing_2.wait(10)
                raise NumericError("boom")
            return original_step(*args)

        monkeypatch.setattr(noise_mod, "sample_noise_batch", slow_draw_2)
        monkeypatch.setattr(noise_mod, "step", raises_on_step_3)
        outcome = []

        def run():
            try:
                outcome.append(pretrain_random_noise(init_mlp((784, 100, 10), seed=0), cfg))
            except Exception as error:
                outcome.append(error)

        threads_before = set(threading.enumerate())
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(30)
        assert not caller.is_alive(), "pretrain_random_noise did not return"
        if failure is None:
            assert len(outcome[0]) == 2
        else:
            assert type(outcome[0]) is failure
        assert get_threads() == 2
        assert set(threading.enumerate()) == threads_before

    def test_hook_runs_on_one_thread_and_the_count_is_restored(self, blas_threads):
        set_threads, get_threads = blas_threads
        set_threads(2)
        seen = []
        cfg = NoiseConfig(total_samples=192, samples_per_epoch=64, batch_size=64)
        pretrain_random_noise(init_mlp((784, 100, 10), seed=0), cfg,
                              snapshot_hook=lambda epoch, net: seen.append(get_threads()))
        assert seen == [1, 1, 1]
        assert get_threads() == 2

    def test_train_hook_runs_on_one_thread_and_the_count_is_restored(self, blas_threads):
        set_threads, get_threads = blas_threads
        set_threads(2)
        seen = []
        blobs = synthetic_blobs(96, 784, 10, seed=0)
        train(init_mlp((784, 100, 10), seed=0), blobs.images, blobs.labels,
              blobs.images, blobs.labels, TrainConfig(epochs=2),
              snapshot_hook=lambda epoch, net: seen.append(get_threads()))
        assert seen == [1, 1]
        assert get_threads() == 2
