import pytest

import workloads
from prealign.noise import Gaussian
from prealign.runner.presets import reproduce


def _build(name, nproc=2):
    return workloads.build(name, 7, "out", "data", nproc)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_noise_phase_uses_preset_settings(name):
    cfg = _build(name)
    assert cfg.master_seed == 7
    assert cfg.pretrain.distribution == Gaussian(0.0, 1.0)
    assert cfg.pretrain.batch_size == 64
    assert cfg.pretrain.learning_rate == 1e-4


def test_noise_and_parallel_are_fig1e_with_two_trials():
    noise, parallel = _build("noise"), _build("parallel")
    preset = reproduce("fig1e")
    for cfg in (noise, parallel):
        assert cfg.dims == (784, 100, 10) == preset.dims
        assert cfg.variants == preset.variants
        assert cfg.capture == ("angles",)
        assert cfg.pretrain.samples_per_epoch == 5_000
        assert cfg.trials == 2
    assert noise.threads == 1
    assert parallel.threads == 2 and _build("parallel", nproc=1).threads == 1
    assert noise.pretrain == parallel.pretrain


def test_supervised_is_fig5b_with_fig2b_variants():
    cfg = _build("supervised")
    fig5b = reproduce("fig5b")
    assert cfg.dims == (784, 100, 100, 10)
    assert [v.name for v in cfg.variants] == ["fa", "fa_pre", "bp"]
    assert cfg.variants == reproduce("fig2b").variants
    assert (cfg.dataset, cfg.train_size, cfg.test_size) == ("mnist", 5_000, 5_000)
    assert cfg.eval_transform == fig5b.eval_transform
    assert cfg.capture == fig5b.capture
    assert cfg.train.batch_size == 64 and cfg.train.learning_rate == 1e-4
    assert cfg.trials == 1


def test_probes_capture_every_hook_on_fig6a():
    cfg = _build("probes")
    fig6a = reproduce("fig6a")
    assert cfg.dims == (784, 100, 100, 10) == fig6a.dims
    assert set(cfg.capture) == {"angles", "distance", "eff_rank", "gram", "trajectory", "meta"}
    assert cfg.meta == fig6a.meta
    assert cfg.meta.tasks == ("mnist", "fashion-mnist", "kmnist")
    assert (cfg.dataset, cfg.test_size) == ("mnist", 5_000)
    assert workloads.noise_epochs(cfg) >= 3  # the trajectory PCA needs three snapshots


def test_alignment_check_is_one_long_fig1e_trial():
    cfg = workloads.alignment_check(7, "out")
    assert cfg.dims == (784, 100, 10) and cfg.trials == 1
    assert cfg.pretrain.total_samples == workloads.ALIGN_SAMPLES


def test_expected_rows_and_work_counts():
    sup = _build("supervised")
    assert workloads.expected_rows(sup) == {"fa": 1, "fa_pre": 2, "bp": 1}
    assert workloads.noise_samples(sup) == 5_000
    assert workloads.train_sample_epochs(sup) == 3 * 5_000
    assert workloads.expected_rows(_build("noise")) == {"fa_pre": 2 * 4}
    assert workloads.rows_used(_build("probes"), 6_000) == 5_000 + 3 * 6_000
