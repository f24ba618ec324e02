"""Tests for experiment configuration, presets, and the run orchestrator."""

import csv
import dataclasses
import hashlib
import json
import threading
import time
import weakref

import numpy as np
import pytest

from prealign.data import TransformSpec
from prealign.errors import ConfigError, DataError, NumericError
from prealign.learn import TrainConfig, evaluate
from prealign.net import init_mlp, load_mlp
from prealign.noise import Gaussian, NoiseConfig, Uniform, pretrain_random_noise
from prealign.runner.config import (
    ExperimentConfig,
    MetaSettings,
    VariantSpec,
    apply_overrides,
    apply_scale,
    config_from_dict,
    config_to_dict,
    expand_sweep,
    load_config_file,
)
from prealign.runner.experiment import load_named_split, run_experiment
from prealign.runner.presets import FIGURE_IDS, reproduce
from prealign.seeds import derive_trial_seed
import prealign.learn as learn_mod
import prealign.noise as noise_mod
import prealign.runner.experiment as experiment_mod


def full_config(**overrides):
    base = dict(
        experiment_id="t",
        dims=(16, 8, 4),
        variants=[VariantSpec(name="fa_pre", rule="FA", pretrain=True)],
        trials=2,
        master_seed=3,
        pretrain=NoiseConfig(distribution=Gaussian(0.0, 0.7), total_samples=100,
                             samples_per_epoch=50, batch_size=25,
                             learning_rate=1e-3),
        train=TrainConfig(learning_rate=1e-3, batch_size=32, epochs=2),
        dataset="blobs",
        train_size=128,
        test_size=64,
        eval_transform=TransformSpec(rotate_deg=(-10.0, 10.0)),
        capture=("angles", "clean_test"),
        output_dir="out/t",
        notes="round trip",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        cfg = full_config()
        doc = json.loads(json.dumps(config_to_dict(cfg)))
        back = config_from_dict(doc)
        assert back == cfg

    def test_round_trip_with_meta_and_sweep(self):
        cfg = full_config(
            capture=("meta",),
            meta=MetaSettings(tasks=("blobs",), shots_per_class=3,
                              query_per_class=3, inner_steps=2),
            sweep={"train_size": [64, 128]},
            eval_transform=None,
        )
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert back == cfg

    def test_uniform_distribution_round_trips(self):
        cfg = full_config(
            pretrain=NoiseConfig(distribution=Uniform(-0.3, 0.3),
                                 total_samples=50, samples_per_epoch=50),
        )
        back = config_from_dict(config_to_dict(cfg))
        assert back.pretrain.distribution == Uniform(-0.3, 0.3)

    def test_bad_structure_reports_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment_id": "x", "bogus_field": 1})
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_to_dict(full_config())))
        assert config_from_dict(load_config_file(p)) == full_config()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_file(bad)
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "absent.json")

    @pytest.mark.parametrize("section, key, value", [
        ("train", "rule", "BP"),
        ("train", "seed", 99),
        ("pretrain", "seed", 42),
        ("eval_transform", "seed", 0),
    ])
    def test_item_keys_refused(self, section, key, value):
        # the variant picks the rule and master_seed the trial and transform
        # seeds; a document (an older manifest, say) that sets either is
        # refused
        doc = config_to_dict(full_config())
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"'{key}'"):
            config_from_dict(doc)

    def test_load_config_file_refuses_non_object(self, tmp_path):
        for text in ("[1, 2]", "3", "null", '"fig1e"'):
            p = tmp_path / "cfg.json"
            p.write_text(text)
            with pytest.raises(ConfigError, match="JSON object"):
                load_config_file(p)


class TestValidation:
    def test_duplicate_variant_names(self):
        with pytest.raises(ConfigError):
            full_config(variants=[VariantSpec(name="a"), VariantSpec(name="a")])

    def test_unknown_capture_flag(self):
        with pytest.raises(ConfigError):
            full_config(capture=("angels",))

    def test_meta_capture_needs_settings(self):
        with pytest.raises(ConfigError):
            full_config(capture=("meta",), meta=None)

    def test_meta_settings_need_the_meta_capture(self):
        with pytest.raises(ConfigError, match="'meta' flag"):
            full_config(meta=MetaSettings())

    def test_meta_tasks_are_distinct(self):
        with pytest.raises(ConfigError, match="distinct"):
            MetaSettings(tasks=("mnist", "kmnist", "mnist"))

    def test_eval_dataset_and_transform_exclusive(self):
        with pytest.raises(ConfigError, match="at most one"):
            full_config(eval_dataset="blobs")

    @pytest.mark.parametrize("section, value", [
        ("pretrain", "abc"),
        ("pretrain", [["total_samples", 640]]),
        ("train", [1]),
        ("eval_transform", "abc"),
        ("meta", 3),
    ], ids=["pretrain-string", "pretrain-pairs", "train-list", "eval_transform-string",
            "meta-number"])
    def test_non_object_section_refused(self, section, value):
        doc = config_to_dict(full_config())
        doc[section] = value
        with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
            config_from_dict(doc)

    @pytest.mark.parametrize("sweep, message", [
        ([1], "sweep must be a JSON object"),
        ("abc", "sweep must be a JSON object"),
        ({"train_size": 64}, "must map to a nonempty list"),
    ], ids=["list", "string", "scalar"])
    def test_sweep_shape_refused_when_built(self, sweep, message):
        with pytest.raises(ConfigError, match=message):
            full_config(sweep=sweep)

    @pytest.mark.parametrize("key, value, message", [
        ("variants", [], "at least one variant"),
        ("scale", 0, "scale must be > 0"),
        ("pretrain", None, "no noise settings"),
        ("pretrain.distribution.kind", "laplace", "unknown distribution kind 'laplace'"),
        ("meta.tasks", [], "meta tasks must be nonempty"),
    ])
    def test_config_document_refused(self, key, value, message):
        doc = config_to_dict(full_config(capture=("angles", "meta"), meta=MetaSettings()))
        *path, last = key.split(".")
        section = doc
        for name in path:
            section = section[name]
        section[last] = value
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)

    def test_train_needs_dataset(self):
        with pytest.raises(ConfigError):
            full_config(dataset=None)

    def test_variant_name_path_safety(self):
        with pytest.raises(ConfigError):
            VariantSpec(name="a/b")
        for name in ("", ".", ".."):
            with pytest.raises(ConfigError, match="must be path-safe"):
                VariantSpec(name=name)

    def test_variant_rule_and_order(self):
        with pytest.raises(ConfigError):
            VariantSpec(name="x", rule="DFA")
        with pytest.raises(ConfigError):
            VariantSpec(name="x", order="sideways")

    def test_noise_settings_need_a_pretraining_variant(self):
        with pytest.raises(ConfigError, match="no variant pretrains"):
            full_config(variants=[VariantSpec(name="fa")])

    @pytest.mark.parametrize("traj_layer", [-1, 2, 5])
    def test_traj_layer_names_a_layer(self, traj_layer):
        with pytest.raises(ConfigError, match="traj_layer"):
            full_config(capture=("trajectory",), traj_layer=traj_layer)

    def test_swept_dims_check_traj_layer_per_point(self):
        doc = config_to_dict(full_config(capture=("trajectory",), traj_layer=1,
                                         sweep={"dims": [[16, 8, 4], [16, 4]]}))
        (_, deep), (_, shallow) = expand_sweep(doc)
        assert config_from_dict(deep).traj_layer == 1
        with pytest.raises(ConfigError, match="traj_layer"):
            config_from_dict(shallow)

    def test_needs_some_phase(self):
        with pytest.raises(ConfigError, match="no phase to run"):
            full_config(pretrain=None, train=None, dataset=None,
                        capture=(), eval_transform=None,
                        variants=[VariantSpec(name="fa")])

    @pytest.mark.parametrize("total, per_epoch, batch", [
        (200, 100, 64), (250, 100, 64), (300, 100, 150), (300, 100, 50), (257, 64, 64),
    ])
    def test_trajectory_needs_three_logged_noise_epochs(self, total, per_epoch, batch):
        noise = NoiseConfig(total_samples=total, samples_per_epoch=per_epoch,
                            batch_size=batch, learning_rate=1e-3)
        logged = len(pretrain_random_noise(init_mlp((4, 3, 2), seed=0), noise))
        settings = dict(pretrain=noise, train=None, dataset=None, eval_transform=None,
                        capture=("trajectory",))
        if logged >= 3:
            full_config(**settings)
        else:
            with pytest.raises(ConfigError, match="at least 3 logging epochs"):
                full_config(**settings)

    def test_trajectory_counts_each_variants_epochs(self):
        # fa_pre logs 2 noise and 2 training epochs, fa only the 2 training ones
        with pytest.raises(ConfigError, match=r"variants \['fa'\] log fewer"):
            full_config(capture=("trajectory",),
                        variants=[VariantSpec(name="fa"), VariantSpec(name="fa_pre",
                                                                      pretrain=True)])

    @pytest.mark.parametrize("key, value", [
        ("dims", "784,100,10"),
        ("dims", [16, 8.0, 4]),
        ("trials", 1.5),
        ("master_seed", 1.5),
        ("train_size", 64.0),
        ("test_size", "64"),
        ("traj_layer", 0.5),
        ("threads", True),
        ("pretrain.total_samples", 100.0),
        ("pretrain.samples_per_epoch", 50.5),
        ("pretrain.batch_size", "25"),
        ("train.batch_size", 32.0),
        ("train.epochs", 2.5),
        ("train.patience", 1.5),
        ("meta.shots_per_class", 10.0),
        ("meta.inner_steps", 2.5),
        ("meta.query_per_class", False),
    ])
    def test_integer_fields_refuse_non_integers(self, key, value):
        doc = config_to_dict(full_config(capture=("meta",), meta=MetaSettings()))
        doc = apply_overrides(doc, [f"{key}={json.dumps(value)}"])
        with pytest.raises(ConfigError, match="integer"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["scale", "threads"])
    def test_run_wide_keys_cannot_be_swept(self, key):
        # one pool and one recorded scale serve every point of a sweep
        with pytest.raises(ConfigError, match="cannot be swept"):
            full_config(sweep={key: [1, 2]})


class TestOverrides:
    def test_nested_assignment_and_json_values(self):
        doc = config_to_dict(full_config())
        out = apply_overrides(doc, [
            "train.epochs=7",
            "pretrain.distribution.std=0.25",
            "dims=[16,6,4]",
            "dataset=blobs",
        ])
        cfg = config_from_dict(out)
        assert cfg.train.epochs == 7
        assert cfg.pretrain.distribution.std == 0.25
        assert cfg.dims == (16, 6, 4)

    def test_null_section_created(self):
        doc = config_to_dict(full_config())
        doc["sweep"] = None
        out = apply_overrides(doc, ["sweep.train_size=[64]"])
        assert out["sweep"] == {"train_size": [64]}

    def test_original_not_mutated(self):
        doc = config_to_dict(full_config())
        apply_overrides(doc, ["train.epochs=99"])
        assert doc["train"]["epochs"] == 2

    def test_bad_assignment_form(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no-equals-sign"])

    def test_path_through_scalar_rejected(self):
        doc = config_to_dict(full_config())
        with pytest.raises(ConfigError):
            apply_overrides(doc, ["experiment_id.x=1"])

    @pytest.mark.parametrize("preset, item", [
        ("fig1e", "pretrain.distribution.sdt=3"),
        ("fig1e", 'pretrain.distribution={"kind":"uniform","std":1}'),
        ("fig1e", "pretrain.distribution=gaussian"),
        ("fig4d", "eval_transform.rotate=[-30,30]"),
        ("fig4d", "eval_transform=5"),
        ("fig4d", "eval_transform.scale=[0.8,1.0,1.2]"),
    ])
    def test_unknown_or_malformed_section_rejected(self, preset, item):
        doc = apply_overrides(config_to_dict(reproduce(preset)), [item])
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_known_keys_fill_null_and_tagged_sections(self):
        doc = apply_overrides(config_to_dict(reproduce("fig4d")), [
            "eval_transform.rotate_deg=[-30,30]",
            "pretrain.distribution.std=3",
            "meta.shots_per_class=5",
            'capture=["eff_rank","meta"]',
        ])
        cfg = config_from_dict(doc)
        assert cfg.eval_transform == TransformSpec(rotate_deg=(-30.0, 30.0))
        assert cfg.pretrain.distribution == Gaussian(0.0, 3.0)
        assert cfg.meta == MetaSettings(shots_per_class=5)


class TestApplyScale:
    def test_divides_durations(self):
        cfg = apply_scale(reproduce("fig2b"), 10.0)
        assert cfg.pretrain.total_samples == 50_000
        assert cfg.train.epochs == 10
        assert cfg.scale == 10.0

    def test_never_below_one(self):
        cfg = apply_scale(reproduce("fig2b"), 1e9)
        assert cfg.pretrain.total_samples == 1
        assert cfg.train.epochs == 1

    def test_scale_one_is_identity_on_durations(self):
        cfg = apply_scale(reproduce("fig1e"), 1.0)
        assert cfg.pretrain.total_samples == 500_000

    def test_trial_count_untouched(self):
        assert apply_scale(reproduce("fig2b"), 50.0).trials == 10

    def test_original_untouched(self):
        cfg = reproduce("fig1e")
        apply_scale(cfg, 100.0)
        assert cfg.pretrain.total_samples == 500_000

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            apply_scale(reproduce("fig1e"), 0.0)

    def test_rescaling_composes(self):
        cfg = apply_scale(apply_scale(reproduce("fig1e"), 5.0), 4.0)
        assert cfg.scale == 20.0
        assert cfg.pretrain.total_samples == 25_000


    def test_swept_durations_divided(self):
        cfg = apply_scale(full_config(sweep={
            "pretrain.total_samples": [400, 800],
            "train.epochs": [1, 30],
            "train_size": [64],
        }), 10.0)
        assert cfg.sweep == {"pretrain.total_samples": [40, 80],
                             "train.epochs": [1, 3], "train_size": [64]}
        with pytest.raises(ConfigError, match="each swept duration must be an integer"):
            apply_scale(full_config(sweep={"train.epochs": ["a"]}), 10.0)
        # refused as at scale 1, not clamped up to one
        for key, values in (("pretrain.total_samples", [-100, 5000]),
                            ("train.epochs", [0, 10])):
            with pytest.raises(ConfigError, match="each swept duration must be >= 1"):
                apply_scale(full_config(sweep={key: values}), 5.0)


class TestExpandSweep:
    def test_cartesian_product_and_names(self):
        doc = config_to_dict(full_config(sweep={"train_size": [64, 128],
                                                "train.epochs": [1, 2]}))
        points = expand_sweep(doc)
        assert len(points) == 4
        names = [n for n, _ in points]
        assert names[0] == "epochs=1_train_size=64"
        for name, point in points:
            assert point["sweep"] is None
            assert point["output_dir"].endswith("/" + name)

    def test_values_applied(self):
        doc = config_to_dict(full_config(sweep={"train_size": [64, 128]}))
        sizes = [config_from_dict(p).train_size for _, p in expand_sweep(doc)]
        assert sizes == [64, 128]

    def test_list_valued_sweep_names(self):
        doc = config_to_dict(full_config(sweep={"dims": [[16, 8, 4], [16, 6, 4]]}))
        names = [n for n, _ in expand_sweep(doc)]
        assert names == ["dims=16x8x4", "dims=16x6x4"]

    def test_points_scaled_to_one_name_rejected(self):
        cfg = apply_scale(full_config(sweep={"pretrain.total_samples": [1000, 1500]}),
                          5000.0)
        with pytest.raises(ConfigError, match="share an output directory"):
            expand_sweep(config_to_dict(cfg))

    def test_missing_or_empty_sweep(self):
        with pytest.raises(ConfigError, match="no sweep section"):
            expand_sweep(config_to_dict(full_config()))
        # an empty list is refused when the config is built
        with pytest.raises(ConfigError, match="nonempty list"):
            full_config(sweep={"train_size": []})


class TestPresets:
    def test_registry(self):
        assert len(FIGURE_IDS) == 14
        assert FIGURE_IDS == tuple(sorted(FIGURE_IDS))

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="fig1e"):
            reproduce("fig99")

    def test_noise_only_alignment_preset(self):
        cfg = reproduce("fig1e")
        assert cfg.dims == (784, 100, 10)
        assert cfg.trials == 10
        assert cfg.pretrain.total_samples == 500_000
        assert cfg.pretrain.samples_per_epoch == 5_000
        assert cfg.pretrain.batch_size == 64
        assert cfg.pretrain.learning_rate == 1e-4
        assert cfg.pretrain.distribution == Gaussian(0.0, 1.0)
        assert cfg.capture == ("angles",)
        assert cfg.train is None
        assert [v.pretrain for v in cfg.variants] == [True]

    def test_noise_std_sweep_preset(self):
        cfg = reproduce("fig1f")
        stds = cfg.sweep["pretrain.distribution.std"]
        assert stds[0] == 0.0 and stds[-1] == 2.0 and len(stds) == 21

    def test_three_arm_learning_preset(self):
        cfg = reproduce("fig2b")
        assert [v.name for v in cfg.variants] == ["fa", "fa_pre", "bp"]
        assert [v.rule for v in cfg.variants] == ["FA", "FA", "BP"]
        assert cfg.dataset == "mnist"
        assert cfg.train_size == 5_000 and cfg.test_size == 5_000
        assert cfg.train.epochs == 100
        assert cfg.train.learning_rate == 1e-4
        assert cfg.train.batch_size == 64

    def test_trajectory_preset(self):
        cfg = reproduce("fig2e")
        assert set(cfg.capture) == {"distance", "trajectory"}
        assert cfg.traj_layer == 0

    def test_phase_order_preset(self):
        cfg = reproduce("fig2g")
        assert [v.order for v in cfg.variants] == ["noise_first", "data_first"]

    def test_full_convergence_preset(self):
        cfg = reproduce("fig3")
        assert cfg.trials == 3
        assert cfg.train.epochs == 500
        assert cfg.train.patience == 10
        assert cfg.train_size is None

    def test_rank_preset_depth(self):
        assert reproduce("fig4d").dims == (784, 100, 100, 10)

    def test_sample_size_sweep_preset(self):
        cfg = reproduce("fig4ef")
        assert cfg.dims == (784, 100, 100, 10)
        assert cfg.sweep == {"train_size": [100, 200, 400, 800, 1600]}
        assert cfg.test_size == 1_000
        assert cfg.train.epochs == 500

    def test_depth_sweep_preset(self):
        cfg = reproduce("fig4gh")
        swept = cfg.sweep["dims"]
        assert [len(d) for d in swept] == [5, 6, 7, 8, 9]
        assert all(d[0] == 784 and d[-1] == 10 for d in swept)
        assert cfg.capture == ("gram",)

    def test_perturbed_evaluation_preset(self):
        cfg = reproduce("fig5b")
        t = cfg.eval_transform
        assert t.translate_frac == (-0.05, 0.05)
        assert t.scale == (0.8, 1.2)
        assert t.rotate_deg == (-25.0, 25.0)
        assert cfg.capture == ("clean_test",)

    def test_cross_dataset_evaluation_preset(self):
        cfg = reproduce("fig5c")
        assert cfg.eval_dataset == "usps"
        assert cfg.eval_transform is None

    def test_adaptation_presets(self):
        cfg = reproduce("fig6a")
        assert cfg.capture == ("meta",)
        assert cfg.meta.tasks == ("mnist", "fashion-mnist", "kmnist")
        assert cfg.meta.inner_steps == 10
        assert cfg.meta.inner_lr == 0.001
        sweep = reproduce("fig6c").sweep
        assert sweep == {"dataset": ["mnist", "fashion-mnist", "kmnist"]}

    def test_table_preset(self):
        assert reproduce("table1").trials == 3

    # SHA-256 of each preset's sorted-key config JSON: presets read the protocol
    # values from the dataclass defaults, so editing a default changes them here
    DIGESTS = {
        "fig1e": "f6dc47c826ff6628f2283dc2f23291d436ba714155a824fad0575d4fece69246",
        "fig1f": "6fb92dce20a169f4b93979d47d3db34af59936e442c509fec3c76235a870975f",
        "fig2b": "49f8bf0423b405b358f4eb15676c0038d705edaa6ea01b2cc1e90c97df7295aa",
        "fig2e": "c204d3c3710dfe25f883555fff6d23d2a630eaa260c9bdcb8f414d1ac004ecc3",
        "fig2g": "ee9146294d30f1a15c96a640a25b70e3ffa0eae92510100f491c8e7d7072a108",
        "fig3": "ac70c928f25f61745d672422de96f04bd4207b75e1433b2372f05354eaf82fdc",
        "fig4d": "5a2ba66c79dab9df10fe7fb0483f468f1c5b859663c5a8824996af9de7982614",
        "fig4ef": "4a6250d5443e0603eac3ea9dc210e8430734ccd0c90949b8ecd41b4440262919",
        "fig4gh": "2fa11cfde97f7c46c9a7f0696951bb3b5a03147d410c8b65486b2bc8c902dbbe",
        "fig5b": "d168e8a925acf48d010852c06ebc170848f23543a285f6374c9e11b7a9cc931e",
        "fig5c": "d9ce2d0daa3169cb4559b6a166e8e589e0eb88829c8df0625aa18572daefd7af",
        "fig6a": "2d0ad8c21c9949feec57827c798ea7f43ca6cc4b6a6f9dd632a8a311568db4c9",
        "fig6c": "4efdf4eb770dd28f1b606cd33b67fd12f2f09af9433a759132bdd307cf08d534",
        "table1": "7cf1a52e7d5dd0e3b2200fb3da47f1ca836588f45d7d429fd43daf380314a5d2",
    }

    def test_every_preset_is_pinned(self):
        assert set(self.DIGESTS) == set(FIGURE_IDS)
        texts = {fid: json.dumps(config_to_dict(reproduce(fid)), sort_keys=True)
                 for fid in FIGURE_IDS}
        changed = {fid: text for fid, text in texts.items()
                   if hashlib.sha256(text.encode()).hexdigest() != self.DIGESTS[fid]}
        assert not changed, "\n".join(f"{fid}: {text}" for fid, text in changed.items())

    def test_every_preset_serializes_and_scales(self):
        for fid in FIGURE_IDS:
            cfg = reproduce(fid)
            back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
            assert back == cfg, fid
            if fid == "fig2e":  # one logging epoch, too few for the trajectory PCA
                with pytest.raises(ConfigError, match="at least 3 logging epochs"):
                    apply_scale(cfg, 200.0)
                continue
            scaled = apply_scale(cfg, 200.0)
            if scaled.pretrain is not None:
                assert scaled.pretrain.total_samples >= 1
            if scaled.train is not None:
                assert scaled.train.epochs >= 1


class TestLoadNamedDataset:
    def test_blobs_split(self):
        train = load_named_split("blobs", "train", "unused", 16, 4)
        test = load_named_split("blobs", "test", "unused", 16, 4)
        assert train.n == 2048 and test.n == 1024
        assert train.input_dim == 16 and train.class_count == 4
        train2 = load_named_split("blobs", "train", "unused", 16, 4)
        np.testing.assert_array_equal(train.images, train2.images)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_named_split("imagenet", "test", "data")

    def test_unknown_split(self):
        with pytest.raises(ConfigError, match="unknown split 'val'"):
            load_named_split("blobs", "val", "unused", 16, 4)

    def test_missing_files_list_what_was_tried(self, tmp_path):
        with pytest.raises(DataError, match="tried"):
            load_named_split("mnist", "train", tmp_path)

    def test_idx_layout_with_gzip(self, tmp_path):
        imgs = np.zeros((4, 2, 2), dtype=np.uint8)
        write_idx_layout(tmp_path / "mnist", imgs, [0, 1, 2, 1], imgs[:2], [2, 0])
        train = load_named_split("mnist", "train", tmp_path)
        test = load_named_split("mnist", "test", tmp_path)
        assert train.n == 4 and test.n == 2


def write_idx_layout(root, train_images, train_labels, test_images, test_labels):
    """Write an MNIST-layout dataset under ``root``: the train split gzipped,
    the test split plain."""
    import gzip

    from test_data import idx_image_bytes, idx_label_bytes

    root.mkdir()
    (root / "train-images-idx3-ubyte.gz").write_bytes(
        gzip.compress(idx_image_bytes(train_images))
    )
    (root / "train-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(idx_label_bytes(train_labels))
    )
    (root / "t10k-images-idx3-ubyte").write_bytes(idx_image_bytes(test_images))
    (root / "t10k-labels-idx1-ubyte").write_bytes(idx_label_bytes(test_labels))


def smoke_config(tmp_path, **overrides):
    base = dict(
        experiment_id="smoke",
        dims=(16, 8, 4),
        variants=[VariantSpec(name="fa_pre", rule="FA", pretrain=True)],
        trials=3,
        master_seed=11,
        pretrain=NoiseConfig(total_samples=200, samples_per_epoch=100,
                             batch_size=50, learning_rate=1e-3),
        train=TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2),
        dataset="blobs",
        train_size=256,
        test_size=128,
        capture=("angles",),
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_variant_layout_and_manifest(self, tmp_path):
        manifest = run_experiment(smoke_config(tmp_path))
        out = tmp_path / "out"
        # a new output file must be a deliberate choice
        assert {p.name for p in out.iterdir()} == {"manifest.json", "records.csv"} | {
            f"model_{t}_{phase}.bin" for t in range(3) for phase in ("pretrain", "train")
        }
        assert manifest["experiment_id"] == "smoke"
        assert manifest["scale"] == 1.0
        assert len(set(manifest["trial_seeds"])) == 3
        assert manifest["data"]["train"]["n"] == 256
        assert manifest["failures"] == []
        rows = list(csv.DictReader((out / "records.csv").read_text().splitlines()))
        for t in ("0", "1", "2"):
            summary = manifest["summary"]["fa_pre"][t]
            assert summary["phases"] == ["pretrain", "train"]
            assert summary["epochs_ran"] == 2
            assert 0.0 <= summary["final_test_acc"] <= 1.0
            assert "auc_test_acc" in summary
            last = [r for r in rows if r["trial"] == t and r["phase"] == "train"][-1]
            # records.csv keeps 9 significant digits of each loss
            assert summary["final_generalization_gap"] == pytest.approx(
                float(last["test_loss"]) - float(last["train_loss"]), abs=1e-8
            )
            init = manifest["initial_metrics"]["fa_pre"][t]
            assert "test_acc" in init and "angle_mean_l0" in init

    def test_row_structure(self, tmp_path):
        run_experiment(smoke_config(tmp_path))
        lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["trial", "phase", "epoch", "train_loss",
                              "test_loss", "train_acc", "test_acc"]
        assert "angle_mean_l0" in header and "angle_mean_l1" in header
        # 3 trials x (2 pretrain epochs + 2 train epochs)
        assert len(lines) == 1 + 12
        keys = set()
        for line in lines[1:]:
            cells = line.split(",")
            key = (cells[0], cells[1], cells[2])
            assert key not in keys
            keys.add(key)
            if cells[1] == "pretrain":
                assert cells[4] == "" and cells[6] == ""
            else:
                assert cells[4] != "" and cells[6] != ""

    def test_checkpoints_reload(self, tmp_path):
        run_experiment(smoke_config(tmp_path))
        for trial in range(3):
            for phase in ("pretrain", "train"):
                mlp = load_mlp(tmp_path / "out" / f"model_{trial}_{phase}.bin")
                assert mlp.dims == (16, 8, 4)

    def test_a_checkpoint_reproduces_its_runs_last_test_record(self, tmp_path):
        # 784-100-10 is large enough that a float64 evaluation of the
        # float32 network differs in the ninth digit
        run_experiment(smoke_config(
            tmp_path, dims=(784, 100, 10), trials=1, test_size=None,
            pretrain=NoiseConfig(total_samples=2_000, samples_per_epoch=1_000)))
        with open(tmp_path / "out" / "records.csv", newline="") as f:
            last = list(csv.DictReader(f))[-1]
        split = load_named_split("blobs", "test", tmp_path, 784, 10)
        loss, acc = evaluate(load_mlp(tmp_path / "out" / "model_0_train.bin"),
                             split.images, split.labels)
        assert (f"{loss:.9g}", f"{acc:.9g}") == (last["test_loss"], last["test_acc"])

    def test_deterministic_and_thread_invariant(self, tmp_path):
        run_experiment(smoke_config(tmp_path, output_dir=str(tmp_path / "a")))
        run_experiment(smoke_config(tmp_path, output_dir=str(tmp_path / "b")))
        run_experiment(smoke_config(tmp_path, output_dir=str(tmp_path / "c"),
                                    threads=2))
        a = (tmp_path / "a" / "records.csv").read_bytes()
        assert a == (tmp_path / "b" / "records.csv").read_bytes()
        assert a == (tmp_path / "c" / "records.csv").read_bytes()

    def test_pool_runs_variants_of_one_trial_concurrently(self, tmp_path,
                                                          monkeypatch):
        original = experiment_mod._run_single
        both_started = threading.Barrier(2, timeout=10)

        def rendezvous(*args):
            both_started.wait()
            return original(*args)

        monkeypatch.setattr(experiment_mod, "_run_single", rendezvous)
        cfg = smoke_config(tmp_path, trials=1, threads=2,
                           variants=[VariantSpec(name="fa"),
                                     VariantSpec(name="fa_pre", pretrain=True)])
        manifest = run_experiment(cfg)
        assert manifest["failures"] == []
        assert set(manifest["summary"]["fa"]) == {"0"}
        assert set(manifest["summary"]["fa_pre"]) == {"0"}

    def test_pool_matches_serial_at_blas_threaded_size(self, tmp_path, blas_threads):
        # 784-100-10 is large enough that OpenBLAS threads its gemm, and BLAS
        # starts at two threads, so a serial run that let it keep them would
        # differ in the last bits; the captures cover every BLAS-using hook
        def run(threads):
            out = tmp_path / f"threads{threads}"
            manifest = run_experiment(smoke_config(
                tmp_path, dims=(784, 100, 10), trials=2, threads=threads,
                pretrain=NoiseConfig(total_samples=640, samples_per_epoch=320,
                                     batch_size=64, learning_rate=1e-4),
                train=TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2),
                train_size=512, test_size=512,
                capture=("distance", "eff_rank", "gram", "clean_test", "meta"),
                meta=MetaSettings(tasks=("blobs",), shots_per_class=3,
                                  query_per_class=3, inner_steps=2),
                output_dir=str(out),
            ))
            assert manifest["blas_threads"] == 1
            return out

        serial, pooled = run(1), run(2)
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in pooled.iterdir())
        assert "records.csv" in names and "model_1_train.bin" in names
        for name in names:
            if name != "manifest.json":
                assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name

        def comparable(out):
            # all but the time, the path and the setting the runs differ in
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["created"]
            del manifest["config"]["output_dir"], manifest["config"]["threads"]
            return manifest

        assert comparable(serial) == comparable(pooled)

    def test_a_lone_tail_item_draws_on_a_helper_thread(self, tmp_path, monkeypatch):
        # two workers on two cores: the items share the cores at first, and
        # the longer one runs its later epochs alone, with a sampler
        monkeypatch.setattr(learn_mod, "_usable_cores", lambda: 2)
        original_run = experiment_mod._run_single
        original_pretrain = experiment_mod.pretrain_random_noise
        original_draw = noise_mod.sample_noise_batch
        both_started = threading.Barrier(2, timeout=10)
        lock = threading.Lock()
        draws = []

        def rendezvous(*args):
            both_started.wait()
            return original_run(*args)

        def long_item_waits(mlp, config, trial, hook, *, seed):
            def waiting(epoch, net):
                if config.total_samples == 640 and epoch == 1:
                    deadline = time.monotonic() + 10
                    while learn_mod._CORES.free() < 1 and time.monotonic() < deadline:
                        time.sleep(0.001)
                return hook(epoch, net)
            return original_pretrain(mlp, config, trial, waiting, seed=seed)

        def recorded(*args):
            with lock:
                draws.append((threading.current_thread().name.startswith("noise-sampler"),
                              learn_mod._CORES.free()))
            return original_draw(*args)

        monkeypatch.setattr(experiment_mod, "_run_single", rendezvous)
        monkeypatch.setattr(experiment_mod, "pretrain_random_noise", long_item_waits)
        monkeypatch.setattr(noise_mod, "sample_noise_batch", recorded)
        run_experiment(smoke_config(
            tmp_path, trials=1, threads=2, train=None, dataset=None,
            train_size=None, test_size=None,
            pretrain=NoiseConfig(total_samples=128, samples_per_epoch=64, batch_size=64),
            sweep={"pretrain.total_samples": [128, 640]},
        ))
        # each epoch holds one batch, so one draw: 2 epochs, then 10
        assert len(draws) == 2 + 10
        assert {free for helped, free in draws if helped} == {1}
        assert {helped for helped, free in draws if free == 0} == {False}
        assert sum(helped for helped, _ in draws) >= 9  # the long item's epochs 2-10

    @pytest.mark.parametrize("raises", ["hook", "step"])
    def test_no_helper_thread_outlives_a_failing_run(self, tmp_path, monkeypatch, raises):
        monkeypatch.setattr(learn_mod, "_usable_cores", lambda: 2)
        # the first epoch's hook fails while the few-shot tasks adapt on a
        # helper, or the third step fails while the sampler draws
        module, name = (experiment_mod, "gram_effective_dim") if raises == "hook" \
            else (noise_mod, "step")
        original = getattr(module, name)
        calls = []

        def fails(*args):
            calls.append(None)
            if len(calls) == (2 if raises == "hook" else 3):
                raise NumericError("boom")
            return original(*args)

        monkeypatch.setattr(module, name, fails)
        threads_before = set(threading.enumerate())
        with pytest.raises(NumericError, match="boom"):
            run_experiment(smoke_config(
                tmp_path, trials=1, pretrain=NoiseConfig(
                    total_samples=640, samples_per_epoch=320, batch_size=64),
                capture=("gram", "meta"),
                meta=MetaSettings(tasks=("blobs",), shots_per_class=3,
                                  query_per_class=3, inner_steps=2),
            ))
        assert set(threading.enumerate()) == threads_before

    def test_serial_noise_checkpoints_equal_pooled_bytes(self, tmp_path, blas_threads):
        # noise steps run on one BLAS thread whether the run is serial or
        # pooled, so even the last bits of the weights agree

        def run(threads):
            out = tmp_path / f"threads{threads}"
            run_experiment(smoke_config(
                tmp_path, dims=(784, 100, 10), trials=2, threads=threads,
                pretrain=NoiseConfig(total_samples=1_000, samples_per_epoch=500,
                                     batch_size=64, learning_rate=1e-4),
                train=None, dataset=None, train_size=None, test_size=None,
                output_dir=str(out),
            ))
            return out

        serial, pooled = run(1), run(2)
        for name in ("model_0_pretrain.bin", "model_1_pretrain.bin", "records.csv"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name

    def test_pool_starts_the_longest_items_first(self, tmp_path, monkeypatch):
        original = experiment_mod._run_single
        lock = threading.Lock()
        started = []

        def recorded(cfg, variant, trial, data, out_dir):
            with lock:
                started.append(cfg.pretrain.total_samples)
            return original(cfg, variant, trial, data, out_dir)

        monkeypatch.setattr(experiment_mod, "_run_single", recorded)
        index = run_experiment(smoke_config(
            tmp_path, trials=2, threads=2, train=None, dataset=None,
            train_size=None, test_size=None,
            sweep={"pretrain.total_samples": [100, 400]},
        ))
        # two workers take the first two items of the queue before either
        # of them can finish one
        assert sorted(started[:2]) == [400, 400]
        assert sorted(started) == [100, 100, 400, 400]
        for name in index["points"]:
            manifest = json.loads((tmp_path / "out" / name / "manifest.json").read_text())
            assert set(manifest["summary"]["fa_pre"]) == {"0", "1"}

    def test_pool_restores_blas_threads(self, tmp_path, monkeypatch, blas_threads):
        # serial runs too: every run computes on one BLAS thread
        _, get_threads = blas_threads
        original = experiment_mod._run_single

        def fails_on_trial_1(cfg, variant, trial, data, out_dir):
            if trial == 1:
                raise RuntimeError("boom")
            return original(cfg, variant, trial, data, out_dir)

        for threads in (1, 2):
            monkeypatch.setattr(experiment_mod, "_run_single", original)
            manifest = run_experiment(smoke_config(tmp_path, threads=threads))
            assert manifest["blas_threads"] == 1
            assert get_threads() == 2
            monkeypatch.setattr(experiment_mod, "_run_single", fails_on_trial_1)
            with pytest.raises(RuntimeError, match="boom"):
                run_experiment(smoke_config(tmp_path, threads=threads))
            assert get_threads() == 2

    def test_concurrent_runs_write_their_solo_bytes(self, tmp_path, monkeypatch,
                                                    blas_threads):
        # a short run starts first and ends while a long one is mid-run; a
        # pin that the first run to end undid would leave the long run's
        # later epochs on two BLAS threads, and BLAS at one thread after it
        _, get_threads = blas_threads

        def config(name, epochs):
            return smoke_config(
                tmp_path, dims=(784, 100, 10), trials=1, pretrain=None,
                variants=[VariantSpec(name="fa")],
                train=TrainConfig(learning_rate=1e-3, batch_size=64, epochs=epochs),
                train_size=512, test_size=512, capture=("gram",),
                output_dir=str(tmp_path / name),
            )

        run_experiment(config("solo_short", 1))
        run_experiment(config("solo_long", 4))
        short_started, long_started, short_done = (threading.Event() for _ in range(3))
        original_train = experiment_mod.train

        def rendezvous(*args, snapshot_hook, **kwargs):
            epochs = args[5].epochs

            def hook(epoch, net):
                if epochs == 1:
                    short_started.set()
                    assert long_started.wait(30)
                elif epoch == 1:
                    long_started.set()
                    assert short_done.wait(30)
                return snapshot_hook(epoch, net)

            return original_train(*args, snapshot_hook=hook, **kwargs)

        monkeypatch.setattr(experiment_mod, "train", rendezvous)
        outcomes = {}

        def run(name, epochs):
            try:
                run_experiment(config(name, epochs))
                outcomes[name] = None
            except Exception as error:
                outcomes[name] = error

        short = threading.Thread(target=run, args=("short", 1), daemon=True)
        long = threading.Thread(target=run, args=("long", 4), daemon=True)
        short.start()
        assert short_started.wait(30)
        long.start()
        short.join(60)
        short_done.set()
        long.join(60)
        assert outcomes == {"short": None, "long": None}
        for name in ("short", "long"):
            for solo in (tmp_path / f"solo_{name}").iterdir():
                if solo.name != "manifest.json":
                    concurrent = tmp_path / name / solo.name
                    assert concurrent.read_bytes() == solo.read_bytes(), (name, solo.name)
        assert get_threads() == 2

    def test_multi_variant_shares_initialization(self, tmp_path):
        cfg = smoke_config(
            tmp_path,
            trials=2,
            variants=[VariantSpec(name="fa"),
                      VariantSpec(name="fa_pre", pretrain=True),
                      VariantSpec(name="bp", rule="BP")],
        )
        manifest = run_experiment(cfg)
        out = tmp_path / "out"
        for name in ("fa", "fa_pre", "bp"):
            assert (out / name / "records.csv").exists()
        for t in ("0", "1"):
            accs = {
                manifest["initial_metrics"][n][t]["test_acc"]
                for n in ("fa", "fa_pre", "bp")
            }
            assert len(accs) == 1

    def test_variant_rule_and_trial_seed_reach_each_phase(self, tmp_path, monkeypatch):
        calls = set()
        original_noise = experiment_mod.pretrain_random_noise
        original_train = experiment_mod.train

        def noise(mlp, config, trial, hook, *, seed):
            calls.add(("pretrain", trial, None, seed))
            return original_noise(mlp, config, trial, hook, seed=seed)

        def train(*args, trial, rule, seed, **kwargs):
            calls.add(("train", trial, rule, seed))
            return original_train(*args, trial=trial, rule=rule, seed=seed, **kwargs)

        monkeypatch.setattr(experiment_mod, "pretrain_random_noise", noise)
        monkeypatch.setattr(experiment_mod, "train", train)
        cfg = smoke_config(tmp_path, trials=2,
                           variants=[VariantSpec(name="fa_pre", pretrain=True),
                                     VariantSpec(name="bp", rule="BP")])
        run_experiment(cfg)
        seeds = [derive_trial_seed(cfg.master_seed, t) for t in range(2)]
        assert calls == (
            {("pretrain", t, None, seeds[t]) for t in range(2)}
            | {("train", t, rule, seeds[t]) for t in range(2) for rule in ("FA", "BP")}
        )

    def test_partial_failure_recorded(self, tmp_path, monkeypatch):
        original = experiment_mod._run_single

        def flaky(cfg, variant, trial, data, out_dir):
            if trial == 1:
                raise NumericError("boom")
            return original(cfg, variant, trial, data, out_dir)

        monkeypatch.setattr(experiment_mod, "_run_single", flaky)
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            manifest = run_experiment(smoke_config(tmp_path, threads=threads,
                                                   output_dir=str(out)))
            assert [f["trial"] for f in manifest["failures"]] == [1]
            assert manifest["failures"][0]["error"] == "NumericError"
            assert set(manifest["summary"]["fa_pre"]) == {"0", "2"}
            rows = (out / "records.csv").read_text().splitlines()[1:]
            assert {r.split(",")[0] for r in rows} == {"0", "2"}

    def test_dead_layer_rank_recorded_as_failure(self, tmp_path, monkeypatch):
        original = experiment_mod.init_mlp
        made = []

        def second_dead(dims, seed):
            mlp = original(dims, seed)
            made.append(mlp)
            if len(made) == 2:  # trial 1 of a serial run
                mlp.weights[1][...] = 0.0
            return mlp

        monkeypatch.setattr(experiment_mod, "init_mlp", second_dead)
        manifest = run_experiment(smoke_config(tmp_path, capture=("eff_rank",)))
        assert [(f["trial"], f["error"]) for f in manifest["failures"]] == [
            (1, "NumericError")
        ]
        rows = (tmp_path / "out" / "records.csv").read_text().splitlines()[1:]
        assert {r.split(",")[0] for r in rows} == {"0", "2"}

    def test_early_stopped_trajectory_recorded_as_failure(self, tmp_path, monkeypatch):
        original = experiment_mod.train

        def trial_1_stops_early(mlp, *data, trial, **kwargs):
            if trial == 1:  # after one epoch, as patience may stop it
                *data, cfg = data
                data = (*data, dataclasses.replace(cfg, epochs=1))
            return original(mlp, *data, trial=trial, **kwargs)

        monkeypatch.setattr(experiment_mod, "train", trial_1_stops_early)
        manifest = run_experiment(smoke_config(
            tmp_path, variants=[VariantSpec(name="fa")], pretrain=None,
            train=TrainConfig(learning_rate=1e-3, batch_size=64, epochs=3),
            capture=("trajectory",),
        ))
        assert [(f["trial"], f["error"]) for f in manifest["failures"]] == [
            (1, "ShapeError")
        ]
        assert "feedback_coord" in manifest["summary"]["fa"]["0"]

    def test_total_failure_raises(self, tmp_path, monkeypatch):
        def doomed(cfg, variant, trial, data, out_dir):
            raise NumericError("boom")

        monkeypatch.setattr(experiment_mod, "_run_single", doomed)
        with pytest.raises(NumericError):
            run_experiment(smoke_config(tmp_path))

    def test_transformed_evaluation_split(self, tmp_path):
        cfg = smoke_config(
            tmp_path,
            eval_transform=TransformSpec(rotate_deg=(-10.0, 10.0)),
            capture=("clean_test",),
        )
        manifest = run_experiment(cfg)
        assert manifest["data"]["eval_test"]["name"].endswith("-affine")
        header = (tmp_path / "out" / "records.csv").read_text().splitlines()[0]
        assert "clean_test_loss" in header and "clean_test_acc" in header

    def test_transform_draws_follow_the_master_seed(self, tmp_path):
        # the whole test split, so that only the transform depends on the seed
        def eval_bytes(master_seed):
            cfg = smoke_config(tmp_path, master_seed=master_seed, test_size=None,
                               eval_transform=TransformSpec(rotate_deg=(-10.0, 10.0)))
            return experiment_mod._ResolvedData(cfg).eval_test.images.tobytes()

        assert eval_bytes(1) == eval_bytes(1)
        assert eval_bytes(1) != eval_bytes(2)

    @pytest.mark.parametrize("overrides", [
        dict(capture=("meta",), meta=MetaSettings(
            tasks=["blobs"], shots_per_class=2, query_per_class=2, inner_steps=1)),
        dict(eval_transform=TransformSpec(translate_frac=[-0.1, 0.1])),
    ], ids=["meta.tasks", "eval_transform.translate_frac"])
    def test_list_valued_settings_run(self, tmp_path, overrides):
        manifest = run_experiment(smoke_config(tmp_path, trials=1, **overrides))
        assert manifest["failures"] == []

    def test_trajectory_capture(self, tmp_path):
        cfg = smoke_config(
            tmp_path,
            variants=[VariantSpec(name="fa_pre", pretrain=True)],
            pretrain=NoiseConfig(total_samples=300, samples_per_epoch=100,
                                 batch_size=50, learning_rate=1e-3),
            train=None,
            dataset=None,
            train_size=None,
            test_size=None,
            capture=("distance", "trajectory"),
            traj_layer=0,
        )
        manifest = run_experiment(cfg)
        header = (tmp_path / "out" / "records.csv").read_text().splitlines()[0]
        assert "traj_x" in header and "traj_y" in header
        for t in ("0", "1", "2"):
            assert len(manifest["summary"]["fa_pre"][t]["feedback_coord"]) == 2

    def test_meta_capture(self, tmp_path):
        cfg = smoke_config(
            tmp_path,
            trials=1,
            train=None,
            dataset=None,
            train_size=None,
            test_size=None,
            pretrain=NoiseConfig(total_samples=100, samples_per_epoch=100,
                                 batch_size=50, learning_rate=1e-3),
            capture=("meta",),
            meta=MetaSettings(tasks=("blobs",), shots_per_class=5,
                              query_per_class=5, inner_steps=2),
        )
        run_experiment(cfg)
        header = (tmp_path / "out" / "records.csv").read_text().splitlines()[0]
        assert "meta_loss" in header.split(",")
        assert "meta_loss_blobs" in header

    def test_meta_capture_keys_each_task_by_its_name(self, tmp_path):
        # every MNIST-family test split loads under the same file stem, so
        # the columns must come from the configured task names
        rng = np.random.default_rng(0)
        labels = [0, 1] * 4
        for name in ("mnist", "kmnist"):
            imgs = rng.integers(0, 256, size=(8, 2, 2), dtype=np.uint8)
            write_idx_layout(tmp_path / name, imgs, labels, imgs, labels)
        cfg = smoke_config(
            tmp_path,
            dims=(4, 3, 2),
            trials=1,
            train=None,
            dataset=None,
            train_size=None,
            test_size=None,
            data_dir=str(tmp_path),
            pretrain=NoiseConfig(total_samples=100, samples_per_epoch=100,
                                 batch_size=50, learning_rate=1e-3),
            capture=("meta",),
            meta=MetaSettings(tasks=("mnist", "kmnist"), shots_per_class=1,
                              query_per_class=1, inner_steps=2),
        )
        run_experiment(cfg)
        with open(tmp_path / "out" / "records.csv", newline="") as f:
            row = next(csv.DictReader(f))
        per_task = {k: float(v) for k, v in row.items() if k.startswith("meta_loss_")}
        assert set(per_task) == {"meta_loss_mnist", "meta_loss_kmnist"}
        assert per_task["meta_loss_mnist"] != per_task["meta_loss_kmnist"]
        assert sum(per_task.values()) == pytest.approx(float(row["meta_loss"]))

    def test_meta_tasks_read_only_their_test_split(self, tmp_path):
        # meta tasks are drawn from test splits, so their train files may be
        # absent; the trained dataset still needs both splits
        from test_data import idx_image_bytes, idx_label_bytes

        rng = np.random.default_rng(1)
        labels = [0, 1] * 4
        write_idx_layout(tmp_path / "mnist",
                         rng.integers(0, 256, size=(8, 2, 2), dtype=np.uint8),
                         labels,
                         rng.integers(0, 256, size=(8, 2, 2), dtype=np.uint8),
                         labels)
        for name in ("fashion-mnist", "kmnist"):
            root = tmp_path / name
            root.mkdir()
            imgs = rng.integers(0, 256, size=(8, 2, 2), dtype=np.uint8)
            (root / "t10k-images-idx3-ubyte").write_bytes(idx_image_bytes(imgs))
            (root / "t10k-labels-idx1-ubyte").write_bytes(idx_label_bytes(labels))
        cfg = smoke_config(
            tmp_path,
            dims=(4, 3, 2),
            dataset="mnist",
            train_size=None,
            test_size=None,
            data_dir=str(tmp_path),
            capture=("meta",),
            meta=MetaSettings(tasks=("fashion-mnist", "kmnist"),
                              shots_per_class=1, query_per_class=1,
                              inner_steps=2),
        )
        data = experiment_mod._ResolvedData(cfg)
        # 2 classes x (1 shot + 1 query) rows of each task, not its 8 rows
        for episode in data.meta_episodes:
            for rows in (episode.support, episode.query):
                assert rows.n == 2 and rows.images.dtype == np.float32
                assert sorted(rows.labels) == [0, 1]
        with pytest.raises(DataError, match="tried"):
            experiment_mod._ResolvedData(
                dataclasses.replace(cfg, dataset="kmnist", meta=None,
                                    capture=())
            )

    @pytest.mark.parametrize("overrides", [
        # the shape of the fig6a probes: a dataset for the gram capture,
        # few-shot tasks, and a noise phase only
        dict(train=None, capture=("gram", "meta"), meta=MetaSettings(tasks=("blobs",))),
        dict(eval_transform=TransformSpec(rotate_deg=(-10.0, 10.0))),
        dict(eval_dataset="blobs", test_size=None),
    ], ids=["noise_only", "eval_transform", "eval_dataset"])
    def test_resolved_data_holds_the_splits_a_run_reads_in_float32(self, tmp_path,
                                                                    overrides):
        cfg = smoke_config(tmp_path, **overrides)
        data = experiment_mod._ResolvedData(cfg)
        assert (data.train is None) == (cfg.train is None)
        held = [data.train, data.eval_test, data.clean_test,
                *(rows for episode in data.meta_episodes or []
                  for rows in (episode.support, episode.query))]
        assert {ds.images.dtype for ds in held if ds is not None} == {np.dtype(np.float32)}

    def test_sweep_runs_all_points(self, tmp_path):
        cfg = smoke_config(tmp_path, trials=1,
                           sweep={"train_size": [64, 128]})
        index = run_experiment(cfg)
        assert index["points"] == ["train_size=64", "train_size=128"]
        out = tmp_path / "out"
        assert json.loads((out / "manifest.json").read_text())["points"]
        for name in index["points"]:
            point_manifest = json.loads(
                (out / name / "manifest.json").read_text()
            )
            assert point_manifest["config"]["sweep"] is None
            assert (out / name / "records.csv").exists()
        assert json.loads(
            (out / "train_size=64" / "manifest.json").read_text()
        )["data"]["train"]["n"] == 64

    def test_pool_spans_sweep_points(self, tmp_path, monkeypatch):
        original_run = experiment_mod._run_single
        original_data = experiment_mod._ResolvedData
        both_started = threading.Barrier(2, timeout=10)
        resolutions = []

        def rendezvous(*args):
            both_started.wait()
            return original_run(*args)

        def counted(cfg):
            resolutions.append(cfg)
            return original_data(cfg)

        monkeypatch.setattr(experiment_mod, "_run_single", rendezvous)
        monkeypatch.setattr(experiment_mod, "_ResolvedData", counted)
        index = run_experiment(smoke_config(
            tmp_path, trials=1, threads=2,
            sweep={"pretrain.distribution.std": [0.5, 1.0]},
        ))
        # the points differ only in the noise, so they share one data object
        assert len(resolutions) == 1
        for name in index["points"]:
            manifest = json.loads((tmp_path / "out" / name / "manifest.json").read_text())
            assert manifest["failures"] == []
            assert set(manifest["summary"]["fa_pre"]) == {"0"}

    def test_points_differing_in_meta_settings_draw_their_own_episodes(
            self, tmp_path, monkeypatch):
        seen = []
        resolutions = []
        original_loss = experiment_mod.meta_loss
        original_data = experiment_mod._ResolvedData

        def recorded(mlp, episodes, cfg):
            seen.append((cfg.shots_per_class, tuple(e.support.n for e in episodes)))
            return original_loss(mlp, episodes, cfg)

        def counted(cfg):
            resolutions.append(cfg)
            return original_data(cfg)

        monkeypatch.setattr(experiment_mod, "meta_loss", recorded)
        monkeypatch.setattr(experiment_mod, "_ResolvedData", counted)

        def run(sweep):
            run_experiment(smoke_config(
                tmp_path, trials=1, train=None, dataset=None, train_size=None,
                test_size=None, capture=("meta",),
                meta=MetaSettings(tasks=("blobs",), query_per_class=2, inner_steps=1),
                sweep=sweep, output_dir=str(tmp_path / str(len(resolutions)))))

        run({"meta.shots_per_class": [1, 2]})
        # the episodes are drawn at resolution, so each point draws its own,
        # with 4 classes x its shots support rows
        assert len(resolutions) == 2
        assert set(seen) == {(1, (4,)), (2, (8,))}
        # the adaptation settings leave the episodes as they are
        run({"meta.inner_steps": [1, 2], "meta.inner_lr": [0.1, 0.01]})
        assert len(resolutions) == 3

    def test_too_short_class_refused_before_any_output(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment_mod, "_run_single",
                            lambda *args: calls.append(args))
        # blobs-test holds 1,024 rows of 4 classes; 300 per class is too many
        cfg = smoke_config(tmp_path, capture=("meta",),
                           meta=MetaSettings(tasks=("blobs",), shots_per_class=150,
                                             query_per_class=150),
                           sweep={"meta.inner_steps": [1, 2]})
        with pytest.raises(ConfigError, match=r"task blobs-test: class \d has \d+ "
                                              r"examples, needs 300"):
            run_experiment(cfg)
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_each_task_split_is_freed_before_the_next_loads(self, tmp_path,
                                                            monkeypatch):
        original = experiment_mod.load_named_split
        loaded = []

        def remembered(name, split, *args):
            assert all(ref() is None for ref in loaded), f"{name} loaded beside a task"
            ds = original(name, split, *args)
            loaded.append(weakref.ref(ds))
            return ds

        names = ("mnist", "fashion-mnist", "kmnist")
        rng = np.random.default_rng(2)
        for name in names:
            write_idx_layout(tmp_path / name,
                             rng.integers(0, 256, size=(4, 4, 4), dtype=np.uint8),
                             [0, 1, 2, 3],
                             rng.integers(0, 256, size=(32, 4, 4), dtype=np.uint8),
                             [0, 1, 2, 3] * 8)
        monkeypatch.setattr(experiment_mod, "load_named_split", remembered)
        data = experiment_mod._ResolvedData(smoke_config(
            tmp_path, dataset=None, train=None, train_size=None, test_size=None,
            data_dir=str(tmp_path), capture=("meta",),
            meta=MetaSettings(tasks=names, shots_per_class=2, query_per_class=3)))
        assert len(loaded) == 3
        assert [(e.support.n, e.query.n) for e in data.meta_episodes] == [(8, 12)] * 3

    def test_sweep_resolves_every_point_before_any_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment_mod, "_run_single",
                            lambda *args: calls.append(args))
        cfg = smoke_config(tmp_path, data_dir=str(tmp_path / "empty"),
                           sweep={"dataset": ["blobs", "mnist"]})
        with pytest.raises(DataError):
            run_experiment(cfg)
        assert calls == []

    def test_failed_point_does_not_stop_the_others(self, tmp_path, monkeypatch):
        original = experiment_mod._run_single

        def first_point_fails(cfg, variant, trial, data, out_dir):
            if cfg.train_size == 64:
                raise NumericError("boom")
            return original(cfg, variant, trial, data, out_dir)

        monkeypatch.setattr(experiment_mod, "_run_single", first_point_fails)
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            with pytest.raises(NumericError, match="boom"):
                run_experiment(smoke_config(tmp_path, sweep={"train_size": [64, 128]},
                                            threads=threads, output_dir=str(out)))
            assert (out / "train_size=128" / "records.csv").exists()
            assert not (out / "train_size=64" / "records.csv").exists()
            failed = json.loads((out / "train_size=64" / "manifest.json").read_text())
            assert [f["trial"] for f in failed["failures"]] == [0, 1, 2]
