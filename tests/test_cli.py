"""End-to-end tests of the command-line interface, run in process."""

import argparse
import json

import pytest

from prealign.runner.cli import _build_parser, _Path, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PRETRAIN_TINY = [
    "pretrain", "--dims", "16,8,4", "--samples", "100",
    "--samples-per-epoch", "100", "--batch", "50", "--lr", "0.001",
    "--trials", "1",
]

TRAIN_TINY = [
    "train", "--dataset", "blobs", "--dims", "16,8,4", "--epochs", "1",
    "--batch", "64", "--lr", "0.001", "--train-size", "128",
    "--test-size", "64", "--trials", "1",
]


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "pretrain" in out and "reproduce" in out

    def test_unknown_verb(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_dims(self, capsys):
        code, _, err = run(capsys, "pretrain", "--dims", "a,b")
        assert code == 1

    def test_unknown_figure_id(self, capsys):
        code, _, err = run(capsys, "reproduce", "fig99")
        assert code == 1
        assert "fig1e" in err


class TestPretrainVerb:
    def test_tiny_run(self, tmp_path, capsys):
        out_dir = tmp_path / "p"
        code, out, _ = run(capsys, *PRETRAIN_TINY, "--out", str(out_dir))
        assert code == 0
        assert "wrote" in out
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "manifest.json").exists()
        header = (out_dir / "records.csv").read_text().splitlines()[0]
        assert "angle_mean_l0" in header

    def test_capture_none(self, tmp_path, capsys):
        code, _, _ = run(capsys, *PRETRAIN_TINY, "--capture", "none",
                         "--out", str(tmp_path / "p"))
        assert code == 0
        header = (tmp_path / "p" / "records.csv").read_text().splitlines()[0]
        assert "angle_mean_l0" not in header

    def test_uniform_distribution(self, tmp_path, capsys):
        code, _, _ = run(capsys, *PRETRAIN_TINY, "--dist", "uniform",
                         "--low", "-0.5", "--high", "0.5",
                         "--out", str(tmp_path / "p"))
        assert code == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        dist = manifest["config"]["pretrain"]["distribution"]
        assert dist == {"kind": "uniform", "low": -0.5, "high": 0.5}

    def test_set_override_reaches_manifest(self, tmp_path, capsys):
        code, _, _ = run(capsys, *PRETRAIN_TINY, "--set",
                         "pretrain.total_samples=60",
                         "--out", str(tmp_path / "p"))
        assert code == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["config"]["pretrain"]["total_samples"] == 60

    def test_traj_layer_outside_dims_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(
            {**NOISE_DOC, "capture": ["trajectory"], "traj_layer": 5}
        ))
        code, _, err = run(capsys, "pretrain", "--config", str(cfg_path),
                           "--out", str(tmp_path / "p"))
        assert code == 1
        assert "traj_layer" in err
        assert not (tmp_path / "p").exists()

    def test_trajectory_of_fewer_than_three_epochs_refused(self, tmp_path, capsys):
        # 200 samples in batches of 64 start in two logging epochs of 100
        code, _, err = run(capsys, "pretrain", "--dims", "16,8,4", "--samples", "200",
                           "--samples-per-epoch", "100", "--capture", "trajectory",
                           "--out", str(tmp_path / "p"))
        assert code == 1
        assert "at least 3 logging epochs" in err
        assert not (tmp_path / "p").exists()

    def test_variant_without_a_phase_refused(self, tmp_path, capsys):
        code, _, err = run(capsys, *PRETRAIN_TINY, "--set",
                           'variants=[{"name": "fa"}, {"name": "fa_pre", "pretrain": true}]',
                           "--out", str(tmp_path / "p"))
        assert code == 1
        assert "['fa']" in err and "no phase to run" in err
        assert not (tmp_path / "p").exists()

    def test_seed_flag_changes_trial_seeds(self, tmp_path, capsys):
        run(capsys, *PRETRAIN_TINY, "--out", str(tmp_path / "a"), "--seed", "1")
        run(capsys, *PRETRAIN_TINY, "--out", str(tmp_path / "b"), "--seed", "2")
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["trial_seeds"] != b["trial_seeds"]


class TestTrainVerb:
    def test_tiny_run_prints_accuracy(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, out, _ = run(capsys, *TRAIN_TINY, "--out", str(out_dir))
        assert code == 0
        assert "test_acc=" in out
        assert (out_dir / "records.csv").exists()

    def test_with_noise_phase(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, _, _ = run(capsys, *TRAIN_TINY, "--pretrain", "--samples", "100",
                         "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["summary"]["fa_pre"]["0"]["phases"] == [
            "pretrain", "train"
        ]

    def test_noise_settings_without_noise_phase_refused(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--dataset", "blobs", "--dims", "16,8,4",
                           "--epochs", "1", "--samples", "90",
                           "--out", str(tmp_path / "t"))
        assert code == 1
        assert "no variant pretrains" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("name", ["cifar10", "imagenet"])
    def test_unknown_dataset_refused(self, name, tmp_path, capsys):
        argv = [name if a == "blobs" else a for a in TRAIN_TINY]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "t"))
        assert code == 1
        assert f"unknown dataset {name!r}" in err
        assert "'mnist'" in err and "'blobs'" in err
        assert not (tmp_path / "t").exists()

    def test_numeric_blowup_exits_three(self, tmp_path, capsys):
        # a step of ~1e200 overflows the next forward pass to inf - inf
        code, _, err = run(capsys, *TRAIN_TINY, "--lr", "1e200",
                           "--out", str(tmp_path / "t"))
        assert code == 3
        assert "error" in err


class TestCheckpointVerbs:
    @pytest.fixture()
    def model_path(self, tmp_path, capsys):
        out_dir = tmp_path / "ckpt"
        assert main(PRETRAIN_TINY + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        return out_dir / "model_0_pretrain.bin"

    def test_eval_reports_json(self, model_path, capsys):
        code, out, _ = run(capsys, "eval", "--model", str(model_path),
                           "--dataset", "blobs", "--split", "test")
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] == "test"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["n"] == 1024

    def test_eval_train_split(self, model_path, capsys):
        code, out, _ = run(capsys, "eval", "--model", str(model_path),
                           "--dataset", "blobs", "--split", "train")
        assert code == 0
        assert json.loads(out)["n"] == 2048

    def test_metrics_reports_layers(self, model_path, capsys):
        code, out, _ = run(capsys, "metrics", "--model", str(model_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [16, 8, 4]
        assert len(payload["layers"]) == 2
        for layer in payload["layers"]:
            assert 0.0 <= layer["mean_angle_deg"] <= 180.0
            assert layer["effective_rank"] >= 1.0

    def test_metrics_rejects_run_flags(self, model_path, capsys):
        code, _, _ = run(capsys, "metrics", "--model", str(model_path),
                         "--set", "x=1")
        assert code == 1

    def test_eval_rejects_run_flags(self, model_path, capsys):
        code, _, _ = run(capsys, "eval", "--model", str(model_path),
                         "--dataset", "blobs", "--threads", "2")
        assert code == 1

    def test_missing_model_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "metrics", "--model",
                           str(tmp_path / "nope.bin"))
        assert code == 2

    def test_corrupt_model_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        code, _, _ = run(capsys, "metrics", "--model", str(bad))
        assert code == 2


class TestReproduceVerb:
    def test_noise_only_preset_heavily_scaled(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        code, out, _ = run(capsys, "reproduce", "fig1e", "--trials", "1",
                           "--scale", "20000", "--out", str(out_dir))
        assert code == 0
        assert "1/20000 duration" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["scale"] == 20000
        assert manifest["config"]["pretrain"]["total_samples"] == 25
        assert (out_dir / "records.csv").exists()

    def test_scale_leaving_too_few_trajectory_epochs_refused(self, tmp_path, capsys):
        # 2,500 noise samples: one logging epoch of 5,000
        code, _, err = run(capsys, "reproduce", "fig2e", "--scale", "200",
                           "--out", str(tmp_path / "r"))
        assert code == 1
        assert "at least 3 logging epochs" in err
        assert not (tmp_path / "r").exists()


class TestSweepVerb:
    def _sweep_doc(self):
        return {
            "experiment_id": "cli-sweep",
            "dims": [16, 8, 4],
            "variants": [{"name": "fa", "rule": "FA", "pretrain": False}],
            "trials": 1,
            "train": {"learning_rate": 0.001, "batch_size": 64, "epochs": 1},
            "dataset": "blobs",
            "train_size": 128,
            "test_size": 64,
            "sweep": {"train_size": [64, 128]},
        }

    def test_runs_all_points(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(self._sweep_doc()))
        out_dir = tmp_path / "s"
        code, out, _ = run(capsys, "sweep", "--config", str(cfg_path),
                           "--out", str(out_dir))
        assert code == 0
        assert "2 sweep points" in out
        assert (out_dir / "train_size=64" / "records.csv").exists()
        assert (out_dir / "train_size=128" / "records.csv").exists()

    def test_config_without_sweep_rejected(self, tmp_path, capsys):
        doc = self._sweep_doc()
        doc.pop("sweep")
        cfg_path = tmp_path / "nosweep.json"
        cfg_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1
        assert "sweep" in err

    def test_scale_reaches_swept_durations(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(
            {**NOISE_DOC, "sweep": {"pretrain.total_samples": [400, 800]}}
        ))
        out_dir = tmp_path / "s"
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path),
                           "--scale", "10", "--out", str(out_dir))
        assert code == 0, err
        for samples in (40, 80):
            config = manifest_config(out_dir / f"total_samples={samples}")
            assert config["pretrain"]["total_samples"] == samples
            assert config["scale"] == 10

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--config",
                         str(tmp_path / "absent.json"))
        assert code == 1

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1
        assert "JSON object" in err
        code, _, err = run(capsys, "pretrain", "--config", str(cfg_path),
                           "--set", "trials=2")
        assert code == 1
        assert "JSON object" in err


def at(doc, path):
    """The value at a dotted path, or None where the path is absent."""
    for key in path.split("."):
        doc = (doc or {}).get(key)
    return doc


def manifest_config(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())["config"]


# Config documents for --config; each holds a value different from the
# flag's at every path the flags below set.
NOISE_DOC = {
    "experiment_id": "file",
    "dims": [16, 8, 4],
    "variants": [{"name": "fa_pre", "rule": "FA", "pretrain": True}],
    "pretrain": {"total_samples": 100, "samples_per_epoch": 100,
                 "batch_size": 50, "learning_rate": 0.001,
                 "distribution": {"kind": "gaussian", "mean": 0.0, "std": 1.0}},
    "capture": ["angles"],
}
UNIFORM_DOC = {**NOISE_DOC, "pretrain": {
    **NOISE_DOC["pretrain"],
    "distribution": {"kind": "uniform", "low": -1.0, "high": 1.0},
}}
TRAIN_DOC = {
    **NOISE_DOC,
    "pretrain": {"total_samples": 100},
    "train": {"learning_rate": 0.001, "batch_size": 64, "epochs": 1},
    "dataset": "mnist",
    "train_size": 128,
    "test_size": 64,
    "capture": [],
}
SWEEP_DOC = {**TRAIN_DOC, "dataset": "blobs", "sweep": {"train_size": [64]}}

# (flag, argument, config path, the value the manifest records there)
COMMON_FLAGS = [
    ("--seed", "5", "master_seed", 5),
    ("--threads", "2", "threads", 2),
    ("--data-dir", "elsewhere", "data_dir", "elsewhere"),
]
NOISE_FLAGS = COMMON_FLAGS + [
    ("--dims", "12,6,3", "dims", [12, 6, 3]),
    ("--samples", "90", "pretrain.total_samples", 90),
    ("--samples-per-epoch", "45", "pretrain.samples_per_epoch", 45),
    ("--batch", "30", "pretrain.batch_size", 30),
    ("--lr", "0.002", "pretrain.learning_rate", 0.002),
    ("--trials", "2", "trials", 2),
    ("--capture", "distance,eff_rank", "capture", ["distance", "eff_rank"]),
]
TRAIN_FLAGS = COMMON_FLAGS + [
    ("--dataset", "blobs", "dataset", "blobs"),
    ("--dims", "12,6,3", "dims", [12, 6, 3]),
    ("--epochs", "2", "train.epochs", 2),
    ("--batch", "32", "train.batch_size", 32),
    ("--lr", "0.002", "train.learning_rate", 0.002),
    ("--patience", "3", "train.patience", 3),
    ("--train-size", "96", "train_size", 96),
    ("--test-size", "48", "test_size", 48),
    ("--samples", "90", "pretrain.total_samples", 90),
    ("--trials", "2", "trials", 2),
]
# case: (verb, its arguments without --config or None if it needs one,
#        config document or None if the verb takes none, run flags)
FLAG_CASES = {
    "pretrain": ("pretrain", [], NOISE_DOC, NOISE_FLAGS + [
        ("--std", "0.5", "pretrain.distribution.std", 0.5),
    ]),
    "pretrain-uniform": ("pretrain", ["--dist", "uniform"], UNIFORM_DOC, NOISE_FLAGS + [
        ("--low", "-0.5", "pretrain.distribution.low", -0.5),
        ("--high", "0.25", "pretrain.distribution.high", 0.25),
    ]),
    "train": ("train", ["--pretrain"], TRAIN_DOC, TRAIN_FLAGS),
    "reproduce": ("reproduce", ["fig1e", "--scale", "20000"], None, COMMON_FLAGS + [
        ("--trials", "2", "trials", 2),
    ]),
    "sweep": ("sweep", None, SWEEP_DOC, COMMON_FLAGS),
}
FLAG_RUNS = [
    pytest.param(case, with_config, id=f"{case}-{'config' if with_config else 'flags'}")
    for case, (_, args, doc, _) in FLAG_CASES.items()
    for with_config, base in ((False, args), (True, doc))
    if base is not None
]


class TestRunFlagsOverrideConfigPaths:
    @pytest.mark.parametrize("case, with_config", FLAG_RUNS)
    def test_every_run_flag_reaches_its_path(self, case, with_config, tmp_path,
                                             capsys):
        verb, args, doc, flags = FLAG_CASES[case]
        if with_config:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            for _, _, path, value in flags:
                assert at(doc, path) != value, path
            args = ["--config", str(cfg_path)]
        out_dir = tmp_path / "out"
        argv = [verb, *args, *(a for flag, arg, _, _ in flags for a in (flag, arg))]
        code, _, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 0, err
        if verb == "sweep":
            out_dir = out_dir / "train_size=64"
        config = manifest_config(out_dir)
        assert config["output_dir"] == str(out_dir)
        for flag, _, path, value in flags:
            assert at(config, path) == value, flag

    def test_table_lists_every_run_flag(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for verb, parser in sub.choices.items():
            declared = {opt for a in parser._actions if isinstance(a, _Path)
                        for opt in a.option_strings}
            listed = {flag for v, _, _, flags in FLAG_CASES.values() if v == verb
                      for flag, _, _, _ in flags}
            if listed:  # the run tests read the manifest from --out
                listed.add("--out")
            assert declared == listed, verb

    def test_config_seed_and_threads_survive_absent_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**NOISE_DOC, "master_seed": 7,
                                        "threads": 2, "trials": 2}))
        code, _, err = run(capsys, "pretrain", "--config", str(cfg_path),
                           "--out", str(tmp_path / "p"))
        assert code == 0, err
        config = manifest_config(tmp_path / "p")
        assert (config["master_seed"], config["threads"]) == (7, 2)

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--dist", "gaussian"],
        ["train", "--rule", "BP"],
        ["train", "--pretrain"],
    ], ids=["dist", "rule", "pretrain"])
    def test_shape_flags_refused_with_config(self, argv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TRAIN_DOC))
        code, _, err = run(capsys, *argv, "--config", str(cfg_path),
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--config" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["--dist", "uniform", "--std", "3"],
        ["--low", "-0.5"],
    ], ids=["std-on-uniform", "low-on-gaussian"])
    def test_parameter_of_the_other_distribution_refused(self, argv, tmp_path,
                                                         capsys):
        code, _, _ = run(capsys, *PRETRAIN_TINY, *argv,
                         "--out", str(tmp_path / "x"))
        assert code == 1
        assert not (tmp_path / "x").exists()

    def test_set_applies_after_the_flags(self, tmp_path, capsys):
        code, _, err = run(capsys, "reproduce", "fig1e", "--scale", "20000",
                           "--trials", "1", "--set", "trials=2",
                           "--seed", "3", "--set", "master_seed=4",
                           "--out", str(tmp_path / "r"))
        assert code == 0, err
        config = manifest_config(tmp_path / "r")
        assert (config["trials"], config["master_seed"]) == (2, 4)

    def test_scale_composes_with_the_config_scale(self, tmp_path, capsys):
        assert main(["reproduce", "fig1e", "--scale", "20000", "--trials", "1",
                     "--out", str(tmp_path / "r")]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(manifest_config(tmp_path / "r")))
        code, _, err = run(capsys, "pretrain", "--config", str(cfg_path),
                           "--scale", "5", "--out", str(tmp_path / "p"))
        assert code == 0, err
        config = manifest_config(tmp_path / "p")
        assert config["scale"] == 100_000
        assert config["pretrain"]["total_samples"] == 5

    def test_scale_refused_by_set_but_loaded_from_a_config(self, tmp_path, capsys):
        code, _, err = run(capsys, *PRETRAIN_TINY, "--set", "scale=2",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--scale" in err
        assert not (tmp_path / "x").exists()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**NOISE_DOC, "scale": 4.0}))
        for extra, scale, samples in (([], 4, 100), (["--scale", "2"], 8, 50)):
            out_dir = tmp_path / f"p{scale}"
            code, _, err = run(capsys, "pretrain", "--config", str(cfg_path),
                               *extra, "--out", str(out_dir))
            assert code == 0, err
            config = manifest_config(out_dir)
            assert (config["scale"], config["pretrain"]["total_samples"]) == (
                scale, samples)


class TestRefusedKeys:
    """The variant picks the backward rule and ``master_seed`` the trial and
    transform seeds, so a document that sets either in a section is
    refused."""

    @pytest.mark.parametrize("argv, item", [
        (TRAIN_TINY, "train.rule=BP"),
        (TRAIN_TINY, "train.seed=99"),
        (PRETRAIN_TINY, "pretrain.seed=42"),
        (TRAIN_TINY, "eval_transform.seed=3"),
    ], ids=["train.rule", "train.seed", "pretrain.seed", "eval_transform.seed"])
    def test_item_key_refused(self, argv, item, tmp_path, capsys):
        code, _, err = run(capsys, *argv, "--set", item, "--out", str(tmp_path / "x"))
        assert code == 1
        assert repr(item.partition("=")[0].split(".")[1]) in err
        assert not (tmp_path / "x").exists()

    def test_manifest_with_an_item_key_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(
            {**NOISE_DOC, "pretrain": {**NOISE_DOC["pretrain"], "seed": 0}}
        ))
        code, _, err = run(capsys, "pretrain", "--config", str(cfg_path),
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "'seed'" in err
        assert not (tmp_path / "x").exists()

    def test_meta_settings_without_the_meta_capture_refused(self, tmp_path, capsys):
        code, _, err = run(capsys, "reproduce", "fig1e", "--scale", "20000",
                           "--trials", "1", "--set", "meta.shots_per_class=5",
                           "--data-dir", str(tmp_path / "empty"),
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "'meta' flag" in err
        assert not (tmp_path / "x").exists()
