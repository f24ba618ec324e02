"""End-to-end tests of the command-line interface, run in process."""

import json

import pytest

from prealign.runner.cli import main


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


class TestSweepVerb:
    def _sweep_doc(self):
        return {
            "experiment_id": "cli-sweep",
            "dims": [16, 8, 4],
            "variants": [{"name": "fa", "rule": "FA", "pretrain": False}],
            "trials": 1,
            "train": {"rule": "FA", "learning_rate": 0.001, "batch_size": 64,
                      "epochs": 1},
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

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--config",
                         str(tmp_path / "absent.json"))
        assert code == 1
