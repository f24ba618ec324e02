"""Drive a complete two-variant experiment through the runner.

One config fans out into (trials x variants) seeded runs with shared
initializations per trial, and everything lands on disk: per-variant
records.csv, checkpoints for every trained network, and a
manifest.json that embeds the fully resolved config so the run can be
repeated or audited later.  The `prealign` command line drives exactly
this code path; the equivalent invocations are printed at the end.
"""

import json
import tempfile
from pathlib import Path

from prealign.learn import TrainConfig
from prealign.noise import NoiseConfig
from prealign.runner.config import ExperimentConfig, VariantSpec
from prealign.runner.experiment import run_experiment


def main():
    with tempfile.TemporaryDirectory(prefix="prealign-demo-") as tmp:
        run_and_report(Path(tmp))


def run_and_report(out):
    cfg = ExperimentConfig(
        experiment_id="demo",
        dims=(64, 32, 4),
        variants=[
            VariantSpec(name="fa", rule="FA", pretrain=False),
            VariantSpec(name="fa_pre", rule="FA", pretrain=True),
        ],
        trials=2,
        master_seed=9,
        pretrain=NoiseConfig(
            total_samples=4_000,
            samples_per_epoch=1_000,
            batch_size=64,
            learning_rate=1e-3,
        ),
        train=TrainConfig(learning_rate=1e-3, batch_size=32, epochs=5),
        dataset="blobs",
        capture=("angles",),
        output_dir=str(out),
        notes="demo run on synthetic blobs",
    )
    run_experiment(cfg)

    print(f"output tree under {out}:")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(out)}  ({path.stat().st_size} bytes)")

    records = (out / "fa_pre" / "records.csv").read_text().splitlines()
    print("\nfirst records of the pretrained variant:")
    for line in records[:4]:
        print(f"  {line}")

    manifest = json.loads((out / "manifest.json").read_text())
    print("\nmanifest keys:", ", ".join(sorted(manifest)))
    print("trial seeds:", manifest["trial_seeds"])
    print("per-variant, per-trial summary (final test accuracy / AUC):")
    for variant, trials in manifest["summary"].items():
        for trial, row in sorted(trials.items()):
            print(
                f"  {variant:7s} trial {trial}: "
                f"final {row['final_test_acc']:.3f}, "
                f"auc {row['auc_test_acc']:.3f}, "
                f"{row['epochs_ran']} epochs over {'+'.join(row['phases'])}"
            )

    print("\nthe CLI drives the same path:")
    print("  prealign train --config my_experiment.json --out out/run1")
    print("  prealign reproduce fig1e --scale 100 --out out/quick")
    print("  prealign sweep --config my_sweep.json")


if __name__ == "__main__":
    main()
