"""Plain feedback alignment vs. noise-pretrained feedback alignment.

Both arms start from the same initialization and train with the same
schedule; one of them first spends a budget of label-free noise samples.
The pretrained arm starts supervised training with its feedback already
partly aligned, which shows up as faster accuracy growth (a larger area
under the test-accuracy curve).

Runs on synthetic blobs out of the box; set PREALIGN_DATA_DIR to a
directory holding an `mnist/` layout to see the effect on real digits,
where it is much larger.
"""

import os

from prealign.data import Dataset, subset, synthetic_blobs
from prealign.errors import DataError
from prealign.learn import TrainConfig, train
from prealign.metrics import accuracy_auc, alignment_angles
from prealign.net import init_mlp
from prealign.noise import NoiseConfig, pretrain_random_noise
from prealign.runner.experiment import load_named_split


def load_task():
    root = os.environ.get("PREALIGN_DATA_DIR")
    if root:
        try:
            tr = load_named_split("mnist", "train", root)
            te = load_named_split("mnist", "test", root)
            return subset(tr, 5_000, 1), subset(te, 5_000, 2), (784, 100, 10)
        except DataError:
            print("PREALIGN_DATA_DIR set but no usable mnist/ inside; using blobs")
    full = synthetic_blobs(4096, 256, 10, seed=11, spread=0.22)
    tr = Dataset(
        full.images[:3072].copy(), full.labels[:3072].copy(), 10, "blobs-train"
    )
    te = Dataset(
        full.images[3072:].copy(), full.labels[3072:].copy(), 10, "blobs-test"
    )
    return tr, te, (256, 64, 10)


def main():
    tr, te, dims = load_task()
    print(f"task: {tr.name}, {tr.n} train / {te.n} test, {dims[0]} features")

    base = init_mlp(dims, seed=4)
    curves = {}
    for label, with_noise in (("plain FA", False), ("noise-pretrained FA", True)):
        net = base.copy()
        if with_noise:
            before = alignment_angles(net, 1).mean_deg
            pretrain_random_noise(net, NoiseConfig(total_samples=100_000), seed=4)
            after = alignment_angles(net, 1).mean_deg
            print(
                f"noise phase moved the mean last-layer angle from "
                f"{before:.1f} to {after:.1f} deg"
            )
        cfg = TrainConfig(learning_rate=1e-4, batch_size=64, epochs=30)
        curves[label] = train(net, tr.images, tr.labels, te.images, te.labels, cfg,
                              seed=4)

    print("\nepoch   plain FA   pretrained FA   (test accuracy)")
    for plain, pre in zip(*curves.values()):
        marker = "  <-" if pre.test_acc > plain.test_acc else ""
        print(f"{plain.epoch:5d}   {plain.test_acc:8.3f}   {pre.test_acc:13.3f}{marker}")
    for label, records in curves.items():
        print(
            f"{label}: final {records[-1].test_acc:.3f}, "
            f"AUC {accuracy_auc([r.test_acc for r in records]):.2f}"
        )


if __name__ == "__main__":
    main()
