"""Noise training as preparation for rapid few-shot adaptation.

The adaptation score: for each task, clone the network, let the clone
take ten feedback-alignment Adam steps on ten examples per class, then
measure its cross-entropy on held-out queries; sum over tasks.  Lower
means the network adapts faster from its current weights.  No task data
is seen outside the inner loops, yet a label-free noise phase lowers the
score across all tasks at once.
"""

import numpy as np

from prealign.data import synthetic_blobs
from prealign.metrics import MetaConfig, draw_episodes, meta_loss
from prealign.net import init_mlp
from prealign.noise import NoiseConfig, pretrain_random_noise


def main():
    seeds = (21, 22, 23)
    tasks = [synthetic_blobs(2000, 128, 10, seed=k, spread=0.2) for k in seeds]
    meta_cfg = MetaConfig(
        shots_per_class=10,
        inner_steps=10,
        inner_lr=1e-3,
        query_per_class=10,
    )

    # one support and query sample per task, scored at every checkpoint
    episodes = draw_episodes(tasks, meta_cfg, seed=5)

    net = init_mlp((128, 64, 10), seed=6)
    total_before, per_task_before = meta_loss(net, episodes, meta_cfg)

    checkpoints = [(0, total_before)]

    def snap(epoch, mlp):
        if epoch % 20 == 0:
            checkpoints.append((epoch, meta_loss(mlp, episodes, meta_cfg)[0]))
        return {}

    pretrain_random_noise(
        net,
        NoiseConfig(total_samples=400_000, samples_per_epoch=2_500),
        snapshot_hook=snap,
        seed=6,
    )
    total_after, per_task_after = meta_loss(net, episodes, meta_cfg)

    print("adaptation loss during noise training (no task data involved):")
    for epoch, value in checkpoints:
        print(f"  epoch {epoch:3d}   {value:.3f}")

    print(f"\nsummed over tasks: {total_before:.3f} -> {total_after:.3f}")
    print("per task:")
    for seed, before, after in zip(seeds, per_task_before, per_task_after):
        arrow = "down" if after < before else "up"
        print(f"  blobs[{seed}]    {before:.3f} -> {after:.3f}  ({arrow})")
    print(
        "\nmean improvement "
        f"{np.mean(np.array(per_task_before) - np.array(per_task_after)):.3f} "
        "per task"
    )


if __name__ == "__main__":
    main()
