"""Tour of the measurement tools: effective rank, feature-gram
dimensionality, weight-feedback distance, and trajectory projection.

Effective rank is exp(entropy) of the normalized singular values: a
smooth count of how many directions a matrix really uses.  The same
number applied to the cosine-similarity Gram matrix of hidden activations
counts how many distinct features a layer represents.  The last section
projects a weight trajectory to two principal components and places the
frozen feedback target in the same plane, making the approach visible as
coordinates.
"""

import numpy as np

from prealign.data import synthetic_blobs
from prealign.learn import TrainConfig, train
from prealign.metrics import (
    effective_rank,
    gram_effective_dim,
    weight_feedback_distance,
    weight_trajectory_pca,
)
from prealign.net import forward, init_mlp
from prealign.noise import NoiseConfig, pretrain_random_noise


def main():
    rng = np.random.default_rng(7)

    print("effective rank of simple spectra")
    print(f"  eye(8)                 {effective_rank(np.eye(8)):.3f}")
    rank_one = np.outer(rng.normal(size=6), rng.normal(size=6))
    print(f"  rank-one outer product {effective_rank(rank_one):.3f}")
    print(f"  diag(1, 1, 0)          {effective_rank(np.diag([1.0, 1.0, 0.0])):.3f}")
    for decay in (0.95, 0.7, 0.4):
        spectrum = np.diag(decay ** np.arange(8, dtype=np.float64))
        print(f"  geometric decay {decay:.2f}   {effective_rank(spectrum):.3f}")

    print("\nfeature dimensionality of a hidden layer")
    full = synthetic_blobs(1536, 64, 4, seed=3)
    x_tr, y_tr = full.images[:1024], full.labels[:1024]
    x_te, y_te = full.images[1024:], full.labels[1024:]
    net = init_mlp((64, 32, 4), seed=0)
    hidden = forward(net, x_te).activations[-1]
    print(f"  fresh network   gram effective dim {gram_effective_dim(hidden):.2f}")
    train(
        net, x_tr, y_tr, x_te, y_te,
        TrainConfig(learning_rate=1e-3, batch_size=32, epochs=10),
        seed=1,
    )
    hidden = forward(net, x_te).activations[-1]
    print(f"  after training  gram effective dim {gram_effective_dim(hidden):.2f}")
    print("  (training on a 4-class task concentrates the features)")

    print("\nweight trajectory relative to its feedback target")
    net = init_mlp((784, 100, 10), seed=2)
    snapshots = [net.weights[1].copy()]

    def snap(epoch, mlp):
        if epoch % 8 == 0:
            snapshots.append(mlp.weights[1].copy())
        return {}

    print(f"  distance |W - B^T| before: {weight_feedback_distance(net, 1):.3f}")
    pretrain_random_noise(
        net,
        NoiseConfig(total_samples=200_000),
        snapshot_hook=snap,
        seed=2,
    )
    print(f"  distance |W - B^T| after:  {weight_feedback_distance(net, 1):.3f}")

    coords, target = weight_trajectory_pca(snapshots, net.feedback[1].T, k=2)
    print(f"  feedback target in the plane: ({target[0]:8.3f}, {target[1]:8.3f})")
    print("  snapshot path (2 principal components, gap to target):")
    for i, (cx, cy) in enumerate(coords):
        gap = float(np.hypot(cx - target[0], cy - target[1]))
        print(f"    {i:3d}  ({cx:8.3f}, {cy:8.3f})  gap {gap:8.3f}")


if __name__ == "__main__":
    main()
