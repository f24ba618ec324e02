"""Watch forward weights align to frozen random feedback on pure noise.

Inputs are Gaussian pixels and labels are uniform draws, so there is
nothing about the data to learn: the loss can only fall toward log(10),
the entropy of a ten-way coin flip.  The interesting motion is elsewhere.
Each hidden neuron owns a column of the last weight matrix and a row of
the corresponding feedback matrix; fresh from initialization the two are
essentially orthogonal (about 90 degrees apart), and noise training alone
rotates the weight columns toward their feedback rows.
"""

import numpy as np

from prealign.metrics import alignment_angles
from prealign.net import init_mlp
from prealign.noise import NoiseConfig, pretrain_random_noise


def main():
    mlp = init_mlp((784, 100, 10), seed=0)
    print(
        "fresh network: mean last-layer angle "
        f"{alignment_angles(mlp, 1).mean_deg:.1f} deg"
    )

    history = []

    def snap(epoch, net):
        if epoch % 5 == 0:
            history.append((epoch, alignment_angles(net, 1).mean_deg))
        return {}

    cfg = NoiseConfig(
        total_samples=200_000,
        samples_per_epoch=5_000,
        batch_size=64,
        learning_rate=1e-4,
    )
    records = pretrain_random_noise(mlp, cfg, snapshot_hook=snap, seed=0)

    print(
        f"noise loss: epoch 1 at {records[0].train_loss:.3f}, "
        f"epoch {records[-1].epoch} at {records[-1].train_loss:.3f} "
        f"(floor log 10 = {np.log(10.0):.3f})"
    )
    print("\nepoch   mean angle (deg)")
    for epoch, angle in history:
        bar = "#" * max(0, int(round((angle - 60.0) * 1.5)))
        print(f"{epoch:5d}   {angle:7.2f}  {bar}")
    print("\nthe descent accelerates; longer runs push well below 75 deg")


if __name__ == "__main__":
    main()
