"""Train the same network twice from the same weights, once with
backpropagation and once with feedback alignment.

The two backward rules differ in one place only: BP carries the error
signal down through W_l transposed, FA through a fixed random matrix B_l
drawn at initialization and never updated.  On an easy synthetic task both
learn; BP is usually a little ahead at equal step counts.

A useful sanity point printed at the end: if feedback is overwritten with
the exact transpose, the two rules produce identical gradients.  The match
holds only until the first weight update, because the copy is never
refreshed.
"""

import numpy as np

from prealign.data import synthetic_blobs
from prealign.learn import TrainConfig, backward_bp, backward_fa, train
from prealign.net import forward, init_mlp


def main():
    full = synthetic_blobs(1200, 64, 4, seed=3)
    x_tr, y_tr = full.images[:800], full.labels[:800]
    x_te, y_te = full.images[800:], full.labels[800:]

    base = init_mlp((64, 32, 4), seed=0)
    curves = {}
    for rule in ("BP", "FA"):
        net = base.copy()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=15)
        curves[rule] = train(net, x_tr, y_tr, x_te, y_te, cfg, rule=rule, seed=5)

    print("epoch   BP test acc   FA test acc")
    for bp_rec, fa_rec in zip(curves["BP"], curves["FA"]):
        print(f"{bp_rec.epoch:5d}   {bp_rec.test_acc:11.3f}   {fa_rec.test_acc:11.3f}")

    probe = init_mlp((64, 32, 4), seed=1)
    for l, w in enumerate(probe.weights):
        probe.feedback[l][...] = w.T
    trace = forward(probe, x_tr[:16])
    fa_grads = backward_fa(probe, trace, y_tr[:16])
    bp_grads = backward_bp(probe, trace, y_tr[:16])
    worst = max(
        float(np.abs(a - b).max())
        for a, b in zip(
            fa_grads.d_weights + fa_grads.d_biases,
            bp_grads.d_weights + bp_grads.d_biases,
        )
    )
    print(f"\nwith feedback set to W^T, max gradient difference: {worst:.2e}")


if __name__ == "__main__":
    main()
