"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook recurrences, no shared code with the package) so that
agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import numpy as np


def finite_difference_gradients(loss_fn, arrays, h=1e-5):
    """Central-difference gradients of ``loss_fn()`` with respect to each
    array in ``arrays``, perturbing entries in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def jacobi_eigh(matrix, sweeps=100, tol=1e-13):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns) sorted descending.
    Hand-rolled rotations; independent of any LAPACK path.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def jacobi_singular_values(matrix):
    """Singular values via the eigenvalues of M^T M, descending."""
    m = np.asarray(matrix, dtype=np.float64)
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    vals, _ = jacobi_eigh(gram)
    return np.sqrt(np.maximum(vals, 0.0))


def adam_sequence(gradients, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Parameter values of a scalar Adam run, unrolled step by step: Algorithm
    1 of Kingma & Ba (2015), "Adam: A Method for Stochastic Optimization",
    line for line, with eps added to the bias-corrected root."""
    x = x0
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(gradients, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x)
    return out


def forward_unfused(weights, biases, x):
    """The forward pass with a fresh array for every intermediate: returns
    ``(activations, pre_activations, probabilities)``."""
    activations = [x]
    pre_activations = []
    h = x
    for l in range(len(weights)):
        o = h @ weights[l].T + biases[l]
        pre_activations.append(o)
        if l == len(weights) - 1:
            z = o - o.max(axis=1, keepdims=True)
            e = np.exp(z)
            probabilities = e / e.sum(axis=1, keepdims=True)
        else:
            h = np.maximum(o, 0.0)
            activations.append(h)
    return activations, pre_activations, probabilities


def backward_unfused(weights, feedback, activations, pre_activations,
                     probabilities, labels, use_feedback):
    """BP or FA gradients with a fresh array for every intermediate:
    returns ``(d_weights, d_biases)``."""
    n = probabilities.shape[0]
    delta = probabilities.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    d_w = [None] * len(weights)
    d_b = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        d_w[l] = delta.T @ activations[l]
        d_b[l] = delta.sum(axis=0)
        if l > 0:
            if use_feedback:
                carried = delta @ feedback[l].T
            else:
                carried = delta @ weights[l]
            delta = carried * (pre_activations[l - 1] > 0)
    return d_w, d_b


def adam_unfused(params, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam update ``t`` of each tensor in ``params`` in place, one tensor at
    a time with a fresh array for every intermediate."""
    scale_m = 1.0 / (1.0 - beta1**t)
    scale_v = 1.0 / (1.0 - beta2**t)
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr * (m * scale_m) / (np.sqrt(v * scale_v) + eps)


def softmax_cross_entropy_reference(logits, labels):
    """Mean cross-entropy through softmax, per-sample with explicit sums."""
    total = 0.0
    for row, label in zip(logits, labels):
        shifted = [z - max(row) for z in row]
        denom = sum(np.exp(z) for z in shifted)
        total += -np.log(max(np.exp(shifted[label]) / denom, 1e-12))
    return total / len(labels)


def fa_backward_reference(weights, biases, feedback, x, labels):
    """Feedback-alignment update directions by per-sample explicit loops.

    Mirrors the stated rule exactly: output delta is softmax probabilities
    minus the one-hot label (averaged over the batch); each hidden delta is
    the feedback matrix applied to the delta above, gated by the ReLU
    derivative with derivative-at-zero set to zero.
    """
    n = x.shape[0]
    n_layers = len(weights)
    d_w = [np.zeros_like(w) for w in weights]
    d_b = [np.zeros_like(b) for b in biases]
    for s in range(n):
        acts = [x[s]]
        pres = []
        h = x[s]
        for l in range(n_layers):
            o = weights[l] @ h + biases[l]
            pres.append(o)
            if l < n_layers - 1:
                h = np.maximum(o, 0.0)
                acts.append(h)
        z = pres[-1] - pres[-1].max()
        probs = np.exp(z) / np.exp(z).sum()
        delta = probs.copy()
        delta[labels[s]] -= 1.0
        delta = delta / n
        for l in range(n_layers - 1, -1, -1):
            d_w[l] += np.outer(delta, acts[l])
            d_b[l] += delta
            if l > 0:
                carried = feedback[l] @ delta
                delta = carried * (pres[l - 1] > 0)
    return d_w, d_b


def gram_cosine_reference(activations):
    """Neuron-by-neuron cosine similarity matrix by explicit double loop."""
    h = np.asarray(activations, dtype=np.float64)
    k = h.shape[1]
    gram = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ni = np.sqrt((h[:, i] ** 2).sum())
            nj = np.sqrt((h[:, j] ** 2).sum())
            if ni == 0.0 or nj == 0.0:
                gram[i, j] = 1.0 if i == j else 0.0
            else:
                gram[i, j] = float(h[:, i] @ h[:, j] / (ni * nj))
    return gram


def entropy_effective_rank_reference(singular_values):
    """exp of the Shannon entropy of the normalized spectrum, by loop."""
    total = sum(singular_values)
    acc = 0.0
    for s in singular_values:
        p = s / total
        if p > 0:
            acc -= p * np.log(p)
    return np.exp(acc)


def affine_transform_reference(images, side, translate_frac, scale, rotate_deg,
                               seed):
    """Random affine resampling one image at a time: four scalar draws per
    image (tx, ty, scale, angle), the inverse map about the center, and
    zero-padded bilinear taps accumulated in (0,0), (0,1), (1,0), (1,1)
    order.  Returns the clipped ``(n, side*side)`` images."""
    rng = np.random.default_rng(seed)
    center = (side - 1) / 2.0
    cols, rows = np.meshgrid(np.arange(side, dtype=np.float64),
                             np.arange(side, dtype=np.float64))
    out = np.empty_like(images)
    for i in range(images.shape[0]):
        tx = rng.uniform(*translate_frac) * side
        ty = rng.uniform(*translate_frac) * side
        s = rng.uniform(*scale)
        theta = np.deg2rad(rng.uniform(*rotate_deg))
        ux = cols - center - tx
        uy = rows - center - ty
        cos_t, sin_t = np.cos(-theta), np.sin(-theta)
        x = (cos_t * ux - sin_t * uy) / s + center
        y = (sin_t * ux + cos_t * uy) / s + center
        image = images[i].reshape(side, side)
        x0 = np.floor(x).astype(int)
        y0 = np.floor(y).astype(int)
        fx = x - x0
        fy = y - y0
        result = np.zeros_like(x)
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dx, wx in ((0, 1 - fx), (1, fx)):
                xi = x0 + dx
                yi = y0 + dy
                inside = (xi >= 0) & (xi < side) & (yi >= 0) & (yi < side)
                vals = np.where(inside, image[np.clip(yi, 0, side - 1),
                                              np.clip(xi, 0, side - 1)], 0.0)
                result += wy * wx * vals
        out[i] = result.ravel()
    return np.clip(out, 0.0, 1.0)


def per_call_meta_loss_reference(mlp, tasks, cfg, seed):
    """The few-shot adaptation loss with each task's episode drawn inside
    the call, from ``rng_for(seed, "meta", t)``, as it was computed before
    episodes were drawn once per run.  Unlike the rest of this module it
    shares the package's training step: it pins the episode draw, not the
    arithmetic of the adaptation."""
    from prealign.learn import _CORES, AdamState, step
    from prealign.net import cross_entropy, forward
    from prealign.seeds import rng_for

    shots, queries = cfg.shots_per_class, cfg.query_per_class
    per_task = []
    with _CORES.item():
        for t, task in enumerate(tasks):
            rng = rng_for(seed, "meta", t)
            support_idx, query_idx = [], []
            for c in range(task.class_count):
                pool = np.flatnonzero(task.labels == c)
                picked = rng.choice(pool, size=shots + queries, replace=False)
                support_idx.append(picked[:shots])
                query_idx.append(picked[shots:])
            support = np.concatenate(support_idx)
            query = np.concatenate(query_idx)
            clone = mlp.copy()
            adam = AdamState.for_mlp(clone)
            x_s, y_s = task.images[support], task.labels[support]
            for _ in range(cfg.inner_steps):
                step(clone, adam, x_s, y_s, "FA", cfg.inner_lr)
            trace = forward(clone, task.images[query])
            per_task.append(cross_entropy(trace.probabilities, task.labels[query]))
    return float(sum(per_task)), per_task
