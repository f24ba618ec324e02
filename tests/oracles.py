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


def charpoly_coefficients(matrix):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recurrence: p(x) = x^n + c[1] x^(n-1) + ... + c[n]."""
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def charpoly_eigenvalues(matrix, samples=4000):
    """Real eigenvalues of a symmetric matrix by sign-change bisection of
    the characteristic polynomial over the Gershgorin interval."""
    a = np.asarray(matrix, dtype=np.float64)
    coeffs = charpoly_coefficients(a)

    def p(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    radius = np.max(np.abs(a).sum(axis=1))
    lo, hi = -radius - 1.0, radius + 1.0
    xs = np.linspace(lo, hi, samples)
    values = np.array([p(x) for x in xs])
    roots = []
    for i in range(samples - 1):
        left, right = values[i], values[i + 1]
        if left == 0.0:
            roots.append(xs[i])
            continue
        if left * right < 0:
            a_x, b_x = xs[i], xs[i + 1]
            for _ in range(200):
                mid = (a_x + b_x) / 2
                if p(a_x) * p(mid) <= 0:
                    b_x = mid
                else:
                    a_x = mid
            roots.append((a_x + b_x) / 2)
    return np.array(sorted(roots, reverse=True))


def adam_sequence(gradients, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Parameter values of a scalar Adam run, unrolled step by step."""
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
