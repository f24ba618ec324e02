"""Dense linear algebra with pinned conventions.

Thin, contract-enforcing wrappers around ``numpy.linalg``: descending spectra,
a fixed sign convention (first nonzero entry of each returned vector is
positive), and strict input validation.  Every caller in the package goes
through these so that decompositions are deterministic and test-assertable.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

__all__ = ["svd", "pca_fit", "pca_project"]


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise ShapeError(f"{name} is empty (shape {a.shape})")
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains NaN or Inf")
    return a


def _fix_column_signs(*mats: np.ndarray) -> None:
    """Flip columns in place so the first matrix's columns lead with a
    positive entry; companion matrices have their columns flipped in step."""
    anchor = mats[0]
    for j in range(anchor.shape[1]):
        col = anchor[:, j]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            for m in mats:
                m[:, j] = -m[:, j]


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = U @ diag(s) @ V.T``.

    Returns ``(s, U, V)`` with ``s`` descending and nonnegative and the
    columns of ``U`` and ``V`` orthonormal.  Signs are fixed so each column
    of ``U`` leads with a positive entry (``V`` flipped in step, preserving
    the reconstruction).
    """
    a = _as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.T.copy()
    u = u.copy()
    _fix_column_signs(u, v)
    # numpy can return tiny negative zeros in s; clamp for the >= 0 contract
    s = np.maximum(s, 0.0)
    return s, u, v


def pca_fit(points, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal components of a sample matrix (rows are observations).

    Returns ``(mean, components, explained_variance)`` where ``components``
    holds the top-``k`` eigenvectors of the sample covariance as rows and
    ``explained_variance`` the matching covariance eigenvalues, descending.
    Computed through the SVD of the centered data, which is both the exact
    covariance eigendecomposition and stable for wide matrices.
    """
    x = _as_matrix(points, "points")
    n, d = x.shape
    if n < 2:
        raise ShapeError(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(n, d):
        raise ShapeError(f"k={k} outside [1, min(n_samples, n_dims)={min(n, d)}]")
    mean = x.mean(axis=0)
    s, _, v = svd(x - mean)
    components = v.T[:k].copy()
    _fix_column_signs(components.T)
    explained = (s[:k] ** 2) / (n - 1)
    return mean, components, explained


def pca_project(mean, components, point) -> np.ndarray:
    """Coordinates of ``point`` in the fitted component basis:
    ``components @ (point - mean)``."""
    mean = np.asarray(mean, dtype=np.float64)
    comps = np.asarray(components, dtype=np.float64)
    p = np.asarray(point, dtype=np.float64)
    if p.shape != mean.shape or comps.shape[1] != p.shape[0]:
        raise ShapeError(
            f"point length {p.shape} does not match fit dimensions "
            f"(mean {mean.shape}, components {comps.shape})"
        )
    return comps @ (p - mean)
