"""Decomposition contracts, checked against hand-rolled solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prealign.errors import NumericError, ShapeError
from prealign.linalg import pca_fit, pca_project, svd

from oracles import jacobi_eigh, jacobi_singular_values


class TestSvd:
    @pytest.mark.parametrize("shape", [(7, 4), (3, 8), (5, 5), (1, 3)])
    def test_reconstruction(self, rng, shape):
        m = rng.normal(size=shape)
        s, u, v = svd(m)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-9, rtol=0)

    def test_singular_values_descending_nonnegative(self, rng):
        s, _, _ = svd(rng.normal(size=(6, 9)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_orthonormal_factors(self, rng):
        _, u, v = svd(rng.normal(size=(8, 5)))
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-9, rtol=0)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-9, rtol=0)

    def test_matches_jacobi_route(self, rng):
        m = rng.normal(size=(9, 6))
        s, _, _ = svd(m)
        np.testing.assert_allclose(s, jacobi_singular_values(m), atol=1e-8, rtol=0)

    def test_sign_convention(self, rng):
        _, u, _ = svd(rng.normal(size=(6, 4)))
        for j in range(u.shape[1]):
            col = u[:, j]
            first = col[np.nonzero(col)[0][0]]
            assert first > 0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            svd(np.zeros((0, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            svd(np.zeros(4))

    def test_nan_rejected(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(NumericError):
            svd(m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_reconstruction_property(self, rows, cols, seed):
        m = np.random.default_rng(seed).normal(size=(rows, cols))
        s, u, v = svd(m)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-9, rtol=0)


class TestPca:
    def test_planar_data_variance(self, rng):
        # points on a 2-D affine subspace of a 20-D space
        basis = rng.normal(size=(2, 20))
        coeffs = rng.normal(size=(30, 2))
        points = coeffs @ basis + rng.normal(size=20)
        _, _, explained = pca_fit(points, 3)
        assert explained[2] < 1e-18 * max(1.0, explained[0])

    def test_collinear_line(self):
        t = np.linspace(-2, 2, 9)
        points = np.stack([t, 2 * t], axis=1)
        _, components, explained = pca_fit(points, 2)
        np.testing.assert_allclose(components[0],
                                   [1 / np.sqrt(5), 2 / np.sqrt(5)], atol=1e-12, rtol=0)
        assert explained[1] < 1e-15

    def test_matches_covariance_eigensolver(self, rng):
        points = rng.normal(size=(15, 4))
        _, _, explained = pca_fit(points, 4)
        centered = points - points.mean(axis=0)
        cov = centered.T @ centered / (points.shape[0] - 1)
        jvals, _ = jacobi_eigh(cov)
        np.testing.assert_allclose(explained, jvals, atol=1e-10, rtol=0)

    def test_projection_values(self, rng):
        points = rng.normal(size=(12, 6))
        mean, components, _ = pca_fit(points, 2)
        p = points[3]
        np.testing.assert_allclose(pca_project(mean, components, p),
                                   components @ (p - mean), atol=1e-12, rtol=0)

    def test_k_too_large_rejected(self, rng):
        with pytest.raises(ShapeError):
            pca_fit(rng.normal(size=(3, 10)), 4)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ShapeError):
            pca_fit(rng.normal(size=(1, 5)), 1)

    def test_project_length_mismatch_rejected(self, rng):
        points = rng.normal(size=(8, 5))
        mean, components, _ = pca_fit(points, 2)
        with pytest.raises(ShapeError):
            pca_project(mean, components, np.zeros(4))
