"""Tests for alignment, rank, curve, trajectory, and adaptation metrics."""

import weakref

import numpy as np
import pytest

from prealign.data import Dataset, synthetic_blobs
from prealign.errors import ConfigError, NumericError, ShapeError
from prealign.metrics import (
    MetaConfig,
    accuracy_auc,
    alignment_angles,
    draw_episodes,
    effective_rank,
    gram_effective_dim,
    meta_loss,
    weight_feedback_distance,
    weight_trajectory_pca,
)
from prealign.net import Mlp, init_mlp

from oracles import (
    entropy_effective_rank_reference,
    gram_cosine_reference,
    jacobi_eigh,
    jacobi_singular_values,
    per_call_meta_loss_reference,
)


def _widened(mlp):
    """The float64 network that holds exactly ``mlp``'s values."""
    return Mlp(dims=mlp.dims,
               weights=[w.astype(np.float64) for w in mlp.weights],
               biases=[b.astype(np.float64) for b in mlp.biases],
               feedback=[b.astype(np.float64) for b in mlp.feedback])


def _assert_angles_read_the_widening(mlp):
    """A float32 network's angles equal those of its float64 widening: the
    metric reads the values, not their precision.  (The float64 bounds do
    not carry over: rounding the inputs to float32 moves the angles of
    exactly aligned vectors by about 1e-6 deg.)"""
    assert mlp.params.dtype == np.float32
    for layer in range(mlp.n_layers):
        np.testing.assert_array_equal(
            alignment_angles(mlp, layer).per_neuron_deg,
            alignment_angles(_widened(mlp), layer).per_neuron_deg)


class TestAlignmentAngles:
    def test_transposed_feedback_gives_zero(self):
        mlp = init_mlp((6, 5, 3), seed=0, dtype=np.float64)
        mlp.feedback = [w.T.copy() for w in mlp.weights]
        for layer in range(mlp.n_layers):
            rep = alignment_angles(mlp, layer)
            np.testing.assert_allclose(rep.per_neuron_deg, 0.0, atol=1e-6, rtol=0)
        narrow = init_mlp((6, 5, 3), seed=0)
        narrow.feedback = [w.T.copy() for w in narrow.weights]
        _assert_angles_read_the_widening(narrow)

    def test_negated_transpose_gives_180(self):
        mlp = init_mlp((6, 5, 3), seed=0, dtype=np.float64)
        mlp.feedback = [-w.T.copy() for w in mlp.weights]
        rep = alignment_angles(mlp, 0)
        np.testing.assert_allclose(rep.per_neuron_deg, 180.0, atol=1e-6, rtol=0)
        narrow = init_mlp((6, 5, 3), seed=0)
        narrow.feedback = [-w.T.copy() for w in narrow.weights]
        _assert_angles_read_the_widening(narrow)

    def test_hand_computed_angles(self):
        mlp = init_mlp((2, 2), seed=0)
        mlp.weights[0] = np.array([[1.0, 0.0], [0.0, 1.0]])
        # unit 0: W[:, 0] = (1, 0) vs B[0, :] = (1, 1) -> 45 degrees
        # unit 1: W[:, 1] = (0, 1) vs B[1, :] = (1, 0) -> 90 degrees
        mlp.feedback[0] = np.array([[1.0, 1.0], [1.0, 0.0]])
        rep = alignment_angles(mlp, 0)
        np.testing.assert_allclose(rep.per_neuron_deg, [45.0, 90.0], atol=1e-10, rtol=0)
        np.testing.assert_allclose(rep.mean_deg, 67.5, atol=1e-10, rtol=0)
        assert rep.layer_index == 0

    def test_fresh_init_is_near_orthogonal(self):
        mlp = init_mlp((50, 40, 10), seed=1)
        rep = alignment_angles(mlp, 0)
        assert 85.0 < rep.mean_deg < 95.0

    def test_zero_norm_gives_neutral_90(self):
        mlp = init_mlp((4, 3, 2), seed=0)
        mlp.weights[0][:, 1] = 0.0
        rep = alignment_angles(mlp, 0)
        assert rep.per_neuron_deg[1] == 90.0
        mlp2 = init_mlp((4, 3, 2), seed=0)
        mlp2.feedback[0][2, :] = 0.0
        assert alignment_angles(mlp2, 0).per_neuron_deg[2] == 90.0

    def test_feedback_scale_invariant(self):
        mlp = init_mlp((6, 5, 3), seed=2, dtype=np.float64)
        base = alignment_angles(mlp, 0).per_neuron_deg
        mlp.feedback[0] = mlp.feedback[0] * 3.0
        np.testing.assert_allclose(
            alignment_angles(mlp, 0).per_neuron_deg, base, atol=1e-10, rtol=0
        )
        narrow = init_mlp((6, 5, 3), seed=2)
        narrow.feedback[0] = narrow.feedback[0] * 3.0
        _assert_angles_read_the_widening(narrow)

    def test_bad_layer(self):
        mlp = init_mlp((4, 3, 2), seed=0)
        with pytest.raises(ConfigError):
            alignment_angles(mlp, 2)
        with pytest.raises(ConfigError):
            alignment_angles(mlp, -1)


class TestWeightFeedbackDistance:
    def test_zero_when_transposed(self):
        mlp = init_mlp((5, 4, 3), seed=0)
        mlp.feedback = [w.T.copy() for w in mlp.weights]
        assert weight_feedback_distance(mlp, 0) == 0.0
        assert weight_feedback_distance(mlp, 1) == 0.0

    def test_known_value(self):
        mlp = init_mlp((2, 2), seed=0)
        mlp.weights[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
        mlp.feedback[0] = np.zeros((2, 2))
        np.testing.assert_allclose(
            weight_feedback_distance(mlp, 0), np.sqrt(30.0)
        )

    def test_float32_net_reads_as_its_widening(self):
        mlp = init_mlp((6, 5, 3), seed=2)
        assert mlp.params.dtype == np.float32
        for layer in range(mlp.n_layers):
            assert (weight_feedback_distance(mlp, layer)
                    == weight_feedback_distance(_widened(mlp), layer))

    def test_bad_layer(self):
        with pytest.raises(ConfigError):
            weight_feedback_distance(init_mlp((3, 2), seed=0), 5)


class TestEffectiveRank:
    def test_identity(self):
        for n in (2, 5, 9):
            np.testing.assert_allclose(effective_rank(np.eye(n)), n, rtol=1e-10)

    def test_rank_one(self):
        m = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 4.0))
        np.testing.assert_allclose(effective_rank(m), 1.0, rtol=1e-8)

    def test_two_equal_directions(self):
        np.testing.assert_allclose(
            effective_rank(np.diag([1.0, 1.0, 0.0])), 2.0, rtol=1e-10
        )

    def test_scale_invariant(self, rng):
        m = rng.normal(size=(6, 8))
        np.testing.assert_allclose(
            effective_rank(3.0 * m), effective_rank(m), rtol=1e-10
        )

    def test_bounds(self, rng):
        m = rng.normal(size=(20, 30))
        er = effective_rank(m)
        assert 1.0 <= er <= 20.0

    def test_matches_entropy_reference(self, rng):
        # fully independent route: Jacobi spectrum + looped entropy
        for shape in ((5, 5), (4, 9), (10, 3)):
            m = rng.normal(size=shape)
            np.testing.assert_allclose(
                effective_rank(m),
                entropy_effective_rank_reference(jacobi_singular_values(m)),
                rtol=1e-8,
            )

    def test_rank_deficient_matches_jacobi_route(self, rng):
        # exact zero columns give exact zero Jacobi singular values, so the
        # 0 * ln 0 := 0 convention decides the value
        m = rng.normal(size=(9, 6))
        m[:, 3:] = 0.0
        s = jacobi_singular_values(m)
        assert np.all(s[3:] == 0.0)
        np.testing.assert_allclose(
            effective_rank(m), entropy_effective_rank_reference(s), rtol=1e-8
        )
        np.testing.assert_allclose(effective_rank(m), effective_rank(m[:, :3]),
                                   rtol=1e-10)

    def test_all_zero_raises_numeric_error(self):
        with pytest.raises(NumericError):
            effective_rank(np.zeros((3, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            effective_rank(np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            effective_rank(np.zeros((0, 3)))

    def test_nan_rejected(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(NumericError):
            effective_rank(m)


class TestGramEffectiveDim:
    def test_identical_neurons_give_one(self, rng):
        col = rng.normal(size=(30, 1))
        h = np.tile(col, (1, 6))
        np.testing.assert_allclose(gram_effective_dim(h), 1.0, rtol=1e-8)

    def test_orthogonal_neurons_give_count(self):
        np.testing.assert_allclose(gram_effective_dim(np.eye(7)), 7.0, rtol=1e-10)

    def test_matches_brute_force_pipeline(self, rng):
        h = rng.normal(size=(50, 8))
        gram = gram_cosine_reference(h)
        np.testing.assert_allclose(
            gram_effective_dim(h), effective_rank(gram), rtol=1e-8
        )

    def test_column_rescale_invariant(self, rng):
        h = rng.normal(size=(40, 6))
        scales = rng.uniform(0.1, 10.0, size=6)
        np.testing.assert_allclose(
            gram_effective_dim(h * scales), gram_effective_dim(h), rtol=1e-8
        )

    def test_dead_neuron_counts_as_independent(self):
        # a zero column is orthogonal to everything and keeps a unit diagonal
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(gram_effective_dim(h), 3.0, rtol=1e-10)

    def test_shape_validation(self, rng):
        with pytest.raises(ConfigError):
            gram_effective_dim(rng.normal(size=10))
        with pytest.raises(ConfigError):
            gram_effective_dim(rng.normal(size=(10, 1)))
        with pytest.raises(ConfigError):
            gram_effective_dim(rng.normal(size=(1, 10)))


class TestAccuracyAuc:
    def test_hand_computed(self):
        np.testing.assert_allclose(accuracy_auc([0.0, 1.0, 1.0]), 0.75)

    def test_linear_ramp(self):
        np.testing.assert_allclose(accuracy_auc(np.linspace(0, 1, 11)), 0.5)

    def test_constant_curve_returns_itself(self):
        np.testing.assert_allclose(accuracy_auc([0.7] * 5), 0.7)

    def test_single_point(self):
        assert accuracy_auc([0.3]) == 0.3

    def test_dominating_curve_scores_higher(self, rng):
        low = rng.uniform(0.0, 0.5, size=20)
        assert accuracy_auc(low + 0.4) > accuracy_auc(low)

    def test_validation(self):
        with pytest.raises(ConfigError):
            accuracy_auc([])
        with pytest.raises(ConfigError):
            accuracy_auc(np.ones((3, 2)))


class TestWeightTrajectoryPca:
    def _planar_points(self, rng, count):
        # orthonormal 2-D basis embedded in 12 dimensions
        basis, _ = np.linalg.qr(rng.normal(size=(12, 2)))
        coeffs = rng.normal(size=(count, 2))
        return coeffs @ basis.T, coeffs

    def test_planar_trajectory_preserves_distances(self, rng):
        snaps, _ = self._planar_points(rng, 5)
        fb = snaps[-1] * 0.5 + 0.1 * snaps[0]
        coords, fb_coord = weight_trajectory_pca(list(snaps), fb)
        assert coords.shape == (5, 2)
        assert fb_coord.shape == (2,)
        for i in range(5):
            for j in range(5):
                np.testing.assert_allclose(
                    np.linalg.norm(coords[i] - coords[j]),
                    np.linalg.norm(snaps[i] - snaps[j]),
                    atol=1e-8, rtol=0,
                )
            np.testing.assert_allclose(
                np.linalg.norm(coords[i] - fb_coord),
                np.linalg.norm(snaps[i] - fb),
                atol=1e-8, rtol=0,
            )

    def test_contraction_toward_target_survives_projection(self, rng):
        basis, _ = np.linalg.qr(rng.normal(size=(10, 2)))
        target = np.array([2.0, -1.0])
        steps = [target * (1 - 0.5**k) + np.array([3.0, 1.0]) * 0.5**k
                 for k in range(5)]
        snaps = [basis @ s for s in steps]
        fb = basis @ target
        coords, fb_coord = weight_trajectory_pca(snaps, fb)
        dists = [np.linalg.norm(c - fb_coord) for c in coords]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_matrix_snapshots_accepted(self, rng):
        snaps = [rng.normal(size=(4, 3)) for _ in range(4)]
        coords, fb_coord = weight_trajectory_pca(snaps, rng.normal(size=(4, 3)))
        assert coords.shape == (4, 2)

    def test_too_few_snapshots(self, rng):
        with pytest.raises(ShapeError):
            weight_trajectory_pca([rng.normal(size=6)] * 2, rng.normal(size=6))

    def test_length_mismatch(self, rng):
        snaps = [rng.normal(size=6) for _ in range(3)]
        with pytest.raises(ShapeError):
            weight_trajectory_pca(snaps, rng.normal(size=7))

    def test_single_snapshot_rejected(self, rng):
        with pytest.raises(ShapeError):
            weight_trajectory_pca([rng.normal(size=5)], rng.normal(size=5))

    def test_snapshot_lengths_differ_rejected(self, rng):
        # the feedback point agrees with the first snapshot, not the last
        snaps = [rng.normal(size=6), rng.normal(size=6), rng.normal(size=5)]
        with pytest.raises(ShapeError):
            weight_trajectory_pca(snaps, rng.normal(size=6))

    def test_nan_snapshot_rejected(self, rng):
        snaps = [rng.normal(size=6) for _ in range(3)]
        snaps[1][2] = np.nan
        with pytest.raises(NumericError, match="NaN or Inf"):
            weight_trajectory_pca(snaps, rng.normal(size=6))

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range_rejected(self, rng, k):
        # 3 snapshots and the feedback point allow at most 4 axes
        snaps = [rng.normal(size=10) for _ in range(3)]
        with pytest.raises(ShapeError):
            weight_trajectory_pca(snaps, rng.normal(size=10), k=k)

    def test_negated_points_give_negated_coords(self, rng):
        snaps = [rng.normal(size=8) for _ in range(5)]
        fb = rng.normal(size=8)
        coords, fb_coord = weight_trajectory_pca(snaps, fb)
        neg_coords, neg_fb_coord = weight_trajectory_pca([-s for s in snaps], -fb)
        np.testing.assert_allclose(neg_coords, -coords, atol=1e-12, rtol=0)
        np.testing.assert_allclose(neg_fb_coord, -fb_coord, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("direction", [(1.0, 2.0), (-1.0, -2.0)])
    def test_first_axis_leads_positive(self, direction):
        # points on a line: the first axis is (1, 2) / sqrt(5) whichever
        # way the trajectory runs along it
        d = np.array(direction)
        t = np.array([-1.5, -0.5, 0.5, 1.5, 2.0])
        coords, fb_coord = weight_trajectory_pca([ti * d for ti in t[:-1]], t[-1] * d)
        expected = d[0] * (t - t.mean()) * np.sqrt(5.0)
        np.testing.assert_allclose(np.append(coords[:, 0], fb_coord[0]), expected,
                                   atol=1e-12, rtol=0)

    def test_axis_variances_match_covariance_eigensolver(self, rng):
        snaps = [rng.normal(size=4) for _ in range(14)]
        fb = rng.normal(size=4)
        coords, fb_coord = weight_trajectory_pca(snaps, fb, k=3)
        points = np.vstack(snaps + [fb])
        centered = points - points.mean(axis=0)
        cov = centered.T @ centered / (points.shape[0] - 1)
        jvals, _ = jacobi_eigh(cov)
        projected = np.vstack([coords, fb_coord])
        np.testing.assert_allclose(projected.var(axis=0, ddof=1), jvals[:3],
                                   atol=1e-10, rtol=0)


class TestEpisodeSplit:
    def test_disjoint_and_balanced(self):
        task = synthetic_blobs(300, 5, 3, seed=0)
        (episode,) = draw_episodes([task], MetaConfig(), seed=42)
        support, query = episode.support, episode.query
        assert support.n == 30 and query.n == 30
        assert support.name == query.name == task.name
        rows = {row.tobytes(): k for k, row in enumerate(task.images)}
        picked_s = [rows[row.tobytes()] for row in support.images]
        picked_q = [rows[row.tobytes()] for row in query.images]
        assert not set(picked_s) & set(picked_q)
        np.testing.assert_array_equal(support.labels, task.labels[picked_s])
        np.testing.assert_array_equal(query.labels, task.labels[picked_q])
        for c in range(3):
            assert (support.labels == c).sum() == 10
            assert (query.labels == c).sum() == 10
        assert not support.images.flags.writeable
        assert not query.labels.flags.writeable

    def test_insufficient_class_raises(self):
        labels = np.array([0] * 5 + [1] * 30 + [2] * 30)
        images = np.random.default_rng(42).uniform(0, 1, size=(65, 5))
        task = Dataset(images=images, labels=labels, class_count=3, name="t")
        with pytest.raises(ConfigError, match="task t: class 0 has 5 examples, "
                                              "needs 20"):
            draw_episodes([task], MetaConfig(), seed=0)

    def test_no_tasks_refused(self):
        with pytest.raises(ConfigError, match="nonempty"):
            draw_episodes([], MetaConfig())

    def test_each_lazy_task_is_freed_before_the_next_is_drawn(self):
        # the runner passes its tasks as they load; an episode copies its
        # rows, so no task outlives its draw
        refs = []

        def remembered(task):
            refs.append(weakref.ref(task))
            return task

        def tasks():
            for k in range(3):
                assert all(ref() is None for ref in refs)
                yield remembered(synthetic_blobs(200, 5, 3, seed=k))

        episodes = draw_episodes(tasks(), MetaConfig(shots_per_class=2,
                                                     query_per_class=3), seed=1)
        assert len(episodes) == 3 and len(refs) == 3
        assert all(ref() is None for ref in refs)


class TestMetaLoss:
    def _task(self, seed=0):
        return synthetic_blobs(400, 8, 3, seed=seed)

    def _loss(self, mlp, tasks, cfg, seed=0):
        return meta_loss(mlp, draw_episodes(tasks, cfg, seed=seed), cfg)

    def test_network_untouched(self):
        mlp = init_mlp((8, 6, 3), seed=0)
        before = ([w.copy() for w in mlp.weights],
                  [b.copy() for b in mlp.biases],
                  [f.copy() for f in mlp.feedback])
        self._loss(mlp, [self._task()], MetaConfig(inner_steps=3))
        for group, saved in zip((mlp.weights, mlp.biases, mlp.feedback), before):
            for arr, old in zip(group, saved):
                np.testing.assert_array_equal(arr, old)

    def test_total_is_sum_of_tasks(self):
        mlp = init_mlp((8, 6, 3), seed=0)
        total, per_task = self._loss(mlp, [self._task(0), self._task(1)],
                                     MetaConfig(inner_steps=2))
        assert len(per_task) == 2
        np.testing.assert_allclose(total, sum(per_task))

    def test_deterministic(self):
        mlp = init_mlp((8, 6, 3), seed=0)
        tasks, cfg = [self._task()], MetaConfig(inner_steps=3)
        assert self._loss(mlp, tasks, cfg, seed=9) == self._loss(mlp, tasks, cfg, seed=9)
        assert self._loss(mlp, tasks, cfg, seed=9) != self._loss(mlp, tasks, cfg, seed=10)
        episodes = draw_episodes(tasks, cfg, seed=9)
        assert meta_loss(mlp, episodes, cfg) == meta_loss(mlp, episodes, cfg)

    def test_adaptation_lowers_query_loss(self):
        # same episodes; only the inner loop differs
        mlp = init_mlp((8, 6, 3), seed=1)
        frozen = MetaConfig(inner_steps=1, inner_lr=1e-9)
        adapted = MetaConfig(inner_steps=40, inner_lr=0.05)
        episodes = draw_episodes([self._task()], seed=4)
        assert meta_loss(mlp, episodes, adapted)[0] < meta_loss(mlp, episodes, frozen)[0]

    def test_shape_mismatch_rejected(self):
        mlp = init_mlp((8, 6, 3), seed=0)
        with pytest.raises(ConfigError, match="task blobs shape"):
            self._loss(mlp, [synthetic_blobs(200, 9, 3, seed=0)], MetaConfig())
        with pytest.raises(ConfigError, match="task blobs shape"):
            self._loss(mlp, [synthetic_blobs(200, 8, 4, seed=0)], MetaConfig())

    @pytest.mark.parametrize("n_tasks", [1, 3])
    @pytest.mark.parametrize("blas_count", [1, 2])
    def test_equals_the_per_call_draw(self, blas_threads, n_tasks, blas_count):
        # drawing the episodes once gives the loss the per-call draw gave
        blas_threads[0](blas_count)
        tasks = [synthetic_blobs(600, 64, 10, seed=20 + k, spread=0.2)
                 for k in range(n_tasks)]
        cfg = MetaConfig(shots_per_class=5, query_per_class=7, inner_steps=3,
                         inner_lr=1e-2)
        for net_seed, seed in [(0, 0), (1, 5), (2, 2**62 + 3)]:
            mlp = init_mlp((64, 32, 10), seed=net_seed)
            expected = per_call_meta_loss_reference(mlp, tasks, cfg, seed)
            assert meta_loss(mlp, draw_episodes(tasks, cfg, seed=seed), cfg) == expected

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="nonempty"):
            meta_loss(init_mlp((8, 6, 3), seed=0), [])
        with pytest.raises(ConfigError):
            MetaConfig(shots_per_class=0)
        with pytest.raises(ConfigError):
            MetaConfig(inner_steps=0)
        with pytest.raises(ConfigError):
            MetaConfig(inner_lr=0.0)
