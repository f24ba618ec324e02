"""Tests for dataset parsing, subsetting, and affine transforms."""

import dataclasses
import gzip
import struct

import numpy as np
import pytest

from prealign.data import (
    _AFFINE_BLOCK,
    Dataset,
    TransformSpec,
    load_idx,
    load_usps_libsvm,
    subset,
    synthetic_blobs,
    transform_affine,
)
from prealign.errors import ConfigError, DataError, FormatError

from oracles import affine_transform_reference


def idx_image_bytes(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def idx_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, labels.size) + labels.tobytes()


def write(path, payload):
    path.write_bytes(payload)
    return path


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        imgs = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
        ip = write(tmp_path / "imgs", idx_image_bytes(imgs))
        lp = write(tmp_path / "labs", idx_label_bytes([2, 0, 1]))
        ds = load_idx(ip, lp)
        assert ds.n == 3 and ds.input_dim == 4
        np.testing.assert_allclose(ds.images, imgs.reshape(3, 4) / 255.0)
        np.testing.assert_array_equal(ds.labels, [2, 0, 1])
        assert ds.class_count == 3
        assert ds.name == "imgs"

    def test_gzip_transparent(self, tmp_path):
        imgs = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        ip = write(tmp_path / "imgs.gz", gzip.compress(idx_image_bytes(imgs)))
        lp = write(tmp_path / "labs.gz", gzip.compress(idx_label_bytes([0, 1])))
        ds = load_idx(ip, lp)
        np.testing.assert_allclose(ds.images, imgs.reshape(2, 4) / 255.0)
        assert ds.name == "imgs"

    def test_bad_image_magic(self, tmp_path):
        ip = write(tmp_path / "i", b"\x00\x00\x08\x04" + b"\x00" * 12)
        lp = write(tmp_path / "l", idx_label_bytes([0]))
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip = write(tmp_path / "i", idx_image_bytes(np.zeros((1, 1, 1))))
        lp = write(tmp_path / "l", struct.pack(">II", 0x00000802, 1) + b"\x00")
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip = write(tmp_path / "i", b"\x00\x00\x08")
        lp = write(tmp_path / "l", idx_label_bytes([0]))
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_payload_size_mismatch(self, tmp_path):
        payload = idx_image_bytes(np.zeros((2, 2, 2))) + b"\x00"
        ip = write(tmp_path / "i", payload)
        lp = write(tmp_path / "l", idx_label_bytes([0, 1]))
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_truncated_label_header(self, tmp_path):
        ip = write(tmp_path / "i", idx_image_bytes(np.zeros((1, 1, 1))))
        lp = write(tmp_path / "l", b"\x00\x00\x08\x01\x00")
        with pytest.raises(FormatError, match="l: truncated IDX header"):
            load_idx(ip, lp)

    def test_label_payload_size_mismatch(self, tmp_path):
        ip = write(tmp_path / "i", idx_image_bytes(np.zeros((2, 1, 1))))
        lp = write(tmp_path / "l", idx_label_bytes([0, 1]) + b"\x00")
        with pytest.raises(FormatError, match="does not match header count$"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip = write(tmp_path / "i", idx_image_bytes(np.zeros((2, 2, 2))))
        lp = write(tmp_path / "l", idx_label_bytes([0]))
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_count_mismatch_in_float32(self, tmp_path):
        ip = write(tmp_path / "i", idx_image_bytes(np.zeros((2, 2, 2))))
        lp = write(tmp_path / "l", idx_label_bytes([0]))
        with pytest.raises(DataError, match="holds 2 images but"):
            load_idx(ip, lp)

    def test_float32_parse_is_the_rounded_float64_parse(self, tmp_path):
        # every pixel code, so that each u8 / 255 quotient is checked
        imgs = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        ip = write(tmp_path / "imgs", idx_image_bytes(imgs))
        lp = write(tmp_path / "labs", idx_label_bytes([0, 1, 2, 3]))
        ds = load_idx(ip, lp)
        assert ds.images.dtype == np.float32
        assert ds.images.tobytes() == (
            (imgs.reshape(4, 64) / 255.0).astype(np.float32).tobytes())
        np.testing.assert_array_equal(ds.labels, [0, 1, 2, 3])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_idx(tmp_path / "absent", tmp_path / "also-absent")


class TestLoadUsps:
    def test_parsing_and_remap(self, tmp_path):
        lines = "\n".join([
            "10 1:1",
            "3",
            "7 256:-1 1:0.5",
        ])
        p = write(tmp_path / "usps", lines.encode())
        ds = load_usps_libsvm(p)
        assert ds.n == 3 and ds.input_dim == 784
        np.testing.assert_array_equal(ds.labels, [0, 3, 7])
        assert ds.class_count == 10
        # absent features read as raw 0, which remaps to 0.5
        np.testing.assert_allclose(ds.images[1], 0.5)
        # half-pixel edge-clamped resize keeps the exact corner value
        assert ds.images[0].reshape(28, 28)[0, 0] == 1.0
        np.testing.assert_allclose(
            ds.images[2].reshape(28, 28)[0, 0], (0.5 + 1) / 2
        )

    def test_gzip_text(self, tmp_path):
        p = write(tmp_path / "usps.gz", gzip.compress(b"2 1:0\n"))
        ds = load_usps_libsvm(p)
        assert ds.labels[0] == 2

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "usps", b"\n1 1:1\n\n\n2 2:0\n")
        ds = load_usps_libsvm(p)
        assert ds.n == 2

    def test_values_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(42)
        vals = rng.uniform(-1, 1, size=256)
        line = "5 " + " ".join(f"{i + 1}:{v:.6f}" for i, v in enumerate(vals))
        p = write(tmp_path / "usps", line.encode())
        ds = load_usps_libsvm(p)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_error_line_numbers(self, tmp_path):
        p = write(tmp_path / "usps", b"1 1:1\n11 1:1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_usps_libsvm(p)

    def test_bad_label_token(self, tmp_path):
        p = write(tmp_path / "usps", b"x 1:1\n")
        with pytest.raises(FormatError):
            load_usps_libsvm(p)

    def test_bad_feature_token(self, tmp_path):
        p = write(tmp_path / "usps", b"1 1:one\n")
        with pytest.raises(FormatError):
            load_usps_libsvm(p)

    def test_index_out_of_range(self, tmp_path):
        with pytest.raises(FormatError):
            load_usps_libsvm(write(tmp_path / "a", b"1 0:1\n"))
        with pytest.raises(FormatError):
            load_usps_libsvm(write(tmp_path / "b", b"1 257:1\n"))

    def test_value_out_of_range(self, tmp_path):
        p = write(tmp_path / "usps", b"1 1:1.5\n")
        with pytest.raises(FormatError):
            load_usps_libsvm(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "usps", b"\n\n")
        with pytest.raises(FormatError):
            load_usps_libsvm(p)


class TestSubset:
    def _ds(self, n=20):
        images = np.tile(np.linspace(0, 1, n)[:, None], (1, 4))
        labels = np.arange(n) % 3
        return Dataset(images=images, labels=labels, class_count=3, name="toy")

    def test_rows_carried_bit_exactly(self):
        ds = self._ds()
        sub = subset(ds, 7, seed=5)
        idx = np.random.default_rng(5).permutation(20)[:7]
        np.testing.assert_array_equal(sub.images, ds.images[idx])
        np.testing.assert_array_equal(sub.labels, ds.labels[idx])

    def test_deterministic(self):
        ds = self._ds()
        a = subset(ds, 10, seed=3)
        b = subset(ds, 10, seed=3)
        np.testing.assert_array_equal(a.images, b.images)

    def test_seed_changes_selection(self):
        ds = self._ds()
        a = subset(ds, 10, seed=1)
        b = subset(ds, 10, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_full_size_is_permutation(self):
        ds = self._ds(8)
        sub = subset(ds, 8, seed=0)
        np.testing.assert_allclose(
            np.sort(sub.images[:, 0]), np.sort(ds.images[:, 0])
        )

    def test_metadata(self):
        sub = subset(self._ds(), 5, seed=0)
        assert sub.class_count == 3
        assert sub.name == "toy-sub5"

    def test_size_bounds(self):
        ds = self._ds()
        with pytest.raises(ConfigError):
            subset(ds, 0, seed=0)
        with pytest.raises(ConfigError):
            subset(ds, 21, seed=0)


def grid_dataset(side=4):
    img = np.arange(side * side, dtype=np.float64) / (side * side)
    return Dataset(images=img[None, :], labels=np.array([0]), class_count=1,
                   name="grid")


def bump_dataset(side=16):
    r = np.arange(side) - (side - 1) / 2
    d2 = r[:, None] ** 2 + r[None, :] ** 2
    img = np.exp(-d2 / 8.0)
    return Dataset(images=img.ravel()[None, :], labels=np.array([0]),
                   class_count=1, name="bump")


class TestTransformAffine:
    def test_identity(self):
        ds = grid_dataset()
        out = transform_affine(ds, TransformSpec(), seed=0)
        np.testing.assert_allclose(out.images, ds.images, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.name == "grid-affine"

    def test_quarter_turn_is_a_permutation(self):
        ds = grid_dataset()
        spec = TransformSpec(rotate_deg=(90.0, 90.0))
        out = transform_affine(ds, spec, seed=0).images[0].reshape(4, 4)
        src = ds.images[0].reshape(4, 4)
        expected = np.empty((4, 4))
        for r in range(4):
            for c in range(4):
                expected[r, c] = src[3 - c, r]
        np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)

    def test_integer_translation_zero_pads(self):
        # a quarter-side shift on a 4x4 image is exactly one pixel
        ds = grid_dataset()
        spec = TransformSpec(translate_frac=(0.25, 0.25))
        out = transform_affine(ds, spec, seed=0).images[0].reshape(4, 4)
        src = ds.images[0].reshape(4, 4)
        np.testing.assert_allclose(out[0, :], 0.0, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out[1:, 1:], src[:-1, :-1], atol=1e-12, rtol=0)

    def test_upscale_keeps_constant_interior(self):
        ones = Dataset(images=np.ones((1, 16)), labels=np.array([0]),
                       class_count=1, name="ones")
        out = transform_affine(ones, TransformSpec(scale=(2.0, 2.0)), seed=0)
        np.testing.assert_allclose(out.images, 1.0)

    def test_downscale_pads_corners_with_zero(self):
        ones = Dataset(images=np.ones((1, 64)), labels=np.array([0]),
                       class_count=1, name="ones")
        out = transform_affine(ones, TransformSpec(scale=(0.5, 0.5)), seed=0)
        grid = out.images[0].reshape(8, 8)
        assert grid[0, 0] == 0.0
        assert grid[3, 3] == 1.0

    def test_rotation_scale_round_trip(self):
        ds = bump_dataset()
        fwd = transform_affine(
            ds, TransformSpec(rotate_deg=(30.0, 30.0), scale=(1.25, 1.25)), seed=0
        )
        back = transform_affine(
            fwd, TransformSpec(rotate_deg=(-30.0, -30.0), scale=(0.8, 0.8)), seed=0
        )
        err = np.abs(back.images - ds.images).mean()
        assert err < 0.05

    def test_translation_round_trip(self):
        ds = bump_dataset()
        fwd = transform_affine(ds, TransformSpec(translate_frac=(0.125, 0.125)), seed=0)
        back = transform_affine(fwd, TransformSpec(translate_frac=(-0.125, -0.125)),
                                seed=0)
        err = np.abs(back.images - ds.images).mean()
        assert err < 0.05

    def test_outputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(42)
        images = rng.uniform(0, 1, size=(5, 64))
        ds = Dataset(images=images, labels=np.zeros(5, dtype=np.int64),
                     class_count=1, name="r")
        spec = TransformSpec(translate_frac=(-0.1, 0.1), scale=(0.8, 1.2),
                             rotate_deg=(-25.0, 25.0))
        out = transform_affine(ds, spec, seed=9)
        assert out.images.min() >= 0.0 and out.images.max() <= 1.0

    def test_seed_determinism_and_variation(self):
        ds = bump_dataset()
        spec = TransformSpec(rotate_deg=(-25.0, 25.0))
        a = transform_affine(ds, spec, seed=4)
        b = transform_affine(ds, spec, seed=4)
        np.testing.assert_array_equal(a.images, b.images)
        other = transform_affine(ds, spec, seed=5)
        assert not np.array_equal(a.images, other.images)

    @pytest.mark.parametrize("n", [1, _AFFINE_BLOCK - 1, _AFFINE_BLOCK,
                                   _AFFINE_BLOCK + 1, 2 * _AFFINE_BLOCK - 1,
                                   2 * _AFFINE_BLOCK, 2 * _AFFINE_BLOCK + 1,
                                   4 * _AFFINE_BLOCK + 1])
    @pytest.mark.parametrize("spec, seed", [
        (TransformSpec(), 0),
        # fig5b's evaluation transform
        (TransformSpec(translate_frac=(-0.05, 0.05), scale=(0.8, 1.2),
                       rotate_deg=(-25.0, 25.0)), 3),
        # maps many coordinates far outside the image
        (TransformSpec(translate_frac=(-0.3, 0.3), scale=(0.3, 2.0),
                       rotate_deg=(-180.0, 180.0)), 8),
        # from n = 31 on, the draws put taps past the zero border on every side
        (TransformSpec(translate_frac=(-0.6, 0.6), scale=(0.3, 3.0),
                       rotate_deg=(-180.0, 180.0)), 11),
    ], ids=["identity", "fig5b", "wide", "past_border"])
    def test_bitwise_equal_to_per_image_reference(self, n, spec, seed):
        rng = np.random.default_rng(n)
        images = rng.integers(0, 256, size=(n, 784)) / 255.0
        ds = Dataset(images=images, labels=np.zeros(n, dtype=np.int64),
                     class_count=1, name="r")
        out = transform_affine(ds, spec, seed=seed)
        expected = affine_transform_reference(
            ds.images.astype(np.float64), 28, spec.translate_frac, spec.scale,
            spec.rotate_deg, seed,
        )
        assert out.images.tobytes() == expected.astype(np.float32).tobytes()

    def test_float32_images_sum_in_float64_and_round_once(self):
        # fig5b's transform on float32 pixels: a sum of taps rounded to
        # float32 after each tap differs from the once-rounded formula
        n = 200
        images = np.random.default_rng(2).random((n, 784), dtype=np.float32)
        ds = Dataset(images=images, labels=np.zeros(n, dtype=np.int64),
                     class_count=1, name="r")
        spec = TransformSpec(translate_frac=(-0.05, 0.05), scale=(0.8, 1.2),
                             rotate_deg=(-25.0, 25.0))
        out = transform_affine(ds, spec, seed=3)
        expected = affine_transform_reference(
            images.astype(np.float64), 28, spec.translate_frac, spec.scale,
            spec.rotate_deg, 3,
        )
        assert out.images.dtype == np.float32
        assert out.images.tobytes() == expected.astype(np.float32).tobytes()

    @pytest.mark.parametrize("spec", [
        TransformSpec(),
        TransformSpec(translate_frac=(-0.05, 0.05), scale=(0.8, 1.2),
                      rotate_deg=(-25.0, 25.0)),
    ], ids=["identity", "fig5b"])
    def test_negative_zero_pixels_sum_from_positive_zero(self, spec):
        # an all -0.0 image gives -0.0 taps only: a sum begun at +0.0 reads
        # +0.0, one begun at the first tap -0.0, which the clip keeps
        n = _AFFINE_BLOCK + 3
        rng = np.random.default_rng(12)
        images = rng.integers(0, 256, size=(n, 784)) / 255.0
        images[rng.random((n, 784)) < 0.5] = -0.0
        images[::4] = -0.0
        ds = Dataset(images=images, labels=np.zeros(n, dtype=np.int64),
                     class_count=1, name="r")
        out = transform_affine(ds, spec, seed=6)
        expected = affine_transform_reference(
            ds.images.astype(np.float64), 28, spec.translate_frac, spec.scale,
            spec.rotate_deg, 6,
        )
        assert out.images.tobytes() == expected.astype(np.float32).tobytes()
        assert not np.signbit(out.images).any()

    def test_non_square_rejected(self):
        ds = Dataset(images=np.ones((1, 12)), labels=np.array([0]),
                     class_count=1, name="x")
        with pytest.raises(ConfigError):
            transform_affine(ds, TransformSpec(), seed=0)

    def test_coordinates_beyond_float_range_refused(self):
        # they would make NaN pixels, which the clip to [0, 1] keeps
        ds = grid_dataset()
        for spec in (TransformSpec(scale=(1e-310, 1e-310)),
                     TransformSpec(translate_frac=(1e306, 1e306), scale=(1e-10, 1e-10),
                                   rotate_deg=(45.0, 45.0))):
            with pytest.raises(ConfigError, match="beyond float range"):
                transform_affine(ds, spec, seed=0)

    def test_spec_range_validation(self):
        with pytest.raises(ConfigError):
            TransformSpec(scale=(1.2, 0.8))
        # a zero scale would divide by zero in the inverse map
        for bounds in ((0.0, 0.0), (0.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(ConfigError, match="scale bounds must be > 0"):
                TransformSpec(scale=bounds)


class TestDatasetInvariants:
    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError):
            Dataset(images=np.ones(4), labels=np.array([0]), class_count=1,
                    name="x")
        with pytest.raises(DataError):
            Dataset(images=np.ones((0, 4)), labels=np.array([], dtype=int),
                    class_count=1, name="x")

    def test_rejects_label_problems(self):
        with pytest.raises(DataError):
            Dataset(images=np.ones((2, 3)), labels=np.array([0]), class_count=1,
                    name="x")
        with pytest.raises(DataError):
            Dataset(images=np.ones((2, 3)), labels=np.array([0.0, 1.0]),
                    class_count=2, name="x")
        with pytest.raises(DataError):
            Dataset(images=np.ones((2, 3)), labels=np.array([0, 2]),
                    class_count=2, name="x")

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(DataError):
            Dataset(images=np.full((1, 3), 1.5), labels=np.array([0]),
                    class_count=1, name="x")
        with pytest.raises(DataError):
            Dataset(images=np.full((1, 3), -0.1), labels=np.array([0]),
                    class_count=1, name="x")
        # checked as given: its float32 rounding would be 1.0
        with pytest.raises(DataError):
            Dataset(images=np.full((1, 3), 1 + 1e-12), labels=np.array([0]),
                    class_count=1, name="x")
        for dtype in (np.float64, np.float32):
            with pytest.raises(DataError):
                Dataset(images=np.array([[np.nan, 0.5]], dtype=dtype),
                        labels=np.array([0]), class_count=1, name="x")

    def test_images_are_held_in_float32(self):
        # float64 values are rounded once; a float32 array is held uncopied
        wide = np.random.default_rng(3).random((4, 6))
        ds = Dataset(images=wide, labels=np.zeros(4, dtype=np.int64),
                     class_count=1, name="x")
        assert ds.images.dtype == np.float32
        assert ds.images.tobytes() == wide.astype(np.float32).tobytes()
        narrow = wide.astype(np.float32)
        assert Dataset(images=narrow, labels=np.zeros(4, dtype=np.int64),
                       class_count=1, name="x").images is narrow

    def test_derivations_of_a_checked_split_skip_the_scans(self, monkeypatch):
        # rows and a clipped resampling of a checked split pass every check
        # by construction, so none rescans it
        from prealign.metrics import MetaConfig, draw_episodes

        ds = synthetic_blobs(64, 16, 2, seed=0)

        def refuse(self):
            raise AssertionError(f"{self.name} was scanned")

        monkeypatch.setattr(Dataset, "__post_init__", refuse)
        (episode,) = draw_episodes([ds], MetaConfig(shots_per_class=3,
                                                    query_per_class=4), seed=3)
        derived = [subset(ds, 20, seed=1),
                   transform_affine(ds, TransformSpec(rotate_deg=(-30.0, 30.0)), seed=2),
                   episode.support, episode.query]
        monkeypatch.undo()
        for out in derived:
            assert not out.images.flags.writeable and not out.labels.flags.writeable
            assert out == Dataset(out.images, out.labels, out.class_count, out.name)

    def test_arrays_read_only(self):
        ds = synthetic_blobs(10, 4, 2, seed=0)
        with pytest.raises(ValueError):
            ds.images[0, 0] = 0.5
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_frozen(self):
        ds = synthetic_blobs(10, 4, 2, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.name = "other"


class TestSyntheticBlobs:
    def test_shape_and_range(self):
        ds = synthetic_blobs(50, 8, 3, seed=1)
        assert ds.images.shape == (50, 8)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.class_count == 3
        assert set(np.unique(ds.labels)) <= {0, 1, 2}

    def test_deterministic(self):
        a = synthetic_blobs(30, 5, 2, seed=7)
        b = synthetic_blobs(30, 5, 2, seed=7)
        np.testing.assert_array_equal(a.images, b.images)

    def test_classes_have_distinct_centers(self):
        ds = synthetic_blobs(400, 6, 2, seed=3)
        c0 = ds.images[ds.labels == 0].mean(axis=0)
        c1 = ds.images[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(c0 - c1) > 0.1

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            synthetic_blobs(0, 4, 2, seed=0)
        with pytest.raises(ConfigError):
            synthetic_blobs(4, 0, 2, seed=0)
        with pytest.raises(ConfigError):
            synthetic_blobs(4, 4, 0, seed=0)
