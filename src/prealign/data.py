"""Dataset ingestion, subsetting, and affine image transforms.

Loaders parse the distribution formats directly (big-endian IDX, libsvm
text), accept gzip-compressed files transparently, and normalize pixels to
[0, 1].  Every dataset holds its images in the precision networks train in
(:data:`~prealign.net.TRAIN_DTYPE`, float32): :class:`Dataset` rounds the
values it is given once, after checking them, so no caller chooses a
precision.  Transformed variants of a dataset, used for evaluation on
shifted inputs, are produced by per-image random affine resampling,
evaluated a block of images at a time.  No loader touches the network;
everything here is a pure function of file content.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, require_float
from .net import TRAIN_DTYPE

__all__ = [
    "Dataset",
    "TransformSpec",
    "load_idx",
    "load_usps_libsvm",
    "subset",
    "transform_affine",
    "synthetic_blobs",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable image classification data.

    ``images`` is ``(n, input_dim)`` with values in [0, 1]; ``labels`` is
    ``(n,)`` integer class indices below ``class_count``.  The values given
    are checked, then rounded once to :data:`~prealign.net.TRAIN_DTYPE`;
    a float32 array is held uncopied.
    """

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str

    def __post_init__(self) -> None:
        images = np.asarray(self.images)
        labels = np.asarray(self.labels)
        if images.ndim != 2 or images.shape[0] == 0:
            raise DataError(f"{self.name}: images must be nonempty 2-D")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise DataError(
                f"{self.name}: {images.shape[0]} images but "
                f"{labels.shape[0]} labels"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataError(f"{self.name}: labels must be integers")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise DataError(
                f"{self.name}: labels outside [0, {self.class_count})"
            )
        # written so that a NaN pixel, which compares false, is refused too
        if not (images.min() >= 0.0 and images.max() <= 1.0):
            raise DataError(f"{self.name}: pixel values outside [0, 1]")
        # rounding keeps [0, 1]: both ends are float32 values
        self._freeze(images.astype(TRAIN_DTYPE, copy=False), labels)

    def _freeze(self, images: np.ndarray, labels: np.ndarray) -> None:
        images.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _derived(cls, images: np.ndarray, labels: np.ndarray, class_count: int,
                 name: str) -> "Dataset":
        """A Dataset of arrays derived from a checked one: some of its rows,
        or a float32 resampling clipped to [0, 1].  Such values pass every
        check by construction, so the scans and the rounding of
        ``__post_init__`` are skipped; the arrays are still made read-only."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "class_count", class_count)
        object.__setattr__(ds, "name", name)
        ds._freeze(images, labels)
        return ds

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def input_dim(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True)
class TransformSpec:
    """Per-image random affine parameter ranges.

    ``translate_frac`` is a (low, high) range as a fraction of the image
    side, ``scale`` a multiplicative range, ``rotate_deg`` a degree range.
    Parameters are drawn i.i.d. uniform per image.
    """

    translate_frac: tuple[float, float] = (0.0, 0.0)
    scale: tuple[float, float] = (1.0, 1.0)
    rotate_deg: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        for label in ("translate_frac", "scale", "rotate_deg"):
            pair = tuple(getattr(self, label))
            for bound in pair:
                require_float(f"each bound of {label}", bound)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ConfigError(f"{label} must be an ordered (low, high) range, "
                                  f"got {pair}")
            object.__setattr__(self, label, pair)
        if self.scale[0] <= 0:
            raise ConfigError(f"scale bounds must be > 0, got {self.scale}")


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as f:
            head = f.read(2)
            f.seek(0)
            if head == b"\x1f\x8b":
                with gzip.open(f) as g:
                    return g.read()
            return f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _read_text_lines(path) -> list[str]:
    return _read_bytes(path).decode("ascii", errors="replace").splitlines()


def _stem(path) -> str:
    name = Path(path).name
    return name[:-3] if name.endswith(".gz") else name


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair (the MNIST family's
    distribution format): image magic 0x00000803 with (n, rows, cols), label
    magic 0x00000801 with (n), u8 pixels divided by 255 in float32.  For
    every u8, that quotient is the float64 one rounded to float32."""
    img_raw = _read_bytes(images_path)
    if len(img_raw) < 16:
        raise FormatError(f"{images_path}: truncated IDX header")
    magic, n, rows, cols = struct.unpack(">IIII", img_raw[:16])
    if magic != 0x00000803:
        raise FormatError(f"{images_path}: bad IDX image magic {magic:#010x}")
    if len(img_raw) != 16 + n * rows * cols:
        raise FormatError(f"{images_path}: size does not match header counts")
    lab_raw = _read_bytes(labels_path)
    if len(lab_raw) < 8:
        raise FormatError(f"{labels_path}: truncated IDX header")
    lab_magic, lab_n = struct.unpack(">II", lab_raw[:8])
    if lab_magic != 0x00000801:
        raise FormatError(f"{labels_path}: bad IDX label magic {lab_magic:#010x}")
    if len(lab_raw) != 8 + lab_n:
        raise FormatError(f"{labels_path}: size does not match header count")
    if n != lab_n:
        raise DataError(
            f"{images_path} holds {n} images but {labels_path} holds "
            f"{lab_n} labels"
        )
    images = np.frombuffer(img_raw, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lab_raw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(
        images=np.divide(images, 255.0, dtype=TRAIN_DTYPE),
        labels=labels,
        class_count=int(labels.max()) + 1 if n else 0,
        name=_stem(images_path),
    )


def _resize_bilinear(image: np.ndarray, out_side: int) -> np.ndarray:
    """Resize a square image by bilinear interpolation with half-pixel
    centers and edge clamping (a constant image stays exactly constant)."""
    in_side = image.shape[0]
    ratio = in_side / out_side
    coords = (np.arange(out_side) + 0.5) * ratio - 0.5
    lo = np.clip(np.floor(coords).astype(int), 0, in_side - 1)
    hi = np.clip(lo + 1, 0, in_side - 1)
    frac = np.clip(coords - lo, 0.0, 1.0)
    rows = image[lo][:, :] * (1 - frac)[:, None] + image[hi][:, :] * frac[:, None]
    out = rows[:, lo] * (1 - frac)[None, :] + rows[:, hi] * frac[None, :]
    return out


def load_usps_libsvm(path) -> Dataset:
    """Parse USPS in libsvm multiclass text form: lines of
    ``label index:value`` with labels 1-10, 1-based indices into a 16x16
    image, and values in [-1, 1].  Values are remapped to [0, 1] via
    (v + 1) / 2, label 10 becomes digit 0, and each image is resized to
    28x28 by bilinear interpolation (matching the MNIST input size)."""
    images, labels = [], []
    for lineno, line in enumerate(_read_text_lines(path), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = int(float(tokens[0]))
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: bad label {tokens[0]!r}") from e
        if not 1 <= label <= 10:
            raise FormatError(f"{path}: line {lineno}: label {label} outside 1-10")
        raw = np.zeros(256)
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError as e:
                raise FormatError(f"{path}: line {lineno}: bad feature {tok!r}") from e
            if not 1 <= idx <= 256:
                raise FormatError(
                    f"{path}: line {lineno}: index {idx} outside 1-256"
                )
            if not -1.0 <= val <= 1.0:
                raise FormatError(
                    f"{path}: line {lineno}: value {val} outside [-1, 1]"
                )
            raw[idx - 1] = val
        img = (raw.reshape(16, 16) + 1.0) / 2.0
        images.append(np.clip(_resize_bilinear(img, 28), 0.0, 1.0).ravel())
        labels.append(0 if label == 10 else label)
    if not images:
        raise FormatError(f"{path}: no samples found")
    return Dataset(
        images=np.array(images),
        labels=np.array(labels, dtype=np.int64),
        class_count=10,
        name="usps",
    )


def subset(ds: Dataset, n: int, seed: int) -> Dataset:
    """Seeded uniform sample of ``n`` rows without replacement; pixel data
    is carried over bit-exactly."""
    if not 1 <= n <= ds.n:
        raise ConfigError(f"subset size {n} outside [1, {ds.n}]")
    idx = np.random.default_rng(seed).permutation(ds.n)[:n]
    return Dataset._derived(ds.images[idx], ds.labels[idx], ds.class_count,
                            f"{ds.name}-sub{n}")


# images per block of transform_affine; bounds its temporaries, not its output
_AFFINE_BLOCK = 32


def transform_affine(ds: Dataset, spec: TransformSpec, *, seed: int) -> Dataset:
    """Random per-image affine resampling: each square image is translated,
    scaled, and rotated about its center by parameters drawn uniformly from
    the spec's ranges with generator ``seed``, using inverse-mapped bilinear
    interpolation with zero padding.  Labels are unchanged.

    Images are processed in blocks of ``_AFFINE_BLOCK``, with float64
    temporaries the size of one block, allocated once; each pixel's sum of
    its four taps is rounded once into the float32 output.  So the output is
    bitwise equal to evaluating the formula in float64 one image at a time,
    on the widened images, and rounding it once (the draws, the inverse map
    and the four bilinear taps keep that per-pixel operation order)."""
    side = math.isqrt(ds.input_dim)
    if side * side != ds.input_dim:
        raise ConfigError(f"input_dim {ds.input_dim} is not a square; images "
                          "must be square")
    rng = np.random.default_rng(seed)
    # columns tx, ty, scale, angle: the doubles that four scalar draws per
    # image would give, in the same order
    lows, highs = zip(spec.translate_frac, spec.translate_frac, spec.scale,
                      spec.rotate_deg)
    draws = rng.uniform(lows, highs, size=(ds.n, 4))
    tx, ty, scale = draws[:, 0] * side, draws[:, 1] * side, draws[:, 2]
    # every source coordinate lies within ``reach`` of the center; one
    # beyond float range would make a NaN pixel, which the final clip keeps
    with np.errstate(over="ignore"):
        reach = (np.abs(tx) + np.abs(ty) + side) / scale
    if not np.all(np.isfinite(reach)):
        raise ConfigError(f"{spec} maps pixels beyond float range")
    theta = np.deg2rad(draws[:, 3])
    cos_t, sin_t = np.cos(-theta), np.sin(-theta)
    center = (side - 1) / 2.0
    coords_c = np.arange(side, dtype=np.float64) - center
    # each image sits in a zero border two pixels wide: a top-left tap
    # clamped into [-2, side] on each axis moves every tap outside the image
    # onto a zero and no tap inside it; taps (0,0), (0,1), (1,0) and (1,1)
    # are read at the top-left tap's index
    padded_side = side + 4
    padded = np.zeros((_AFFINE_BLOCK, padded_side, padded_side))
    flat = padded.reshape(-1)
    taps = (flat, flat[1:], flat[padded_side:], flat[padded_side + 1:])
    origin = (np.arange(_AFFINE_BLOCK, dtype=np.float64)[:, None, None]
              * padded_side**2 + 2 * padded_side + 2)  # flat index of pixel (0, 0)
    # pairs of temporaries, x then y, and the weight and tap of one product
    coords, corners, one_minus, (weight, tap) = (
        np.empty((2, _AFFINE_BLOCK, side, side)) for _ in range(4))
    total = np.empty((_AFFINE_BLOCK, side, side))  # each pixel's sum of taps
    top_left = np.empty((_AFFINE_BLOCK, side, side), dtype=np.intp)
    images = ds.images.reshape(ds.n, side, side)
    out = np.empty_like(ds.images)
    out_images = out.reshape(ds.n, side, side)
    for lo in range(0, ds.n, _AFFINE_BLOCK):
        hi = min(lo + _AFFINE_BLOCK, ds.n)
        b, k = slice(lo, hi), hi - lo
        padded[:k, 2:-2, 2:-2] = images[b]
        # invert dst = R(theta) * s * (src - c) + c + t about the center;
        # ux depends only on a pixel's column and uy only on its row, so
        # their products are (block, side) terms broadcast over the other
        ux, uy = coords_c - tx[b, None], coords_c - ty[b, None]
        cos_b, sin_b = cos_t[b, None], sin_t[b, None]
        xy, x0y0 = coords[:, :k], corners[:, :k]
        np.subtract((cos_b * ux)[:, None, :], (sin_b * uy)[:, :, None], out=xy[0])
        np.add((sin_b * ux)[:, None, :], (cos_b * uy)[:, :, None], out=xy[1])
        np.divide(xy, scale[b, None, None], out=xy)
        np.add(xy, center, out=xy)
        np.floor(xy, out=x0y0)
        fx, fy = np.subtract(xy, x0y0, out=xy)
        x0, y0 = np.clip(x0y0, -2, side, out=x0y0)
        np.multiply(y0, padded_side, out=y0)
        np.add(y0, x0, out=y0)
        np.add(y0, origin[:k], out=top_left[:k], casting="unsafe")
        one_minus_fx, one_minus_fy = np.subtract(1, xy, out=one_minus[:, :k])
        acc = total[:k]
        acc.fill(0.0)  # a sum from +0.0, so a -0.0 first tap gives +0.0
        for view, wy, wx in zip(taps, (one_minus_fy, one_minus_fy, fy, fy),
                                (one_minus_fx, fx, one_minus_fx, fx)):
            w = np.multiply(wy, wx, out=weight[:k])
            w *= np.take(view, top_left[:k], mode="clip", out=tap[:k])
            acc += w
        out_images[b] = acc
    np.clip(out, 0.0, 1.0, out=out)
    return Dataset._derived(out, ds.labels.copy(), ds.class_count, f"{ds.name}-affine")


def synthetic_blobs(
    n: int, input_dim: int, class_count: int, seed: int, spread: float = 0.08
) -> Dataset:
    """Gaussian class blobs with pixels in [0, 1]; the data-free ``blobs``
    dataset of README's examples and the tests.  Class centers are drawn
    uniformly in [0.25, 0.75] per dimension; samples add N(0, spread^2)
    noise and clip."""
    if n < 1 or input_dim < 1 or class_count < 1:
        raise ConfigError(
            f"need positive sizes, got n={n}, input_dim={input_dim}, "
            f"class_count={class_count}"
        )
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.25, 0.75, size=(class_count, input_dim))
    labels = rng.integers(0, class_count, size=n)
    images = centers[labels] + rng.normal(0.0, spread, size=(n, input_dim))
    return Dataset(
        images=np.clip(images, 0.0, 1.0),
        labels=labels,
        class_count=class_count,
        name="blobs",
    )
