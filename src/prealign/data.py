"""Dataset ingestion, subsetting, and affine image transforms.

Loaders parse the distribution formats directly (big-endian IDX, CIFAR-10
binary records, libsvm text), accept gzip-compressed files
transparently, and normalize pixels to [0, 1].  Transformed variants of a
dataset, used for evaluation on shifted inputs, are produced by per-image
random affine resampling, evaluated a block of images at a time.  No loader
touches the network; everything here is a pure function of file content.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

__all__ = [
    "Dataset",
    "TransformSpec",
    "load_idx",
    "load_cifar",
    "load_usps_libsvm",
    "subset",
    "transform_affine",
    "synthetic_blobs",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable image classification data.

    ``images`` is ``(n, input_dim)`` float64 with values in [0, 1];
    ``labels`` is ``(n,)`` integer class indices below ``class_count``.
    """

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str

    def __post_init__(self) -> None:
        images = np.asarray(self.images, dtype=np.float64)
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
        if images.min() < 0.0 or images.max() > 1.0:
            raise DataError(f"{self.name}: pixel values outside [0, 1]")
        images.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

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
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ConfigError(f"{label} must be an ordered (low, high) range, "
                                  f"got {pair}")
            object.__setattr__(self, label, pair)


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
    magic 0x00000801 with (n), u8 pixels scaled by 1/255."""
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
        images=np.divide(images, 255.0, dtype=np.float64),
        labels=labels,
        class_count=int(labels.max()) + 1 if n else 0,
        name=_stem(images_path),
    )


def load_cifar(path) -> Dataset:
    """Parse a CIFAR-10 binary batch file: 3073-byte records, a label byte
    followed by 3072 pixels."""
    raw = _read_bytes(path)
    if len(raw) == 0 or len(raw) % 3073 != 0:
        raise FormatError(
            f"{path}: size {len(raw)} is not a positive multiple of "
            "3073-byte records"
        )
    recs = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3073)
    return Dataset(images=recs[:, 1:] / 255.0, labels=recs[:, 0].astype(np.int64),
                   class_count=10, name="cifar-c10")


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
    return Dataset(
        images=ds.images[idx],
        labels=ds.labels[idx],
        class_count=ds.class_count,
        name=f"{ds.name}-sub{n}",
    )


# images per block of transform_affine; bounds its temporaries, not its output
_AFFINE_BLOCK = 64


def transform_affine(ds: Dataset, spec: TransformSpec, *, seed: int) -> Dataset:
    """Random per-image affine resampling: each square image is translated,
    scaled, and rotated about its center by parameters drawn uniformly from
    the spec's ranges with generator ``seed``, using inverse-mapped bilinear
    interpolation with zero padding.  Labels are unchanged.

    Images are processed in blocks of ``_AFFINE_BLOCK``, with temporaries
    the size of one block; the output is bitwise equal to evaluating the
    formula one image at a time (the draws, the inverse map and the four
    bilinear taps keep that per-pixel operation order)."""
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
    tx = draws[:, 0] * side
    ty = draws[:, 1] * side
    scale = draws[:, 2]
    theta = np.deg2rad(draws[:, 3])
    cos_t, sin_t = np.cos(-theta), np.sin(-theta)
    center = (side - 1) / 2.0
    cols, rows = np.meshgrid(np.arange(side, dtype=np.float64),
                             np.arange(side, dtype=np.float64))
    cols_c = cols - center
    rows_c = rows - center
    # each image sits in a zero border one pixel wide, and tap coordinates
    # are clamped into that border, so a tap outside the image reads 0.0
    padded_side = side + 2
    padded = np.zeros((_AFFINE_BLOCK, padded_side, padded_side))
    images = ds.images.reshape(ds.n, side, side)
    out = np.empty_like(ds.images)
    out_images = out.reshape(ds.n, side, side)
    for lo in range(0, ds.n, _AFFINE_BLOCK):
        hi = min(lo + _AFFINE_BLOCK, ds.n)
        b = slice(lo, hi)
        block = padded[:hi - lo]
        block[:, 1:-1, 1:-1] = images[b]
        # invert dst = R(theta) * s * (src - c) + c + t about the center
        ux = cols_c - tx[b, None, None]
        uy = rows_c - ty[b, None, None]
        cos_b = cos_t[b, None, None]
        sin_b = sin_t[b, None, None]
        src_x = (cos_b * ux - sin_b * uy) / scale[b, None, None] + center
        src_y = (sin_b * ux + cos_b * uy) / scale[b, None, None] + center
        x0 = np.floor(src_x).astype(np.int64)
        y0 = np.floor(src_y).astype(np.int64)
        fx = src_x - x0
        fy = src_y - y0
        base = np.arange(hi - lo)[:, None, None] * (padded_side * padded_side)
        row_taps = [base + np.clip(y0 + dy + 1, 0, side + 1) * padded_side
                    for dy in (0, 1)]
        col_taps = [np.clip(x0 + dx + 1, 0, side + 1) for dx in (0, 1)]
        flat = block.reshape(-1)
        acc = out_images[b]
        acc.fill(0.0)  # a sum from +0.0, so a -0.0 first tap gives +0.0
        for row, wy in zip(row_taps, (1 - fy, fy)):
            for col, wx in zip(col_taps, (1 - fx, fx)):
                acc += wy * wx * flat[row + col]
    np.clip(out, 0.0, 1.0, out=out)
    return Dataset(
        images=out,
        labels=ds.labels.copy(),
        class_count=ds.class_count,
        name=f"{ds.name}-affine",
    )


def synthetic_blobs(
    n: int, input_dim: int, class_count: int, seed: int, spread: float = 0.08
) -> Dataset:
    """Gaussian class blobs with pixels in [0, 1]; a data-free stand-in for
    demos and smoke runs.  Class centers are drawn uniformly in
    [0.25, 0.75] per dimension; samples add N(0, spread^2) noise and clip."""
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
