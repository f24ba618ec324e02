"""Seeded MNIST-layout IDX files for the benchmark's dataset workloads.

Each dataset name gets ten smooth 28x28 class prototypes (sums of Gaussian
bumps).  An image is its class prototype blended with a randomly chosen
other prototype, plus pixel noise, quantized to uint8.  The blending gives
the classes enough overlap that a short training run lands well between
chance and perfect accuracy.  Files follow the MNIST distribution layout
(``<data_dir>/<name>/train-images-idx3-ubyte`` and friends), so the program
reads them through its own IDX loader.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

NAMES = ("mnist", "fashion-mnist", "kmnist")
SIDE = 28
CLASSES = 10
TRAIN_ROWS = 10_000
TEST_ROWS = 6_000
OVERLAP = 0.3  # largest share of a second class blended into an image
PIXEL_NOISE = 0.15
_CHUNK = 2_000
_SPLITS = (("train", TRAIN_ROWS), ("t10k", TEST_ROWS))


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    protos = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        for _ in range(5):
            cy, cx = rng.uniform(6.0, SIDE - 6.0, size=2)
            width = rng.uniform(1.5, 4.0)
            protos[c] += rng.uniform(0.5, 1.0) * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2)
            )
        protos[c] /= protos[c].max()
    return protos.reshape(CLASSES, SIDE * SIDE)


def _split(rng: np.random.Generator, protos: np.ndarray, n: int):
    labels = rng.integers(0, CLASSES, size=n).astype(np.uint8)
    images = np.empty((n, SIDE * SIDE), dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        other = rng.integers(0, CLASSES, size=hi - lo)
        mix = rng.uniform(0.0, OVERLAP, size=(hi - lo, 1))
        x = (1.0 - mix) * protos[labels[lo:hi]] + mix * protos[other]
        x += rng.normal(0.0, PIXEL_NOISE, size=x.shape)
        images[lo:hi] = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
    return images, labels


def _write_idx(root: Path, split: str, images: np.ndarray, labels: np.ndarray) -> None:
    n = images.shape[0]
    with open(root / f"{split}-images-idx3-ubyte", "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, SIDE, SIDE))
        f.write(images.tobytes())
    with open(root / f"{split}-labels-idx1-ubyte", "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())


def generate(data_dir, seed: int, names=NAMES) -> dict[str, int]:
    """Write the train and test splits of each named dataset under
    ``data_dir``; the same ``seed`` writes the same bytes.  Returns the row
    count of every written split, keyed ``<name>/<split>``."""
    rows = {}
    # seeding by the position in NAMES keeps a dataset's bytes independent
    # of which other datasets are written alongside it
    for index, name in enumerate(NAMES):
        if name not in names:
            continue
        root = Path(data_dir) / name
        root.mkdir(parents=True, exist_ok=True)
        protos = _prototypes(np.random.default_rng([seed, index, 0]))
        for s, (split, n) in enumerate(_SPLITS, start=1):
            images, labels = _split(np.random.default_rng([seed, index, s]), protos, n)
            _write_idx(root, split, images, labels)
            rows[f"{name}/{split}"] = n
    return rows
