import numpy as np

import gen
from prealign.data import load_idx


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    rows = gen.generate(tmp_path / "a", 5)
    gen.generate(tmp_path / "b", 5)
    gen.generate(tmp_path / "c", 6)
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert len(a) == 4 * len(gen.NAMES)
    assert a == b
    assert a.keys() == c.keys() and all(a[k] != c[k] for k in a)
    assert rows == {f"{n}/{s}": r for n in gen.NAMES
                    for s, r in (("train", gen.TRAIN_ROWS), ("t10k", gen.TEST_ROWS))}


def test_only_requested_datasets_are_written(tmp_path):
    gen.generate(tmp_path, 0, ("kmnist",))
    assert [p.name for p in tmp_path.iterdir()] == ["kmnist"]


def test_files_parse_as_mnist_layout_with_every_class(tmp_path):
    gen.generate(tmp_path, 1, ("mnist",))
    root = tmp_path / "mnist"
    test = load_idx(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    assert test.images.shape == (gen.TEST_ROWS, 784)
    assert test.class_count == 10
    assert set(np.unique(test.labels)) == set(range(10))
    # classes differ on average but are not separable pixel by pixel
    means = np.stack([test.images[test.labels == c].mean(axis=0) for c in range(10)])
    assert np.abs(means[0] - means[1]).max() > 0.2
    assert test.images.std() > 0.1
