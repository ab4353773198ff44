import ast
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from weightgen import dataio, training
from weightgen.errors import (
    ConfigError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    NonFiniteError,
)


def _write_pair(tmp_path, images, labels, name="d"):
    """Write a uint8 image stack and labels as an IDX pair, return paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = os.path.join(tmp_path, f"{name}-images")
    lbl_path = os.path.join(tmp_path, f"{name}-labels")
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 2051, n, rows, cols))
        fh.write(images.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">ii", 2049, n))
        fh.write(labels.tobytes())
    return img_path, lbl_path


def test_single_zero_image(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 28, 28)), [3])
    ds = dataio.load_idx(img, lbl)
    assert ds.images.shape == (1, 1, 28, 28)
    assert np.all(ds.images == 0.0)
    assert ds.labels.tolist() == [3]


def test_pixel_scaling_is_exact(tmp_path):
    images = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    img, lbl = _write_pair(tmp_path, images, [0])
    ds = dataio.load_idx(img, lbl)
    assert ds.images.dtype == np.float32
    assert ds.images.max() == 1.0
    want = images.reshape(1, 1, 16, 16).astype(np.float32) / np.float32(255)
    assert np.array_equal(ds.images, want) and ds.images.tobytes() == want.tobytes()
    assert np.array_equal(np.rint(ds.images * 255), images.reshape(1, 1, 16, 16))


def test_little_endian_magic_rejected(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 4, 4)), [0])
    data = bytearray(open(img, "rb").read())
    data[0:4] = struct.pack("<i", 2051)
    open(img, "wb").write(bytes(data))
    with pytest.raises(IdxMagicError):
        dataio.load_idx(img, lbl)


def test_wrong_magic_variants(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((8, 4, 4)), np.arange(8) % 10)
    # swapping the two files swaps the magics
    with pytest.raises(IdxMagicError):
        dataio.load_idx(lbl, img)


def test_truncated_payload(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((2, 4, 4)), [0, 1])
    data = open(img, "rb").read()
    open(img, "wb").write(data[:-5])
    with pytest.raises(IdxTruncatedError):
        dataio.load_idx(img, lbl)


def test_oversized_count_fails_before_reading(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 4, 4)), [0])
    with open(img, "r+b") as fh:
        fh.write(struct.pack(">ii", 2051, 2**30))  # claims 16 GiB of pixels
    tracemalloc.start()
    try:
        with pytest.raises(IdxTruncatedError, match=str(16 * 2**30)):
            dataio.load_idx(img, lbl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_truncated_header(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 4, 4)), [0])
    open(img, "wb").write(b"\x00\x00\x08\x03")
    with pytest.raises(IdxTruncatedError):
        dataio.load_idx(img, lbl)


def test_nonsensical_header_dimensions_rejected(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 4, 4)), [0])
    good_img, good_lbl = open(img, "rb").read(), open(lbl, "rb").read()
    open(lbl, "wb").write(struct.pack(">ii", 2049, -1) + good_lbl[8:])
    with pytest.raises(IdxTruncatedError, match=re.escape(lbl)):
        dataio.load_idx(img, lbl)
    open(lbl, "wb").write(good_lbl)
    open(img, "wb").write(struct.pack(">iiii", 2051, 1, 0, 4) + good_img[16:])
    with pytest.raises(IdxTruncatedError, match=re.escape(img)):
        dataio.load_idx(img, lbl)


def test_trailing_bytes_rejected(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 4, 4)), [0])
    with open(img, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(IdxTruncatedError):
        dataio.load_idx(img, lbl)


def test_count_mismatch_between_files(tmp_path):
    img, _ = _write_pair(tmp_path, np.zeros((3, 4, 4)), [0, 1, 2], name="a")
    _, lbl = _write_pair(tmp_path, np.zeros((2, 4, 4)), [0, 1], name="b")
    with pytest.raises(IdxCountMismatchError):
        dataio.load_idx(img, lbl)


def test_label_range_validated(tmp_path):
    img, lbl = _write_pair(tmp_path, np.zeros((1, 4, 4)), [11])
    with pytest.raises(ConfigError):
        dataio.load_idx(img, lbl)


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (5, 9, 9)).astype(np.uint8)
    labels = rng.integers(0, 10, 5).astype(np.uint8)
    img, lbl = _write_pair(tmp_path, images, labels)
    ds = dataio.load_idx(img, lbl, split="train")
    img2 = os.path.join(tmp_path, "copy-images")
    lbl2 = os.path.join(tmp_path, "copy-labels")
    dataio.save_idx(ds, img2, lbl2)
    assert open(img2, "rb").read() == open(img, "rb").read()
    assert open(lbl2, "rb").read() == open(lbl, "rb").read()
    ds2 = dataio.load_idx(img2, lbl2, split="train")
    assert np.array_equal(ds.images, ds2.images)
    assert np.array_equal(ds.labels, ds2.labels)
    assert ds2.split == "train"


class _Interrupted(BaseException):
    pass


def test_interrupted_save_leaves_no_file(tmp_path, monkeypatch):
    ds = _toy_dataset(3)
    img = os.path.join(tmp_path, "images")
    lbl = os.path.join(tmp_path, "labels")

    def interrupt(src, dst):
        raise _Interrupted()

    monkeypatch.setattr(dataio.os, "replace", interrupt)
    with pytest.raises(_Interrupted):
        dataio.save_idx(ds, img, lbl)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("pixel,error,match", [
    (float("nan"), NonFiniteError, "non-finite pixels"),
    (float("inf"), NonFiniteError, "non-finite pixels"),
    (1.5, ConfigError, r"pixels must lie in \[0, 1\], got range \[0.0, 1.5\]"),
    (-0.2, ConfigError, r"pixels must lie in \[0, 1\], got range \[-0.2, 1.0\]"),
], ids=["nan", "inf", "above_1", "below_0"])
def test_save_idx_rejects_pixels_it_cannot_write(tmp_path, pixel, error, match):
    images = np.zeros((2, 1, 3, 3))
    images[0, 0, 0, 0] = 1.0  # both ends of the range are writable
    images[1, 0, 2, 1] = pixel
    ds = dataio.LabeledDataset(images=images, labels=np.array([1, 2]))
    img, lbl = os.path.join(tmp_path, "images"), os.path.join(tmp_path, "labels")
    with pytest.raises(error, match=match):
        dataio.save_idx(ds, img, lbl)
    assert os.listdir(tmp_path) == []


def test_write_csv_bytes(tmp_path):
    path = os.path.join(tmp_path, "t.csv")
    dataio.write_csv(path, ("a", "b", "c"),
                     [(1, 0.1 + 0.2, np.float64(2.0)), (np.int64(-3), 1e-05, True)])
    with open(path, "rb") as fh:
        assert fh.read() == b"a,b,c\n1,0.30000000000000004,2.0\n-3,1e-05,True\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, bad):
    path = os.path.join(tmp_path, "doc.json")
    with pytest.raises(NonFiniteError, match="doc.json"):
        dataio.write_json(path, {"layers": [{"load_saved": bad}]})
    assert os.listdir(tmp_path) == []
    # the key path of the first value JSON cannot hold, in the order written
    doc = {"runtime": 1.0, "points": [{"accuracy": 0.5}, {"n_basis": 2, "accuracy": bad}],
           "totals": [bad]}
    with pytest.raises(NonFiniteError, match=rf"points\[1\]\.accuracy is {bad}\b"):
        dataio.write_json(path, doc)
    with pytest.raises(NonFiniteError, match=r"totals\[1\] is"):
        dataio.write_json(path, {"totals": (1.0, bad)})
    with pytest.raises(NonFiniteError, match="the document is"):
        dataio.write_json(path, bad)
    assert os.listdir(tmp_path) == []
    dataio.write_json(path, {"load_saved": 1e308})
    assert open(path).read() == '{\n  "load_saved": 1e+308\n}\n'


def test_imports_only_errors_from_the_package():
    src = os.path.dirname(os.path.dirname(dataio.__file__))
    code = (
        "import sys, weightgen.dataio; "
        "print(sorted(m for m in sys.modules if m.startswith('weightgen')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert ast.literal_eval(out) == ["weightgen", "weightgen.dataio", "weightgen.errors"]


def _toy_dataset(n=17):
    rng = np.random.default_rng(5)
    return dataio.LabeledDataset(
        images=rng.random((n, 1, 4, 4)),
        labels=rng.integers(0, 10, n),
        split="train",
    )


def _batches(ds, batch_size, seed, epoch):
    """The trainer's mini-batches drawn from a dataset."""
    for idx in training.batches(len(ds), batch_size, seed=seed, epoch=epoch):
        yield ds.images[idx], ds.labels[idx]


def test_every_epoch_visits_each_sample_once():
    ds = _toy_dataset(17)
    seen = []
    for xb, yb in _batches(ds, 5, seed=0, epoch=0):
        assert xb.shape[0] == yb.shape[0]
        seen.extend(xb[:, 0, 0, 0].tolist())
    assert len(seen) == 17
    # every sample appears exactly once (values are distinct with prob 1)
    assert len(set(seen)) == 17
    sizes = [xb.shape[0] for xb, _ in _batches(ds, 5, seed=0, epoch=0)]
    assert sizes == [5, 5, 5, 2]


def test_full_batch_is_a_permutation():
    ds = _toy_dataset(10)
    (xb, yb), = list(_batches(ds, 10, seed=3, epoch=0))
    assert sorted(map(tuple, xb.reshape(10, -1).tolist())) == sorted(
        map(tuple, ds.images.reshape(10, -1).tolist())
    )
    assert not np.array_equal(yb, ds.labels) or np.array_equal(
        xb, ds.images
    )  # permuted order, same multiset


def test_batch_order_deterministic_and_seed_sensitive():
    ds = _toy_dataset(32)
    a = [yb.tolist() for _, yb in _batches(ds, 8, seed=0, epoch=2)]
    b = [yb.tolist() for _, yb in _batches(ds, 8, seed=0, epoch=2)]
    c = [yb.tolist() for _, yb in _batches(ds, 8, seed=1, epoch=2)]
    d = [yb.tolist() for _, yb in _batches(ds, 8, seed=0, epoch=3)]
    assert a == b
    assert a != c
    assert a != d


def test_batches_validates_batch_size():
    with pytest.raises(ConfigError):
        list(_batches(_toy_dataset(4), 0, seed=0, epoch=0))


def test_resolve_data_root(tmp_path, monkeypatch):
    monkeypatch.delenv("WEIGHTGEN_DATA", raising=False)
    with pytest.raises(ConfigError):
        dataio.resolve_data_root(None)
    monkeypatch.setenv("WEIGHTGEN_DATA", str(tmp_path))
    assert dataio.resolve_data_root(None) == str(tmp_path)
    assert dataio.resolve_data_root(str(tmp_path)) == str(tmp_path)
    with pytest.raises(ConfigError):
        dataio.resolve_data_root(os.path.join(tmp_path, "missing"))


def test_load_fashion_split_names(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.array([1, 2], dtype=np.uint8)
    with open(os.path.join(tmp_path, "t10k-images-idx3-ubyte"), "wb") as fh:
        fh.write(struct.pack(">iiii", 2051, 2, 28, 28))
        fh.write(images.tobytes())
    with open(os.path.join(tmp_path, "t10k-labels-idx1-ubyte"), "wb") as fh:
        fh.write(struct.pack(">ii", 2049, 2))
        fh.write(labels.tobytes())
    ds = dataio.load_fashion_split(str(tmp_path), "test")
    assert len(ds) == 2 and ds.split == "test"
    with pytest.raises(ConfigError):
        dataio.load_fashion_split(str(tmp_path), "validation")
