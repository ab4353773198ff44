"""IDX dataset loading and serialization, and the package's atomic write.

The IDX binary layout is parsed exactly: all integers are big-endian
32-bit, images carry magic 2051 with (count, rows, cols) dimensions and
uint8 pixels, labels carry magic 2049 with a count and uint8 values.
Pixels load as float32 k/255 in [0, 1], so the networks fed with them run
in float32; serialization rounds x*255 and restores the exact original
bytes, so load -> save -> load is bitwise stable.

Every file the package writes goes through ``atomic_write``, so a file
appears under its final name only when complete.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import tempfile

import numpy as np

from .errors import (
    ConfigError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
NUM_CLASSES = 10


@dataclasses.dataclass(frozen=True)
class LabeledDataset:
    """Images as (n, 1, rows, cols) floats in [0, 1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    split: str = ""

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ConfigError(
                f"images must be (n, 1, rows, cols), got {self.images.shape}"
            )
        if self.labels.ndim != 1 or self.labels.shape[0] != self.images.shape[0]:
            raise IdxCountMismatchError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES
        ):
            raise ConfigError(
                f"labels must lie in [0, {NUM_CLASSES}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.images.shape[0]


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    # Compare the size a header claims with what the file holds before
    # reading, so a corrupt count never asks for a buffer the file cannot fill.
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > have:
        raise IdxTruncatedError(f"{path}: expected {n} bytes for {what}, got {have}")
    return fh.read(n)


def _load_images(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(
            ">iiii", _read_exact(fh, 16, path, "image header")
        )
        if magic != IMAGE_MAGIC:
            raise IdxMagicError(
                f"{path}: image magic must be {IMAGE_MAGIC} big-endian, got {magic}"
            )
        if count < 0 or rows <= 0 or cols <= 0:
            raise IdxTruncatedError(
                f"{path}: nonsensical dimensions ({count}, {rows}, {cols})"
            )
        payload = _read_exact(fh, count * rows * cols, path, "pixel data")
        trailing = fh.read(1)
        if trailing:
            raise IdxTruncatedError(f"{path}: trailing bytes after pixel data")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    return pixels.reshape(count, 1, rows, cols).astype(np.float32) / np.float32(255)


def _load_labels(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, count = struct.unpack(">ii", _read_exact(fh, 8, path, "label header"))
        if magic != LABEL_MAGIC:
            raise IdxMagicError(
                f"{path}: label magic must be {LABEL_MAGIC} big-endian, got {magic}"
            )
        if count < 0:
            raise IdxTruncatedError(f"{path}: negative label count {count}")
        payload = _read_exact(fh, count, path, "label data")
        trailing = fh.read(1)
        if trailing:
            raise IdxTruncatedError(f"{path}: trailing bytes after label data")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx(images_path: str, labels_path: str, split: str = "") -> LabeledDataset:
    """Parse an IDX image/label file pair into a normalized dataset."""
    images = _load_images(images_path)
    labels = _load_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    return LabeledDataset(images=images, labels=labels, split=split)


def save_idx(ds: LabeledDataset, images_path: str, labels_path: str) -> None:
    """Serialize a dataset back to an IDX file pair.

    Pixel floats are rescaled by 255 and rounded to the nearest integer,
    which restores the original uint8 bytes exactly for any dataset that
    came out of load_idx.
    """
    n, _, rows, cols = ds.images.shape
    pixels = np.rint(ds.images * 255.0).astype(np.uint8)
    header = struct.pack(">iiii", IMAGE_MAGIC, n, rows, cols)
    atomic_write(images_path, header + pixels.tobytes())
    atomic_write(
        labels_path,
        struct.pack(">ii", LABEL_MAGIC, n) + ds.labels.astype(np.uint8).tobytes(),
    )


def atomic_write(path, data: bytes) -> None:
    """Write data to path through a temporary file in the same directory,
    so path holds either its old content or all of data, never a part."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def resolve_data_root(explicit: str | None, env_var: str = "WEIGHTGEN_DATA") -> str:
    """Pick the dataset directory from a flag or the environment."""
    root = explicit if explicit is not None else os.environ.get(env_var)
    if not root:
        raise ConfigError(
            f"no dataset root: pass --data or set ${env_var} to the IDX directory"
        )
    if not os.path.isdir(root):
        raise ConfigError(f"dataset root {root!r} is not a directory")
    return root


FASHION_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_fashion_split(root: str, split: str) -> LabeledDataset:
    """Load one FashionMNIST split from a directory of raw IDX files."""
    if split not in FASHION_FILES:
        raise ConfigError(f"split must be one of {sorted(FASHION_FILES)}, got {split!r}")
    images_name, labels_name = FASHION_FILES[split]
    return load_idx(
        os.path.join(root, images_name),
        os.path.join(root, labels_name),
        split=split,
    )
