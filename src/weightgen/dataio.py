"""IDX dataset loading and serialization, and the package's atomic writes.

The IDX binary layout is parsed exactly: all integers are big-endian
32-bit, images carry magic 2051 with (count, rows, cols) dimensions and
uint8 pixels, labels carry magic 2049 with a count and uint8 values.
Pixels load as float32 k/255 in [0, 1], so the networks fed with them run
in float32; serialization rounds x*255 and restores the exact original
bytes, so load -> save -> load is bitwise stable.

Every file the package writes goes through ``atomic_write``, so a file
appears under its final name only when complete; ``write_json`` is the one
writer of the package's JSON artifacts and ``write_csv`` of its CSV ones.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import (
    ConfigError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    NonFiniteError,
)

# The environment variable naming the dataset root when no --data is given.
DATA_ENV_VAR = "WEIGHTGEN_DATA"

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


def _read_idx(path: str, magic: int, what: str, dims: int) -> np.ndarray:
    """The uint8 payload of the IDX file at path, shaped by the dims sizes
    (count first) its header gives after the magic; the magic, the sizes and
    the payload's length are checked."""
    with open(path, "rb") as fh:
        header = struct.unpack(f">{dims + 1}i",
                               _read_exact(fh, 4 * (dims + 1), path, f"{what} header"))
        if header[0] != magic:
            raise IdxMagicError(
                f"{path}: {what} magic must be {magic} big-endian, got {header[0]}"
            )
        shape = header[1:]
        if shape[0] < 0 or min(shape[1:], default=1) <= 0:
            raise IdxTruncatedError(f"{path}: nonsensical {what} dimensions {shape}")
        payload = _read_exact(fh, math.prod(shape), path, f"{what} data")
        if fh.read(1):
            raise IdxTruncatedError(f"{path}: trailing bytes after {what} data")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx(images_path: str, labels_path: str, split: str = "") -> LabeledDataset:
    """Parse an IDX image/label file pair into a normalized dataset."""
    pixels = _read_idx(images_path, IMAGE_MAGIC, "image", 3)[:, None]
    images = pixels.astype(np.float32) / np.float32(255)
    labels = _read_idx(labels_path, LABEL_MAGIC, "label", 1).astype(np.int64)
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
    came out of load_idx.  A non-finite pixel raises a NonFiniteError and
    one outside [0, 1] a ConfigError, before either file is written.
    """
    if not np.isfinite(ds.images).all():
        raise NonFiniteError(f"cannot write {images_path}: images contain non-finite pixels")
    if ds.images.size and not 0 <= ds.images.min() <= ds.images.max() <= 1:
        raise ConfigError(f"cannot write {images_path}: pixels must lie in [0, 1], got range "
                          f"[{ds.images.min()}, {ds.images.max()}]")
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


def write_csv(path, columns, rows) -> None:
    """Write rows of numbers under a header of columns as CSV, atomically,
    each line ending in "\n"; a float is written as repr(float(v)), any
    other value as str(v)."""
    lines = [columns, *([repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                        for row in rows)]
    atomic_write(path, "".join(",".join(line) + "\n" for line in lines).encode())


def _first_non_finite(doc, key: str = ""):
    """(key path, value) of the first NaN or infinity in doc, in the order
    json writes it, such as ("points[1].accuracy", nan); None if there is none."""
    if isinstance(doc, float):
        return None if np.isfinite(doc) else (key, doc)
    if isinstance(doc, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in doc.items())
    elif isinstance(doc, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(doc))
    else:
        return None
    for item_key, value in items:
        found = _first_non_finite(value, item_key)
        if found is not None:
            return found
    return None


def write_json(path, doc) -> None:
    """Write doc to path as indented JSON with a final newline, atomically.
    A NaN or an infinity, which JSON cannot hold, raises a NonFiniteError
    naming path and the key path of the first one, and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        found = _first_non_finite(doc)
        if found is None:
            raise NonFiniteError(f"cannot write {path}: {exc}") from exc
        key, value = found
        raise NonFiniteError(f"cannot write {path}: {key or 'the document'} is {value}, "
                             f"which JSON cannot hold") from exc
    atomic_write(path, (text + "\n").encode())


def resolve_data_root(explicit: str | None) -> str:
    """Pick the dataset directory from a flag or the environment."""
    root = explicit if explicit is not None else os.environ.get(DATA_ENV_VAR)
    if not root:
        raise ConfigError(
            f"no dataset root: pass --data or set ${DATA_ENV_VAR} to the IDX directory"
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
