"""Damaged artifacts fail with typed errors.

Fixed-seed truncations and single-bit flips of a checkpoint, an ``.isgw``
container and both files of an IDX pair must either
load (a flip can land where no reader looks, or change a stored value) or
raise a ``WeightgenError`` subclass; a truncated file must always raise.
A well-formed checkpoint whose entries hold what the model cannot run, are
reshaped or are missing must raise a typed error naming the entry, while an
extra entry loads and leaves the model as written; a ``--config`` file
whose field holds a value of the wrong type, NaN or an infinity must stop
every command with a message naming the field.
"""

import json
import os
import re
import struct

import numpy as np
import pytest

from weightgen import cli, dataio, factorfile, generator, nn, training
from weightgen.errors import ConfigError, NonFiniteError, ShapeError, WeightgenError

CASES = 240


def _damaged(data: bytes, seed: int):
    """Yield (truncated, bytes): alternately a prefix and a one-bit flip."""
    rng = np.random.default_rng(seed)
    for i in range(CASES):
        if i % 2 == 0:
            yield True, data[: int(rng.integers(0, len(data)))]
        else:
            bit = int(rng.integers(0, 8 * len(data)))
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield False, bytes(flipped)


def _checkpoint(tmp_path):
    cfg = training.TrainConfig(
        arch="C4K3S1-C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=1, generated=(1,), n_basis=2, n_cross=2,
    )
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, training.build_model(cfg), cfg, epoch=1)
    return path.read_bytes(), training.load_checkpoint


def _isgw(tmp_path):
    plan = generator.plan_layer(6, 3, 3, 2, 4, 3, 4, 5)
    factors = generator.init_random(plan, np.random.default_rng(0))
    return factorfile.factors_to_bytes(factors), factorfile.load_factors


def _idx(which):
    def make(tmp_path):
        n, side = 5, 4
        rng = np.random.default_rng(1)
        files = {
            "images": struct.pack(">iiii", dataio.IMAGE_MAGIC, n, side, side)
            + rng.integers(0, 256, n * side * side).astype(np.uint8).tobytes(),
            "labels": struct.pack(">ii", dataio.LABEL_MAGIC, n)
            + rng.integers(0, 10, n).astype(np.uint8).tobytes(),
        }
        paths = {name: os.path.join(tmp_path, name) for name in files}
        for name, data in files.items():
            with open(paths[name], "wb") as fh:
                fh.write(data)

        def load(path):
            pair = dict(paths, **{which: path})
            return dataio.load_idx(pair["images"], pair["labels"])
        return files[which], load
    return make


@pytest.mark.parametrize("make", [
    _checkpoint, _isgw, _idx("images"), _idx("labels"),
], ids=["checkpoint", "isgw-raw", "idx-images", "idx-labels"])
def test_damaged_artifacts_raise_only_typed_errors(tmp_path, make):
    data, load = make(tmp_path)
    load_path = os.path.join(tmp_path, "damaged")
    for case, (truncated, damaged) in enumerate(_damaged(data, seed=7)):
        with open(load_path, "wb") as fh:
            fh.write(damaged)
        try:
            load(load_path)
        except WeightgenError:
            continue
        assert not truncated, f"case {case}: a truncated file loaded"


def _mutations(key, value):
    """(mutated entry, error it must raise): each well-formed array that
    holds what the model cannot run."""
    yield value.astype(str), ConfigError  # numeric strings
    yield value + 1j, ConfigError
    yield value > 0, ConfigError
    for bad in (np.nan, np.inf):
        mutated = value.copy()
        mutated.flat[0] = bad
        yield mutated, NonFiniteError
    if key.endswith(".running_var"):
        yield -value, ConfigError


def _state(model) -> list[bytes]:
    """Every parameter and running statistic of model, as bytes in order."""
    return [p.value.tobytes() for p in model.params()] + [
        stat.tobytes() for layer in model.layers if isinstance(layer, nn.BatchNorm2d)
        for stat in (layer.running_mean, layer.running_var)]


def test_checkpoint_entries_the_model_cannot_run_are_named(tmp_path):
    _checkpoint(tmp_path)
    want_model, want_cfg, want_epoch = training.load_checkpoint(tmp_path / "ckpt.npz")
    with np.load(tmp_path / "ckpt.npz") as z:
        arrays = {k: z[k] for k in z.files}
    entries = [k for k in arrays if k != "meta"]
    assert any(k.startswith("p/") for k in entries)
    assert any(k.endswith(".running_var") for k in entries)
    path = tmp_path / "mutated.npz"
    for key in entries:
        value = arrays[key]
        reshaped = value.reshape(-1) if value.ndim > 1 else value.reshape(1, -1)
        for mutated, error in [*_mutations(key, value), (reshaped, ShapeError)]:
            np.savez(path, **dict(arrays, **{key: mutated}))
            with pytest.raises(error, match=re.escape(key)):
                training.load_checkpoint(path)
        np.savez(path, **{k: a for k, a in arrays.items() if k != key})
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            training.load_checkpoint(path)
        # an entry the model does not need is ignored
        np.savez(path, **arrays, **{f"x/{key}": -value})
        model, cfg, epoch = training.load_checkpoint(path)
        assert (cfg, epoch) == (want_cfg, want_epoch)
        assert _state(model) == _state(want_model), key


# Annotation -> a JSON value of another type.
_WRONG_TYPE = {
    "str": 5, "int": "5", "float": "0.5", "bool": 1, "int | None": 8.0,
    "tuple[int, ...]": [1.5], "list": [[4.5, 4, 8]],
}
_COMMANDS = ("train", "init", "explore", "cost", "analyze")


def _run_rejected(capsys, argv, name):
    """Run the CLI on argv; it must exit 2 naming name, with no traceback."""
    assert cli.main(argv) == 2, argv
    captured = capsys.readouterr()
    assert name in captured.err and "Traceback" not in captured.err, captured.err
    assert captured.out == ""


def test_config_fields_of_the_wrong_kind_stop_every_command(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "config.json")
    out = os.path.join(tmp_path, "o")
    for key, annotation in cli.CONFIG_TYPES.items():
        for value in (_WRONG_TYPE[annotation], float("nan"), float("inf"), float("-inf")):
            with open(cfg_path, "w") as fh:
                json.dump({"out": out, key: value}, fh)
            for command in _COMMANDS:
                _run_rejected(capsys, [command, "--config", cfg_path], repr(key))
                assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("data", [
    b"\xff\xfe{}", b'{"epochs": "\xe9"}', b"[]", b"5", b'"out"', b"null",
], ids=["utf16-bom", "latin1", "list", "number", "string", "null"])
def test_config_files_that_are_not_utf8_objects_are_named(tmp_path, capsys, data):
    cfg_path = os.path.join(tmp_path, "config.json")
    out = os.path.join(tmp_path, "o")
    with open(cfg_path, "wb") as fh:
        fh.write(data)
    for command in _COMMANDS:
        _run_rejected(capsys, [command, "--config", cfg_path, "--out", out], cfg_path)
        assert not os.path.exists(out)
