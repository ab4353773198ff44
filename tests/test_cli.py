import argparse
import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest

from weightgen import cli, costmodel, dataio, explorer, factorfile, training
from weightgen.errors import ShapeError


def _fake_fashion_root(tmp_path, n_train=48, n_test=24, seed=0):
    """Write a tiny FashionMNIST-shaped IDX file set and return its dir."""
    root = os.path.join(tmp_path, "data")
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", n_train),
        "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", n_test),
    }
    for img_name, lbl_name, n in names.values():
        images = rng.integers(0, 256, (n, 28, 28)).astype(np.uint8)
        labels = (rng.integers(0, 10, n)).astype(np.uint8)
        with open(os.path.join(root, img_name), "wb") as fh:
            fh.write(struct.pack(">iiii", 2051, n, 28, 28))
            fh.write(images.tobytes())
        with open(os.path.join(root, lbl_name), "wb") as fh:
            fh.write(struct.pack(">ii", 2049, n))
            fh.write(labels.tobytes())
    return root


_TRAIN_FLAGS = [
    "--arch", "C4K3S2-AvgPool2-FC10",
    "--epochs", "1",
    "--batch-size", "16",
    "--init", "random",
]


def test_cost_reports_reference_numbers(tmp_path, capsys):
    out = os.path.join(tmp_path, "cost")
    assert cli.main(["cost", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "545.2 ps" in text
    assert "7.9 us" in text
    report = json.load(open(os.path.join(out, "cost.json")))
    layer = report["layers"][0]
    assert abs(layer["gen_latency"] - 545.2e-12) < 0.5e-12
    assert abs(layer["load_saved"] - 7.9e-6) < 0.1e-6
    assert abs(layer["r_m"] - 0.0273) < 0.0002
    snapshot = json.load(open(os.path.join(out, "config.json")))
    assert snapshot["command"] == "cost"


@pytest.mark.parametrize("flags, named", [
    (["--sram-bandwidth", "1e-320"], "sram_bandwidth"),
    (["--dac-latency", "1e308", "--mod-latency", "1e308"], "dac_latency"),
])
def test_cost_settings_that_overflow_exit_2_naming_the_setting(tmp_path, capsys, flags, named):
    out = os.path.join(tmp_path, "cost")
    assert cli.main(["cost", *flags, "--out", out]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "non-finite" in captured.err
    assert captured.out == "" and not os.path.exists(out)


def test_train_twice_gives_bitwise_identical_metrics(tmp_path):
    root = _fake_fashion_root(tmp_path)
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    args = ["train", "--data", root, "--seed", "7", *_TRAIN_FLAGS]
    assert cli.main(args + ["--out", out_a]) == 0
    assert cli.main(args + ["--out", out_b]) == 0
    metrics_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    metrics_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert metrics_a == metrics_b
    header = metrics_a.decode().splitlines()[0]
    assert header == "epoch,lr,loss_kd,loss_ort,train_acc,test_acc"
    assert os.path.exists(os.path.join(out_a, "checkpoint.npz"))


def test_snapshot_round_trip_reproduces_outputs(tmp_path):
    root = _fake_fashion_root(tmp_path)
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    assert cli.main([
        "train", "--data", root, "--seed", "3", "--generated", "0",
        "--bi", "1", "--bc", "2", "--init-iters", "50", *_TRAIN_FLAGS,
        "--out", out_a,
    ]) == 0
    snapshot_path = os.path.join(out_a, "config.json")
    snapshot = json.load(open(snapshot_path))
    assert snapshot["seed"] == 3
    assert snapshot["generated"] == [0]
    assert cli.main([
        "train", "--config", snapshot_path, "--out", out_b,
    ]) == 0
    assert (
        open(os.path.join(out_a, "metrics.csv"), "rb").read()
        == open(os.path.join(out_b, "metrics.csv"), "rb").read()
    )


def test_flags_override_config_file(tmp_path):
    root = _fake_fashion_root(tmp_path)
    cfg_path = os.path.join(tmp_path, "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(
            {
                "arch": "C4K3S2-AvgPool2-FC10",
                "epochs": 1,
                "batch_size": 16,
                "init": "random",
                "seed": 1,
                "data": root,
            },
            fh,
        )
    out = os.path.join(tmp_path, "o")
    assert cli.main(["train", "--config", cfg_path, "--seed", "2", "--out", out]) == 0
    snapshot = json.load(open(os.path.join(out, "config.json")))
    assert snapshot["seed"] == 2
    assert snapshot["epochs"] == 1


def test_unknown_config_field_is_named(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({"epoch_count": 3}, fh)
    code = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "epoch_count" in err


@pytest.mark.parametrize("field,value", [
    ("epochs", "5"),
    ("epochs", True),
    ("batch_size", 16.0),
    ("lr", "x"),
    ("quantized", 1),
    ("act_bits", "8"),
    ("arch", 5),
])
def test_mistyped_config_value_is_named(tmp_path, capsys, field, value):
    cfg_path = os.path.join(tmp_path, "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({field: value}, fh)
    code = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field {field!r}" in err


@pytest.mark.parametrize("command,field,value", [
    ("train", "generated", [1.5, 2.9]),
    ("train", "out", 5),
    ("train", "layer", "0"),
    ("init", "layer", "0"),
    ("cost", "dac_latency", "x"),
    ("cost", "dac_latency", True),
    ("cost", "n_cross", True),
    ("cost", "q_basis", True),
    ("explore", "bi_list", [1.5, 2.9]),
    ("explore", "bi_list", [True, 2]),
    ("explore", "bit_settings", [[4.7, 4, 8]]),
    ("explore", "bit_settings", 5),
])
def test_mistyped_run_or_device_value_is_named(tmp_path, capsys, command, field, value):
    cfg_path = os.path.join(tmp_path, "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({field: value}, fh)
    code = cli.main([command, "--config", cfg_path])
    assert code == 2
    captured = capsys.readouterr()
    assert field in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_init_flag_is_checked_by_the_config_range(tmp_path, capsys):
    out = os.path.join(tmp_path, "o")
    assert cli.main(["train", "--init", "bogus", "--out", out]) == 2
    captured = capsys.readouterr()
    assert "config field 'init' must be one of ('l2', 'svd', 'random')" in captured.err
    assert captured.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("command", ["cost", "analyze", "init"])
@pytest.mark.parametrize("field,value", [("epochs", "x"), ("init", 5), ("dac_latency", "x")])
def test_config_keys_a_command_does_not_use_are_type_checked(tmp_path, capsys, command,
                                                            field, value):
    cfg_path = os.path.join(tmp_path, "bad.json")
    out = os.path.join(tmp_path, "o")
    with open(cfg_path, "w") as fh:
        json.dump({field: value, "out": out}, fh)
    assert cli.main([command, "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert f"config field {field!r}" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not os.path.exists(out)


def test_null_run_value_leaves_field_unset(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "nulls.json")
    with open(cfg_path, "w") as fh:
        json.dump({"c_out": None, "out": None, "verbose": None}, fh)
    assert cli.main(["cost", "--config", cfg_path]) == 0
    assert "layer 128x128x3x3" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--limit-train", "-40"), ("--limit-test", "0")])
def test_sample_limit_below_one_is_rejected(tmp_path, capsys, flag, value):
    root = _fake_fashion_root(tmp_path)
    out = os.path.join(tmp_path, "o")
    code = cli.main(["train", "--data", root, *_TRAIN_FLAGS, flag, value, "--out", out])
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not os.path.exists(out)


def test_snapshot_holds_every_resolved_setting(tmp_path):
    root = _fake_fashion_root(tmp_path)
    out = os.path.join(tmp_path, "t")
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out]) == 0
    snapshot = json.load(open(os.path.join(out, "config.json")))
    assert {f.name for f in dataclasses.fields(training.TrainConfig)} <= set(snapshot)

    out_a, out_b = os.path.join(tmp_path, "ca"), os.path.join(tmp_path, "cb")
    assert cli.main(["cost", "--bc", "12", "--out", out_a]) == 0
    snapshot_path = os.path.join(out_a, "config.json")
    snapshot = json.load(open(snapshot_path))
    layer = {"c_out", "c_in", "k", "n_basis", "n_cross", "q_basis", "q_coeff",
             "q_mixer", "q_weight"}
    device = {f.name for f in dataclasses.fields(costmodel.DeviceParams)}
    assert layer | device <= set(snapshot)
    assert snapshot["n_cross"] == 12 and snapshot["c_out"] == 128
    assert cli.main(["cost", "--config", snapshot_path, "--out", out_b]) == 0
    assert (open(os.path.join(out_a, "cost.json"), "rb").read()
            == open(os.path.join(out_b, "cost.json"), "rb").read())


def test_snapshot_with_retired_field_loads_as_config(tmp_path):
    root = _fake_fashion_root(tmp_path)
    out_a, out_b = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out_a]) == 0
    snapshot_path = os.path.join(out_a, "config.json")
    snapshot = json.load(open(snapshot_path))
    snapshot["init_lr"] = 0.02  # written by versions that had the field
    with open(snapshot_path, "w") as fh:
        json.dump(snapshot, fh)
    assert cli.main(["train", "--config", snapshot_path, "--out", out_b]) == 0
    assert (open(os.path.join(out_a, "metrics.csv"), "rb").read()
            == open(os.path.join(out_b, "metrics.csv"), "rb").read())
    assert "init_lr" not in json.load(open(os.path.join(out_b, "config.json")))


@pytest.mark.parametrize("argv", [
    ["init", "--seed", "1"], ["cost", "--seed", "1"], ["analyze", "--seed", "1"],
    *(["analyze", flag, "2"] for flag in ("--bi", "--bc", "--qb", "--qu", "--qv")),
    ["explore", "--bi", "2"], ["explore", "--bc", "8"],
], ids=lambda argv: " ".join(argv[:2]))
def test_flags_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_docs_and_flags_cover_every_config_key():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    section = open(path).read().split("## Run configuration")[1].split("\n## ")[0]
    missing = set(cli.CONFIG_TYPES) - set(re.findall(r"`(\w+)`", section))
    assert not missing, f"docs/formats.md does not name {sorted(missing)}"
    # A flag's argparse type -> the annotations it can carry; string flags
    # hold strings or the comma lists their parsers split.
    flag_types = {int: {"int", "int | None"}, float: {"float"},
                  None: {"str", "tuple[int, ...]", "list"}}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub_parser in sub.choices.items():
        for action in sub_parser._actions:
            if action.dest in ("help", "config"):
                continue
            assert action.dest in cli.CONFIG_TYPES, (command, action.dest)
            annotation = cli.CONFIG_TYPES[action.dest]
            if isinstance(action, argparse._StoreTrueAction):
                assert annotation == "bool", (command, action.dest)
            else:
                assert annotation in flag_types[action.type], (command, action.dest)


def test_docs_csv_headers_are_the_written_columns():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    text = open(path).read()
    for section, columns in (("## Training metrics CSV", training.METRIC_COLUMNS),
                             ("## Exploration grid CSV", explorer.GRID_COLUMNS)):
        header = text.split(section)[1].split("```\n")[1]
        assert header == ",".join(columns) + "\n", section


def test_docs_list_exactly_the_config_keys():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    section = open(path).read().split("## Run configuration")[1].split("\n## ")[0]
    key_list = section.split("Its keys are exactly these:\n")[1].split("\n\n")[0]
    listed = re.findall(r"`([a-z_]+)`", key_list)
    assert len(listed) == len(set(listed)), "a key is listed twice"
    assert set(listed) == set(cli.CONFIG_TYPES)


def test_out_of_range_config_value_exits_2(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "bad.json")
    out = os.path.join(tmp_path, "o")
    with open(cfg_path, "w") as fh:
        json.dump({"in_channels": 0}, fh)
    assert cli.main(["train", "--config", cfg_path, "--out", out]) == 2
    captured = capsys.readouterr()
    assert "config field 'in_channels' must be at least 1" in captured.err
    assert "Traceback" not in captured.err and not os.path.exists(out)


def test_missing_out_and_missing_data_fail_typed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
    assert cli.main(["train"]) == 2
    assert "out" in capsys.readouterr().err
    assert cli.main(["train", "--out", str(tmp_path)]) == 2
    assert "WEIGHTGEN_DATA" in capsys.readouterr().err


def test_empty_train_split_is_a_typed_error(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path, n_train=0)
    out = os.path.join(tmp_path, "o")
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "train_x" in err and "Traceback" not in err
    train_ds = dataio.load_fashion_split(root, "train")
    test_ds = dataio.load_fashion_split(root, "test")
    cfg = training.TrainConfig(arch="C4K3S2-AvgPool2-FC10", epochs=1, init="random")
    with pytest.raises(ShapeError, match="train_x"):
        training.train(cfg, train_ds.images, train_ds.labels, test_ds.images, test_ds.labels)


def test_empty_test_split_fails_before_training(tmp_path, capsys, monkeypatch):
    root = _fake_fashion_root(tmp_path, n_test=0)
    out = os.path.join(tmp_path, "o")
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "test_x has no samples" in err and "Traceback" not in err
    calls = []
    kd_loss = training.kd_loss

    def counting_kd_loss(*args, **kwargs):
        calls.append(1)
        return kd_loss(*args, **kwargs)

    monkeypatch.setattr(training, "kd_loss", counting_kd_loss)
    train_ds = dataio.load_fashion_split(root, "train")
    test_ds = dataio.load_fashion_split(root, "test")
    cfg = training.TrainConfig(arch="C4K3S2-AvgPool2-FC10", epochs=1, init="random")
    with pytest.raises(ShapeError, match="test_x has no samples"):
        training.train(cfg, train_ds.images, train_ds.labels, test_ds.images, test_ds.labels)
    assert calls == []


@pytest.mark.parametrize("command", ["cost", "init"])
def test_zero_q_weight_is_named(tmp_path, capsys, command):
    argv = [command, "--q-weight", "0", "--out", os.path.join(tmp_path, "o")]
    if command == "init":
        argv += ["--teacher", os.path.join(tmp_path, "missing.npz")]
    assert cli.main(argv) == 2
    assert "config field 'q_weight' must be at least 1, got 0" in capsys.readouterr().err


def test_explore_one_by_one_grid_writes_single_row(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path)
    out = os.path.join(tmp_path, "grid")
    assert cli.main([
        "explore", "--data", root, "--generated", "0", "--seed", "5",
        "--bi-list", "1", "--bc-list", "2", *_TRAIN_FLAGS, "--out", out,
    ]) == 0
    lines = open(os.path.join(out, "grid.csv")).read().splitlines()
    assert lines[0] == "B_i,B_c,q_b,q_u,q_v,r,r_m,acc"
    assert len(lines) == 2
    payload = json.load(open(os.path.join(out, "grid.json")))
    assert len(payload["points"]) == 1
    assert payload["pareto_front"]
    assert "pareto" in capsys.readouterr().out


def test_explore_requires_grid_lists(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path)
    code = cli.main([
        "explore", "--data", root, "--generated", "0",
        *_TRAIN_FLAGS, "--out", os.path.join(tmp_path, "g"),
    ])
    assert code == 2
    assert "bi-list" in capsys.readouterr().err


def test_bad_bits_list_is_rejected(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path)
    code = cli.main([
        "explore", "--data", root, "--generated", "0",
        "--bi-list", "1", "--bc-list", "2", "--bits-list", "4,4",
        *_TRAIN_FLAGS, "--out", os.path.join(tmp_path, "g"),
    ])
    assert code == 2
    assert "bit_settings" in capsys.readouterr().err


def _train_dense_checkpoint(tmp_path, root):
    out = os.path.join(tmp_path, "teacher")
    assert cli.main([
        "train", "--data", root, "--seed", "11", *_TRAIN_FLAGS, "--out", out,
    ]) == 0
    return os.path.join(out, "checkpoint.npz")


def test_init_writes_factors_and_residual_report(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path)
    ckpt = _train_dense_checkpoint(tmp_path, root)
    out = os.path.join(tmp_path, "init")
    assert cli.main([
        "init", "--teacher", ckpt, "--layer", "0",
        "--bi", "1", "--bc", "2", "--init-iters", "120", "--out", out,
    ]) == 0
    report = json.load(open(os.path.join(out, "init_report.json")))
    assert report["l2_residual"] >= 0.0
    assert report["svd_residual"] >= 0.0
    assert report["chosen"] in ("l2", "svd")
    assert 0.0 < report["r"] <= 1.0
    factors = factorfile.load_factors(os.path.join(out, "factors.isgw"))
    assert factors.plan.c_out == 4 and factors.plan.n_cross == 2
    text = capsys.readouterr().out
    assert "l2 residual" in text


def test_init_layer_index_out_of_range(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path)
    ckpt = _train_dense_checkpoint(tmp_path, root)
    code = cli.main([
        "init", "--teacher", ckpt, "--layer", "9",
        "--bi", "1", "--bc", "2", "--out", os.path.join(tmp_path, "x"),
    ])
    assert code == 2
    assert "layer" in capsys.readouterr().err


def test_analyze_prints_per_layer_metrics(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path)
    ckpt = _train_dense_checkpoint(tmp_path, root)
    out = os.path.join(tmp_path, "an")
    assert cli.main(["analyze", "--checkpoint", ckpt, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "layer 0" in text and "cross=" in text
    rows = json.load(open(os.path.join(out, "correlations.json")))
    assert rows[0]["c_out"] == 4
    assert 0.0 < rows[0]["cross"] <= 1.0


def test_analyze_row_layout_and_1x1_skip(tmp_path, capsys):
    cfg = training.TrainConfig(arch="C4K3S2-C6K1S1-C8K3S1-AvgPool2-FC10", generated=(2,),
                               n_basis=2, n_cross=4, seed=3)
    ckpt = os.path.join(tmp_path, "ckpt.npz")
    training.save_checkpoint(ckpt, training.build_model(cfg), cfg, epoch=1)
    out = os.path.join(tmp_path, "an")
    assert cli.main(["analyze", "--checkpoint", ckpt, "--out", out]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("layer ")]
    rows = json.load(open(os.path.join(out, "correlations.json")))
    assert [row["layer"] for row in rows] == [0, 3, 6]
    for row, line in zip(rows, lines):
        assert list(row) == ["layer", "c_out", "c_in", "k", "cross", "intra"]
        assert 0.0 < row["cross"] <= 1.0
        assert line.startswith(f"layer {row['layer']}: ")
        assert f"cross={row['cross']:.4f}" in line
        if row["k"] == 1:
            assert row["intra"] is None and line.endswith("intra=skipped (1x1)")
        else:
            intra = row["intra"]
            assert list(intra) == ["mean", "std"]
            assert line.endswith(f"intra={intra['mean']:.4f} +/- {intra['std']:.4f}")
    assert [(r["c_out"], r["c_in"], r["k"]) for r in rows] == [(4, 1, 3), (6, 4, 1), (8, 6, 3)]
    assert len(lines) == 3


def test_analyze_requires_checkpoint(capsys):
    assert cli.main(["analyze"]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_train_with_teacher_distills(tmp_path):
    root = _fake_fashion_root(tmp_path)
    ckpt = _train_dense_checkpoint(tmp_path, root)
    out = os.path.join(tmp_path, "student")
    assert cli.main([
        "train", "--data", root, "--seed", "13", "--generated", "0",
        "--bi", "1", "--bc", "2", "--init-iters", "50",
        "--teacher", ckpt, *_TRAIN_FLAGS[:-2], "--init", "l2", "--out", out,
    ]) == 0
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    snapshot = json.load(open(os.path.join(out, "config.json")))
    assert snapshot["teacher"] == ckpt


def test_rejected_inputs_leave_no_out_directory(tmp_path, capsys):
    root = _fake_fashion_root(tmp_path, n_test=0)
    out = os.path.join(tmp_path, "o")
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out]) == 2
    assert "test_x has no samples" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert cli.main(["init", "--teacher", os.path.join(tmp_path, "missing.npz"),
                     "--out", out]) == 2
    assert not os.path.exists(out)
    assert cli.main(["explore", "--data", os.path.join(tmp_path, "nowhere"),
                     "--bi-list", "2", "--bc-list", "4", "--out", out]) == 2
    assert not os.path.exists(out)


def test_failure_midway_rolls_back_the_artifact_set(tmp_path, capsys, monkeypatch):
    root = _fake_fashion_root(tmp_path)
    out = os.path.join(tmp_path, "o")

    def failing_save(path, *args, **kwargs):
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        raise OSError(f"no space left to write {path}")

    monkeypatch.setattr(training, "save_checkpoint", failing_save)
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out]) == 2
    assert "no space left" in capsys.readouterr().err
    assert not os.path.exists(out)  # the run made it, and the roll-back emptied it
    os.makedirs(out)
    assert cli.main(["train", "--data", root, *_TRAIN_FLAGS, "--out", out]) == 2
    assert "no space left" in capsys.readouterr().err
    assert os.listdir(out) == []  # a directory that was there before the run stays
