"""Command-line front end for training, initialization, exploration,
cost reporting, and checkpoint analysis.

Every run resolves its configuration from three layers (built-in
defaults, then a JSON config file, then explicit flags), writes the
resolved configuration next to its artifacts as config.json, and either
completes its whole artifact set or removes the files it already wrote.
Re-running any command from its own snapshot reproduces the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import costmodel, dataio, explorer, factorfile, generator, nn, training
from .errors import ConfigError, WeightgenError

DATA_ENV_VAR = "WEIGHTGEN_DATA"

_TRAIN_FIELDS = {f.name for f in dataclasses.fields(training.TrainConfig)}
_DEVICE_FIELDS = {f.name for f in dataclasses.fields(costmodel.DeviceParams)}
# Run-level config fields -> annotation, checked like TrainConfig's fields.
# None marks the grid lists, which their own parsers check.
_RUN_FIELDS = {
    "command": "str", "data": "str", "out": "str", "teacher": "str",
    "checkpoint": "str", "layer": "int", "limit_train": "int",
    "limit_test": "int", "c_out": "int", "c_in": "int", "k": "int",
    "q_weight": "int", "verbose": "bool",
    "bi_list": None, "bc_list": None, "bit_settings": None,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    for key in list(doc):
        if key in _TRAIN_FIELDS or key in _DEVICE_FIELDS:
            continue  # TrainConfig and DeviceParams check their own values
        if key not in _RUN_FIELDS:
            raise ConfigError(f"unknown config field {key!r} in {path}")
        value = doc[key]
        if value is None:
            del doc[key]  # null leaves the field unset
        elif _RUN_FIELDS[key] is not None:
            ok, want = training._FIELD_CHECKS[_RUN_FIELDS[key]]
            if not ok(value):
                raise ConfigError(f"config field {key!r} must be {want}, got {value!r}")
    return doc


def _parse_generated(value):
    """Split the --generated flag's comma string into layer indices; a
    config value is passed through for TrainConfig to check."""
    if value is None:
        return ()
    if not isinstance(value, str):
        return value
    try:
        return tuple(int(v) for v in value.split(",") if v != "")
    except ValueError:
        raise ConfigError(f"generated must be a comma list of layer indices, got {value!r}")


def _parse_int_list(value, field: str) -> list[int]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    try:
        out = [int(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"{field} must be a comma list of integers, got {value!r}")
    if not out:
        raise ConfigError(f"{field} must be nonempty")
    return out


def _parse_bit_settings(value) -> list[tuple[int, int, int]] | None:
    """Semicolon-separated q_b,q_u,q_v triples, e.g. '4,4,8;8,8,8'."""
    if value is None:
        return None
    if isinstance(value, str):
        value = [v for v in value.split(";") if v != ""]
    out = []
    for item in value:
        triple = _parse_int_list(item, "bit_settings")
        if len(triple) != 3:
            raise ConfigError(
                f"bit_settings entries must be q_b,q_u,q_v triples, got {item!r}"
            )
        out.append(tuple(triple))
    if not out:
        raise ConfigError("bit_settings must be nonempty")
    return out


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags into one settings dict."""
    merged: dict = {}
    if getattr(ns, "config", None):
        merged.update(_load_config_file(ns.config))
    for key, value in vars(ns).items():
        if key in ("config", "func", "command") or value is None:
            continue
        merged[key] = value
    merged.pop("command", None)
    if "generated" in merged:
        merged["generated"] = _parse_generated(merged["generated"])
    return merged


def _train_config(merged: dict) -> training.TrainConfig:
    kwargs = {k: v for k, v in merged.items() if k in _TRAIN_FIELDS}
    return training.TrainConfig(**kwargs)


def _device_params(merged: dict) -> costmodel.DeviceParams:
    kwargs = {k: v for k, v in merged.items() if k in _DEVICE_FIELDS}
    return costmodel.DeviceParams(**kwargs)


def _snapshot(merged: dict, command: str, out_dir: str, artifacts) -> None:
    """Write the resolved settings next to the artifacts, reloadably."""
    doc = {"command": command}
    for key, value in sorted(merged.items()):
        doc[key] = list(value) if isinstance(value, tuple) else value
    path = os.path.join(out_dir, "config.json")
    dataio.atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode())
    artifacts.append(path)


@contextlib.contextmanager
def _artifact_set():
    """Record written files; remove them all if the run fails midway."""
    written: list[str] = []
    try:
        yield written
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _ensure_out(merged: dict) -> str:
    out = merged.get("out")
    if not out:
        raise ConfigError("missing output directory: pass --out or set 'out' in the config")
    os.makedirs(out, exist_ok=True)
    return out


def _load_datasets(merged: dict):
    root = dataio.resolve_data_root(merged.get("data"), env_var=DATA_ENV_VAR)
    train_ds = dataio.load_fashion_split(root, "train")
    test_ds = dataio.load_fashion_split(root, "test")
    limit_train = merged.get("limit_train")
    limit_test = merged.get("limit_test")
    tx, ty = train_ds.images, train_ds.labels
    ex, ey = test_ds.images, test_ds.labels
    if limit_train:
        tx, ty = tx[:limit_train], ty[:limit_train]
    if limit_test:
        ex, ey = ex[:limit_test], ey[:limit_test]
    return tx, ty, ex, ey


def _load_teacher(merged: dict):
    path = merged.get("teacher")
    if not path:
        return None
    model, _, _ = training.load_checkpoint(path)
    return model


def cmd_train(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    cfg = _train_config(merged)
    out = _ensure_out(merged)
    train_x, train_y, test_x, test_y = _load_datasets(merged)
    teacher = _load_teacher(merged)
    result = training.train(
        cfg, train_x, train_y, test_x, test_y,
        teacher=teacher, verbose=merged.get("verbose", False),
    )
    with _artifact_set() as artifacts:
        metrics_path = os.path.join(out, "metrics.csv")
        training.write_metrics(metrics_path, result.metrics)
        artifacts.append(metrics_path)
        ckpt_path = os.path.join(out, "checkpoint.npz")
        training.save_checkpoint(
            ckpt_path, result.model, cfg, epoch=cfg.epochs
        )
        artifacts.append(ckpt_path)
        _snapshot(merged, "train", out, artifacts)
    final = result.metrics[-1]
    print(
        f"trained {cfg.epochs} epochs: train_acc={final['train_acc']:.4f} "
        f"test_acc={final['test_acc']:.4f}"
    )
    if result.init_residuals:
        residuals = ", ".join(f"{r:.3e}" for r in result.init_residuals)
        print(f"init residuals: {residuals}")
    print(f"artifacts in {out}")
    return 0


def cmd_init(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    cfg = _train_config(merged)
    out = _ensure_out(merged)
    teacher_path = merged.get("teacher")
    if not teacher_path:
        raise ConfigError("missing teacher: pass --teacher with a checkpoint path")
    model, _, _ = training.load_checkpoint(teacher_path)
    convs = model.conv_layers()
    index = merged.get("layer", 0)
    if not 0 <= index < len(convs):
        raise ConfigError(
            f"layer index {index} out of range: checkpoint has {len(convs)} conv layers"
        )
    layer = convs[index]
    if isinstance(layer, nn.GeneratedConv2d):
        raise ConfigError(
            f"layer {index} is already factorized; pick a dense conv layer"
        )
    target = layer.weight.value
    c_out, c_in, k, _ = target.shape
    plan = generator.plan_layer(
        c_out, c_in, k, cfg.n_basis, cfg.n_cross,
        q_basis=cfg.q_basis, q_coeff=cfg.q_coeff, q_mixer=cfg.q_mixer,
    )
    svd_factors, svd_residual = training.svd_init(target, plan)
    l2_factors, l2_residual = training.l2_project_init(
        target, plan, iters=cfg.init_iters, lr=cfg.init_lr,
    )
    chosen = l2_factors if l2_residual <= svd_residual else svd_factors
    with _artifact_set() as artifacts:
        factors_path = os.path.join(out, "factors.isgw")
        factorfile.save_factors(factors_path, chosen)
        artifacts.append(factors_path)
        report = {
            "layer_index": index,
            "c_out": c_out,
            "c_in": c_in,
            "k": k,
            "n_basis": plan.n_basis,
            "n_cross": plan.n_cross,
            "intra_active": plan.intra_active,
            "cross_active": plan.cross_active,
            "l2_residual": l2_residual,
            "svd_residual": svd_residual,
            "chosen": "l2" if chosen is l2_factors else "svd",
            "r": generator.param_ratio(plan),
            "r_m": generator.memory_ratio(plan, merged.get("q_weight", 16)),
        }
        report_path = os.path.join(out, "init_report.json")
        dataio.atomic_write(
            report_path, (json.dumps(report, indent=2) + "\n").encode()
        )
        artifacts.append(report_path)
        _snapshot(merged, "init", out, artifacts)
    print(
        f"layer {index} ({c_out}x{c_in}x{k}x{k}) -> "
        f"l2 residual {l2_residual:.3e}, svd residual {svd_residual:.3e}"
    )
    print(f"artifacts in {out}")
    return 0


def cmd_explore(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    cfg = _train_config(merged)
    out = _ensure_out(merged)
    if "bi_list" not in merged or "bc_list" not in merged:
        raise ConfigError("missing grid: pass --bi-list and --bc-list")
    bi_list = _parse_int_list(merged["bi_list"], "bi_list")
    bc_list = _parse_int_list(merged["bc_list"], "bc_list")
    bit_settings = _parse_bit_settings(merged.get("bit_settings"))
    train_x, train_y, test_x, test_y = _load_datasets(merged)
    teacher = _load_teacher(merged)
    result = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y,
        bi_list, bc_list, bit_settings=bit_settings,
        teacher=teacher, verbose=merged.get("verbose", False),
    )
    front = explorer.pareto_front(list(result.points)) if result.points else []
    with _artifact_set() as artifacts:
        csv_path = os.path.join(out, "grid.csv")
        explorer.write_grid_csv(list(result.points), csv_path)
        artifacts.append(csv_path)
        json_path = os.path.join(out, "grid.json")
        explorer.write_grid_json(result, json_path, front=front)
        artifacts.append(json_path)
        _snapshot(merged, "explore", out, artifacts)
    print(f"explored {len(result.points)} settings, skipped {len(result.skipped)}")
    for point in front:
        mark = " *" if point.heuristic_preferred else ""
        print(
            f"pareto: B_i={point.n_basis} B_c={point.n_cross} "
            f"r_m={point.r_m:.4f} acc={point.accuracy:.4f}{mark}"
        )
    print(f"artifacts in {out}")
    return 0


def cmd_cost(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    dev = _device_params(merged)
    c_out = merged.get("c_out", 128)
    c_in = merged.get("c_in", 128)
    k = merged.get("k", 3)
    n_basis = merged.get("n_basis", 2)
    n_cross = merged.get("n_cross", 40)
    plan = generator.plan_layer(
        c_out, c_in, k, n_basis, n_cross,
        q_basis=merged.get("q_basis", 4),
        q_coeff=merged.get("q_coeff", 4),
        q_mixer=merged.get("q_mixer", 4),
    )
    q_weight = merged.get("q_weight", 16)
    report = costmodel.speedup_report([plan], q_weight=q_weight, dev=dev)
    layer = report.layers[0]
    print(f"layer {c_out}x{c_in}x{k}x{k}, B_i={n_basis}, B_c={n_cross}")
    print(f"  parameter ratio r:        {layer.r:.4f}")
    print(f"  memory ratio r_m:         {layer.r_m:.4f}")
    print(f"  generation latency:       {layer.gen_latency * 1e12:.1f} ps")
    print(f"  load baseline:            {layer.load_baseline * 1e6:.3f} us")
    print(f"  load time saved:          {layer.load_saved * 1e6:.1f} us")
    print(f"  DAC energy reduction:     {layer.dac_reduction * 100:.1f}%")
    if layer.net_loss:
        print("  warning: generation latency exceeds the load time it saves")
    out = merged.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        with _artifact_set() as artifacts:
            path = os.path.join(out, "cost.json")
            dataio.atomic_write(
                path, (json.dumps(report.as_dict(), indent=2) + "\n").encode()
            )
            artifacts.append(path)
            _snapshot(merged, "cost", out, artifacts)
        print(f"artifacts in {out}")
    return 0


def cmd_analyze(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    ckpt = merged.get("checkpoint")
    if not ckpt:
        raise ConfigError("missing checkpoint: pass --checkpoint with a path")
    model, _, _ = training.load_checkpoint(ckpt)
    stats = explorer.layer_correlations(model)
    rows = []
    for entry in stats:
        intra = (
            None
            if entry.intra is None
            else {"mean": entry.intra.mean, "std": entry.intra.std}
        )
        rows.append(
            {
                "layer": entry.index,
                "c_out": entry.c_out,
                "c_in": entry.c_in,
                "k": entry.k,
                "cross": entry.cross.mean,
                "intra": intra,
            }
        )
        intra_text = (
            "skipped (1x1)"
            if entry.intra is None
            else f"{entry.intra.mean:.4f} +/- {entry.intra.std:.4f}"
        )
        print(
            f"layer {entry.index}: {entry.c_out}x{entry.c_in}x{entry.k}x{entry.k} "
            f"cross={entry.cross.mean:.4f} intra={intra_text}"
        )
    out = merged.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        with _artifact_set() as artifacts:
            path = os.path.join(out, "correlations.json")
            dataio.atomic_write(
                path, (json.dumps(rows, indent=2) + "\n").encode()
            )
            artifacts.append(path)
            _snapshot(merged, "analyze", out, artifacts)
        print(f"artifacts in {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="base PRNG seed")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--bi", type=int, dest="n_basis", help="intra-kernel cardinality B_i")
    parser.add_argument("--bc", type=int, dest="n_cross", help="cross-kernel cardinality B_c")
    parser.add_argument("--qb", type=int, dest="q_basis", help="basis bitwidth q_b")
    parser.add_argument("--qu", type=int, dest="q_coeff", help="coefficient bitwidth q_u")
    parser.add_argument("--qv", type=int, dest="q_mixer", help="mixer bitwidth q_v")


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help=f"dataset root (default ${DATA_ENV_VAR})")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--arch", help="architecture string, e.g. C32K5S2-C32K5S1-AvgPool3-FC10")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--lr", type=float)
    parser.add_argument("--lr-decay", type=float, dest="lr_decay")
    parser.add_argument("--wd", type=float, dest="weight_decay")
    parser.add_argument("--lambda", type=float, dest="ortho_weight",
                        help="orthogonality regularization weight")
    parser.add_argument("--beta", type=float, help="distillation mixing weight")
    parser.add_argument("--temperature", type=float, help="distillation temperature")
    parser.add_argument("--generated", help="comma list of conv layer indices to factorize")
    parser.add_argument("--init", choices=("l2", "svd", "random"))
    parser.add_argument("--init-iters", type=int, dest="init_iters")
    parser.add_argument("--act-bits", type=int, dest="act_bits")
    parser.add_argument("--teacher", help="checkpoint to distill from")
    parser.add_argument("--limit-train", type=int, dest="limit_train",
                        help="use only the first N training samples")
    parser.add_argument("--limit-test", type=int, dest="limit_test",
                        help="use only the first N test samples")
    parser.add_argument("--verbose", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightgen",
        description="Two-level factorized weight generation: train, "
        "initialize, explore, and cost such layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network, writing checkpoint + metrics")
    _add_common(p_train)
    _add_training(p_train)
    p_train.set_defaults(func=cmd_train)

    p_init = sub.add_parser("init", help="fit factors to one dense conv layer of a checkpoint")
    _add_common(p_init)
    p_init.add_argument("--teacher", help="checkpoint holding the dense layer")
    p_init.add_argument("--layer", type=int, help="conv layer index (default 0)")
    p_init.add_argument("--init-iters", type=int, dest="init_iters")
    p_init.add_argument("--q-weight", type=int, dest="q_weight",
                        help="dense bitwidth for the memory ratio")
    p_init.set_defaults(func=cmd_init)

    p_explore = sub.add_parser("explore", help="grid search over cardinalities and bitwidths")
    _add_common(p_explore)
    _add_training(p_explore)
    p_explore.add_argument("--bi-list", dest="bi_list", help="comma list of B_i values")
    p_explore.add_argument("--bc-list", dest="bc_list", help="comma list of B_c values")
    p_explore.add_argument("--bits-list", dest="bit_settings",
                           help="semicolon list of q_b,q_u,q_v triples")
    p_explore.set_defaults(func=cmd_explore)

    p_cost = sub.add_parser("cost", help="latency and memory report for a layer setting")
    _add_common(p_cost)
    p_cost.add_argument("--co", type=int, dest="c_out", help="output channels")
    p_cost.add_argument("--ci", type=int, dest="c_in", help="input channels")
    p_cost.add_argument("--k", type=int, help="kernel size")
    p_cost.add_argument("--q-weight", type=int, dest="q_weight",
                        help="dense weight bitwidth (default 16)")
    p_cost.add_argument("--dac-latency", type=float, dest="dac_latency")
    p_cost.add_argument("--mod-latency", type=float, dest="mod_latency")
    p_cost.add_argument("--oe-latency", type=float, dest="oe_latency")
    p_cost.add_argument("--ring-diameter", type=float, dest="ring_diameter")
    p_cost.add_argument("--group-index", type=float, dest="group_index")
    p_cost.add_argument("--sram-bandwidth", type=float, dest="sram_bandwidth")
    p_cost.set_defaults(func=cmd_cost)

    p_analyze = sub.add_parser("analyze", help="kernel-correlation metrics of a checkpoint")
    _add_common(p_analyze)
    p_analyze.add_argument("--checkpoint", help="checkpoint file to analyze")
    p_analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except WeightgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
