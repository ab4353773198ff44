"""Command-line front end for training, initialization, exploration,
cost reporting, and checkpoint analysis.

Every run resolves its configuration from three layers (built-in
defaults, then a JSON config file, then explicit flags) and writes its
files through one artifact set: the command's artifacts, then the
resolved configuration as config.json, last.  If the run fails midway,
every file of the set is removed, so a config.json marks a complete set.
The snapshot holds every setting the command used, defaults included, so
re-running any command from its own snapshot reproduces the outputs.

Each setting is declared once, in SETTINGS.  Its type is the annotation
of the TrainConfig or DeviceParams field of that name, or the run-level
annotation its entry gives; its flag, its parsing and its check all
follow that annotation, and every value is parsed and checked before a
command runs, also those the command does not use.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import NamedTuple

from . import costmodel, dataio, explorer, factorfile, generator, nn, training
from .dataio import DATA_ENV_VAR
from .errors import ConfigError, WeightgenError


class Setting(NamedTuple):
    key: str                       # config key and flag dest
    flag: str | None               # None: a config key with no flag
    commands: tuple[str, ...]      # subcommands that take the flag
    help: str
    annotation: str | None = None  # run-level keys only; "list" marks bit triples


_ALL = ("train", "init", "explore", "cost", "analyze")
_FIT = ("train", "explore")
_TEACHER = ("train", "init", "explore")
_LAYER = ("train", "init", "cost")  # commands that build one layer setting

SETTINGS = (
    Setting("command", None, (), "the subcommand that wrote a snapshot", "str"),
    Setting("seed", "--seed", _FIT, "base PRNG seed"),
    Setting("out", "--out", _ALL, "output directory for artifacts", "str"),
    Setting("n_basis", "--bi", _LAYER, "intra-kernel cardinality B_i"),
    Setting("n_cross", "--bc", _LAYER, "cross-kernel cardinality B_c"),
    Setting("q_basis", "--qb", _LAYER + ("explore",), "basis bitwidth q_b"),
    Setting("q_coeff", "--qu", _LAYER + ("explore",), "coefficient bitwidth q_u"),
    Setting("q_mixer", "--qv", _LAYER + ("explore",), "mixer bitwidth q_v"),
    Setting("data", "--data", _FIT, f"dataset root (default ${DATA_ENV_VAR})", "str"),
    Setting("epochs", "--epochs", _FIT, "training epochs"),
    Setting("arch", "--arch", _FIT, "architecture string, e.g. C32K5S2-C32K5S1-AvgPool3-FC10"),
    Setting("batch_size", "--batch-size", _FIT, "mini-batch size"),
    Setting("lr", "--lr", _FIT, "initial learning rate"),
    Setting("lr_decay", "--lr-decay", _FIT, "learning-rate factor per epoch"),
    Setting("weight_decay", "--wd", _FIT, "weight decay"),
    Setting("ortho_weight", "--lambda", _FIT, "orthogonality regularization weight"),
    Setting("beta", "--beta", _FIT, "distillation mixing weight"),
    Setting("temperature", "--temperature", _FIT, "distillation temperature"),
    Setting("generated", "--generated", _FIT, "comma list of conv layer indices to factorize"),
    Setting("init", "--init", _FIT,
            f"stage-1 fit of the generated layers: {', '.join(training.INIT_METHODS)}"),
    Setting("init_iters", "--init-iters", _TEACHER, "l2 projection steps"),
    Setting("act_bits", "--act-bits", _FIT, "activation bitwidth (default unquantized)"),
    Setting("teacher", "--teacher", _TEACHER, "dense checkpoint to distill from or fit", "str"),
    Setting("limit_train", "--limit-train", _FIT, "use only the first N training samples", "int"),
    Setting("limit_test", "--limit-test", _FIT, "use only the first N test samples", "int"),
    Setting("verbose", "--verbose", _FIT, "print one line per epoch", "bool"),
    Setting("layer", "--layer", ("init",), "conv layer index (default 0)", "int"),
    Setting("q_weight", "--q-weight", ("init", "cost"),
            f"dense weight bitwidth (default {generator.DENSE_BITS})", "int"),
    Setting("bi_list", "--bi-list", ("explore",), "comma list of B_i values",
            "tuple[int, ...]"),
    Setting("bc_list", "--bc-list", ("explore",), "comma list of B_c values",
            "tuple[int, ...]"),
    Setting("bit_settings", "--bits-list", ("explore",),
            "semicolon list of q_b,q_u,q_v triples", "list"),
    Setting("c_out", "--co", ("cost",), "output channels", "int"),
    Setting("c_in", "--ci", ("cost",), "input channels", "int"),
    Setting("k", "--k", ("cost",), "kernel size", "int"),
    Setting("dac_latency", "--dac-latency", ("cost",), "DAC latency in seconds"),
    Setting("mod_latency", "--mod-latency", ("cost",), "modulator latency in seconds"),
    Setting("oe_latency", "--oe-latency", ("cost",), "O/E conversion latency in seconds"),
    Setting("ring_diameter", "--ring-diameter", ("cost",), "ring diameter in meters"),
    Setting("group_index", "--group-index", ("cost",), "waveguide group index"),
    Setting("sram_bandwidth", "--sram-bandwidth", ("cost",), "SRAM bandwidth in bytes/s"),
    Setting("checkpoint", "--checkpoint", ("analyze",), "checkpoint file to analyze", "str"),
)

_RUN_TYPES = {s.key: s.annotation for s in SETTINGS if s.annotation}
# Every key a config file may hold -> its annotation.
CONFIG_TYPES = {
    **{f.name: f.type for f in dataclasses.fields(training.TrainConfig)},
    **{f.name: f.type for f in dataclasses.fields(costmodel.DeviceParams)},
    **_RUN_TYPES,
}
# Annotation -> argparse type.  Other flags keep their string: a list that
# _parse splits, or a string setting.
_FLAG_TYPES = {"int": int, "int | None": int, "float": float}
# The layer that cost reports on by default.
_COST_LAYER = {"c_out": 128, "c_in": 128, "k": 3, "n_basis": 2, "n_cross": 40,
               "q_basis": 4, "q_coeff": 4, "q_mixer": 4}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ConfigError(f"config file {path!r} is not valid UTF-8 JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    # A retired key is dropped; a null run-level key leaves the setting unset.
    for key, value in list(doc.items()):
        if key in training.RETIRED_CONFIG_KEYS or (key in _RUN_TYPES and value is None):
            del doc[key]
        elif key not in CONFIG_TYPES:
            raise ConfigError(f"unknown config field {key!r} in {path}")
    return doc


def _parse_ints(key: str, value) -> tuple[int, ...]:
    """A comma string's items go through int(); a JSON list must hold
    integers already."""
    if isinstance(value, str):
        try:
            value = [int(v) for v in value.split(",") if v != ""]
        except ValueError:
            raise ConfigError(
                f"config field {key!r} must be a comma list of integers, got {value!r}"
            )
    training.check_field(key, "tuple[int, ...]", value)
    return tuple(value)


def _parse_bit_settings(value) -> tuple[tuple[int, int, int], ...]:
    """Semicolon-separated q_b,q_u,q_v triples, e.g. '4,4,8;8,8,8'."""
    if isinstance(value, str):
        value = [v for v in value.split(";") if v != ""]
    if not isinstance(value, list) or not value:
        raise ConfigError(
            f"config field 'bit_settings' must be a nonempty list of triples, got {value!r}"
        )
    triples = []
    for item in value:
        triple = _parse_ints("bit_settings", item)
        if len(triple) != 3:
            raise ConfigError(
                f"config field 'bit_settings' must hold q_b,q_u,q_v triples, got {item!r}"
            )
        triples.append(triple)
    return tuple(triples)


def _parse(key: str, value):
    """value as its setting's annotation asks, or a ConfigError naming key."""
    annotation = CONFIG_TYPES[key]
    if annotation == "list":
        return _parse_bit_settings(value)
    if annotation == "tuple[int, ...]":
        return _parse_ints(key, value)
    training.check_field(key, annotation, value)
    return value


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge the config file and flags into one settings dict, every value
    parsed and checked; each command adds its own defaults."""
    merged = _load_config_file(ns.config) if ns.config else {}
    for key, value in vars(ns).items():
        if key not in ("config", "func", "command") and value is not None:
            merged[key] = value
    merged = {key: _parse(key, value) for key, value in merged.items()}
    merged.pop("command", None)
    return merged


def _build(cls, merged: dict):
    """A TrainConfig or DeviceParams from the settings named by its fields;
    the defaults it fills in are written back into merged."""
    names = {f.name for f in dataclasses.fields(cls)}
    obj = cls(**{k: v for k, v in merged.items() if k in names})
    merged.update(dataclasses.asdict(obj))
    return obj


@contextlib.contextmanager
def _artifact_set(out: str, merged: dict, command: str):
    """Make the output directory and yield artifact(name), which records and
    returns out/name; then write the resolved settings, reloadably, to
    config.json.  If the run fails midway, every recorded file is removed,
    and so is the directory if this call made it and nothing else is in it."""
    made = not os.path.isdir(out)
    os.makedirs(out, exist_ok=True)
    written: list[str] = []

    def artifact(name: str) -> str:
        written.append(os.path.join(out, name))
        return written[-1]

    try:
        yield artifact
        dataio.write_json(artifact("config.json"),
                          {"command": command, **dict(sorted(merged.items()))})
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if made:
            with contextlib.suppress(OSError):  # not empty: kept
                os.rmdir(out)
        raise


def _require_out(merged: dict) -> str:
    """The output directory, checked up front; _artifact_set makes it only
    once there are artifacts to write."""
    out = merged.get("out")
    if not out:
        raise ConfigError("missing output directory: pass --out or set 'out' in the config")
    return out


def _write_report(merged: dict, command: str, name: str, doc) -> None:
    """Write doc as the JSON artifact name, with config.json, if the settings
    name an output directory; cost and analyze only print without one."""
    out = merged.get("out")
    if out:
        with _artifact_set(out, merged, command) as artifact:
            dataio.write_json(artifact(name), doc)
        print(f"artifacts in {out}")


def _load_datasets(merged: dict):
    root = dataio.resolve_data_root(merged.get("data"))
    train_ds = dataio.load_fashion_split(root, "train")
    test_ds = dataio.load_fashion_split(root, "test")
    n_train, n_test = merged.get("limit_train"), merged.get("limit_test")
    return (train_ds.images[:n_train], train_ds.labels[:n_train],
            test_ds.images[:n_test], test_ds.labels[:n_test])


def _load_teacher(merged: dict):
    path = merged.get("teacher")
    if not path:
        return None
    model, _, _ = training.load_checkpoint(path)
    return model


def cmd_train(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    cfg = _build(training.TrainConfig, merged)
    out = _require_out(merged)
    train_x, train_y, test_x, test_y = _load_datasets(merged)
    teacher = _load_teacher(merged)
    result = training.train(
        cfg, train_x, train_y, test_x, test_y,
        teacher=teacher, verbose=merged.get("verbose", False),
    )
    with _artifact_set(out, merged, "train") as artifact:
        training.write_metrics(artifact("metrics.csv"), result.metrics)
        training.save_checkpoint(artifact("checkpoint.npz"), result.model, cfg, epoch=cfg.epochs)
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
    merged = {"layer": 0, "q_weight": generator.DENSE_BITS, **_resolve(ns)}
    cfg = _build(training.TrainConfig, merged)
    out = _require_out(merged)
    model = _load_teacher(merged)
    if model is None:
        raise ConfigError("missing teacher: pass --teacher with a checkpoint path")
    convs = model.conv_layers()
    index = merged["layer"]
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
    _, svd_residual = training.svd_init(target, plan)
    factors, l2_residual = training.l2_project_init(target, plan, iters=cfg.init_iters)
    with _artifact_set(out, merged, "init") as artifact:
        factorfile.save_factors(artifact("factors.isgw"), factors)
        dataio.write_json(artifact("init_report.json"), {
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
            "chosen": "l2" if l2_residual < svd_residual else "svd",
            "r": generator.param_ratio(plan),
            "r_m": generator.memory_ratio(plan, merged["q_weight"]),
        })
    print(
        f"layer {index} ({c_out}x{c_in}x{k}x{k}) -> "
        f"l2 residual {l2_residual:.3e}, svd residual {svd_residual:.3e}"
    )
    print(f"artifacts in {out}")
    return 0


def cmd_explore(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    cfg = _build(training.TrainConfig, merged)
    bit_settings = merged.setdefault("bit_settings", None)
    if "bi_list" not in merged or "bc_list" not in merged:
        raise ConfigError("missing grid: pass --bi-list and --bc-list")
    out = _require_out(merged)
    train_x, train_y, test_x, test_y = _load_datasets(merged)
    teacher = _load_teacher(merged)
    result = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y,
        merged["bi_list"], merged["bc_list"], bit_settings=bit_settings,
        teacher=teacher, verbose=merged.get("verbose", False),
    )
    front = explorer.pareto_front(list(result.points)) if result.points else []
    with _artifact_set(out, merged, "explore") as artifact:
        explorer.write_grid_csv(list(result.points), artifact("grid.csv"))
        explorer.write_grid_json(result, artifact("grid.json"), front=front)
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
    merged = {**_COST_LAYER, "q_weight": generator.DENSE_BITS, **_resolve(ns)}
    dev = _build(costmodel.DeviceParams, merged)
    plan = generator.plan_layer(**{key: merged[key] for key in _COST_LAYER})
    report = costmodel.speedup_report([plan], q_weight=merged["q_weight"], dev=dev)
    layer = report.layers[0]
    print("layer {c_out}x{c_in}x{k}x{k}, B_i={n_basis}, B_c={n_cross}".format(**merged))
    print(f"  parameter ratio r:        {layer.r:.4f}")
    print(f"  memory ratio r_m:         {layer.r_m:.4f}")
    print(f"  generation latency:       {layer.gen_latency * 1e12:.1f} ps")
    print(f"  load baseline:            {layer.load_baseline * 1e6:.3f} us")
    print(f"  load time saved:          {layer.load_saved * 1e6:.1f} us")
    print(f"  DAC energy reduction:     {layer.dac_reduction * 100:.1f}%")
    if layer.net_loss:
        print("  warning: generation latency exceeds the load time it saves")
    _write_report(merged, "cost", "cost.json", dataclasses.asdict(report))
    return 0


def cmd_analyze(ns: argparse.Namespace) -> int:
    merged = _resolve(ns)
    ckpt = merged.get("checkpoint")
    if not ckpt:
        raise ConfigError("missing checkpoint: pass --checkpoint with a path")
    model, _, _ = training.load_checkpoint(ckpt)
    rows = explorer.layer_correlations(model)
    for row in rows:
        intra = row["intra"]
        intra_text = ("skipped (1x1)" if intra is None
                      else f"{intra['mean']:.4f} +/- {intra['std']:.4f}")
        print(f"layer {row['layer']}: {row['c_out']}x{row['c_in']}x{row['k']}x{row['k']} "
              f"cross={row['cross']:.4f} intra={intra_text}")
    _write_report(merged, "analyze", "correlations.json", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each takes --config and the SETTINGS
    flags that name it, typed by the setting's annotation."""
    parser = argparse.ArgumentParser(
        prog="weightgen",
        description="Two-level factorized weight generation: train, "
        "initialize, explore, and cost such layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
        ("train", cmd_train, "train a network, writing checkpoint + metrics"),
        ("init", cmd_init, "fit factors to one dense conv layer of a checkpoint"),
        ("explore", cmd_explore, "grid search over cardinalities and bitwidths"),
        ("cost", cmd_cost, "latency and memory report for a layer setting"),
        ("analyze", cmd_analyze, "kernel-correlation metrics of a checkpoint"),
    ):
        p = sub.add_parser(command, help=text, allow_abbrev=False)  # --bi is not --bi-list
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for s in SETTINGS:
            if command not in s.commands:
                continue
            annotation = CONFIG_TYPES[s.key]
            if annotation == "bool":
                p.add_argument(s.flag, dest=s.key, action="store_true", default=None,
                               help=s.help)
            else:
                p.add_argument(s.flag, dest=s.key, type=_FLAG_TYPES.get(annotation),
                               help=s.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (WeightgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
