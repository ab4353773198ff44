"""Per-layer metrics computed from the traced run's span summary.

Each metric reduces a set of span names. ``self`` sums self time (the
span's duration minus its children's), ``incl`` sums whole durations
(used for phases whose saving would remove their children too), ``calls``
counts spans and ``amount`` sums the work computed from argument shapes.

Values are per unit of work (an operation for distill, a grid point for
explore), as the median over traced operations. Metrics marked ``setup`` also add what one traced set-up spent
in them, because set-up is where those layers do most of their work.
"""

from __future__ import annotations

import statistics

# name: (unit, kind, span names or a module prefix ending in ".", setup)
PER_LAYER = {
    "nn.conv0.fwd_ms": ("ms", "self", ("nn.conv0.fwd",), False),
    "nn.conv0.bwd_ms": ("ms", "self", ("nn.conv0.bwd",), False),
    "nn.gconv1.fwd_ms": ("ms", "self", ("nn.gconv1.fwd",), False),
    "nn.gconv1.bwd_ms": ("ms", "self", ("nn.gconv1.bwd",), False),
    "nn.gconv2.fwd_ms": ("ms", "self", ("nn.gconv2.fwd",), False),
    "nn.gconv2.bwd_ms": ("ms", "self", ("nn.gconv2.bwd",), False),
    "nn.bn.fwd_ms": ("ms", "self", ("nn.bn.fwd",), False),
    "nn.bn.bwd_ms": ("ms", "self", ("nn.bn.bwd",), False),
    "nn.other.ms": ("ms", "self", ("nn.other.fwd", "nn.other.bwd"), False),
    "nn.teacher_fwd_ms": ("ms", "incl", ("nn.teacher_fwd",), False),
    "nn.teacher_fwd_calls": ("count", "calls", ("nn.teacher_fwd",), False),
    "nn.build_network_calls": ("count", "calls", ("nn.build_network",), False),
    "tensor.im2col_ms": ("ms", "self", ("tensor.im2col",), False),
    "tensor.im2col_mb": ("MB", "amount", ("tensor.im2col",), False),
    "tensor.col2im_ms": ("ms", "self", ("tensor.col2im",), False),
    "tensor.matmul_ms": ("ms", "self", ("tensor.matmul",), False),
    "tensor.matmul_gflop": ("GFLOP", "amount", ("tensor.matmul",), False),
    "tensor.svd_ms": ("ms", "self", ("tensor.svd",), False),
    "tensor.svd_calls": ("count", "calls", ("tensor.svd",), False),
    "generator.forward_ms": ("ms", "self", ("generator.forward",), False),
    "generator.forward_calls": ("count", "calls", ("generator.forward",), False),
    "generator.backward_ms": ("ms", "self", ("generator.backward",), False),
    "quantize.ms": ("ms", "self", ("quantize.",), False),
    "quantize.quantize_codes_calls": ("count", "calls", ("quantize.quantize_codes",), False),
    "optim.step_ms": ("ms", "self", ("optim.RAdam.step",), False),
    "optim.step_calls": ("count", "calls", ("optim.RAdam.step",), False),
    "training.kd_loss_ms": ("ms", "self",
                            ("training.kd_loss", "training.log_softmax", "training.softmax"),
                            False),
    "training.ortho_reg_ms": ("ms", "self", ("training.ortho_reg",), False),
    "training.evaluate_ms": ("ms", "incl", ("training.evaluate",), False),
    "training.svd_init_ms": ("ms", "self", ("training.svd_init",), False),
    "training.svd_init_calls": ("count", "calls", ("training.svd_init",), False),
    "training.l2_project_init_ms": ("ms", "self", ("training.l2_project_init",), False),
    "training.save_checkpoint_ms": ("ms", "self", ("training.save_checkpoint",), True),
    "training.load_checkpoint_ms": ("ms", "self", ("training.load_checkpoint",), True),
    "factorfile.save_ms": ("ms", "self",
                           ("factorfile.save_factors", "factorfile.factors_to_bytes"), True),
    "dataio.load_idx_ms": ("ms", "self", ("dataio.load_idx",), True),
    "dataio.load_idx_mb": ("MB", "amount", ("dataio.load_idx",), True),
    "cli.ms": ("ms", "self", ("cli.",), False),
}
# Derived from the table above; see reduce().
SVD_INIT_PER_LAYER = "training.svd_init_per_layer"
TRACE_OVERHEAD = "trace.overhead_pct"
UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}
UNITS[SVD_INIT_PER_LAYER] = "ratio"
UNITS[TRACE_OVERHEAD] = "%"
COUNT_KINDS = ("calls", "amount")


def _matches(span_name: str, patterns) -> bool:
    return any(span_name.startswith(p) if p.endswith(".") else span_name == p
               for p in patterns)


def _value(rows: dict, kind: str, patterns) -> float:
    total = 0.0
    for span_name, row in rows.items():
        if not _matches(span_name, patterns):
            continue
        if kind == "self":
            total += row["self_s"] * 1e3
        elif kind == "incl":
            total += row["incl_s"] * 1e3
        elif kind == "calls":
            total += row["calls"]
        else:
            total += row["amount"]
    return total


def reduce(setup_rows: dict, op_rows: list[dict], units_per_op: int,
           layers_fitted_per_op: int) -> tuple[dict, list[str]]:
    """Per-layer metric values, and the names of counts that differed
    between traced operations (they must repeat exactly)."""
    values, unsteady = {}, []
    for name, (_, kind, patterns, from_setup) in PER_LAYER.items():
        per_op = [_value(rows, kind, patterns) / units_per_op for rows in op_rows]
        if kind in COUNT_KINDS and len(set(per_op)) > 1:
            unsteady.append(name)
        value = statistics.median(per_op)
        if from_setup:
            value += _value(setup_rows, kind, patterns)
        values[name] = value
    svd_calls = values["training.svd_init_calls"] * units_per_op
    values[SVD_INIT_PER_LAYER] = (svd_calls / layers_fitted_per_op
                                  if layers_fitted_per_op else 0.0)
    return values, unsteady
