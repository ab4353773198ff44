"""Analytic latency model for weight generation on a photonic accelerator.

Generating a kernel on chip costs one DAC conversion, a modulation and an
optical-electrical conversion on both ends, and light propagation around
the basis and mixing rings:

    t_gen = t_dac + 2*(t_mod + t_oe) + n_g * 4*R*(B_i + B_c) / c

The alternative to generation is streaming the dense weights from SRAM:
a layer of C_o*C_i*k*k weights at q_w bits takes |W|_bytes / bandwidth
seconds; storing only the factors leaves the fraction r_m of that traffic,
so the saving is (1 - r_m) of the baseline.  The group index default of
2.25 makes the propagation term match the reference hardware numbers; the
bare vacuum-speed formula would undercount it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import generator
from .errors import ConfigError
from .quantize import check_count

LIGHT_SPEED = 2.998e8  # m/s


@dataclass(frozen=True)
class DeviceParams:
    """Hardware constants of the cost model; all strictly positive and finite."""

    dac_latency: float = 400e-12       # 10 Gb/s DAC
    mod_latency: float = 50e-12
    oe_latency: float = 10e-12
    ring_diameter: float = 20e-6       # meters
    group_index: float = 2.25
    sram_bandwidth: float = 34 * 2**30  # bytes/second

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not 0 < value < math.inf:
                raise ConfigError(
                    f"device parameter {f.name} must be a positive finite number, "
                    f"got {value!r}"
                )


def generation_latency(n_basis: int, n_cross: int,
                       dev: DeviceParams = DeviceParams()) -> float:
    """Seconds to generate one kernel set on the accelerator."""
    check_count("n_basis", n_basis)
    check_count("n_cross", n_cross)
    propagation = (
        dev.group_index * 4.0 * dev.ring_diameter * (n_basis + n_cross)
        / LIGHT_SPEED
    )
    return dev.dac_latency + 2.0 * (dev.mod_latency + dev.oe_latency) + propagation


def weight_load_latency(plan: generator.GenPlan, q_weight: int = generator.DENSE_BITS,
                        dev: DeviceParams = DeviceParams()):
    """SRAM streaming time for one layer's weights.

    Returns (baseline, residual, saved) in seconds, where baseline moves
    the dense q_weight-bit tensor, residual moves only the stored factors
    (the fraction r_m), and saved is their difference, exactly.
    """
    dense_bytes = generator.dense_param_count(plan) * q_weight / 8.0
    baseline = dense_bytes / dev.sram_bandwidth
    residual = generator.memory_ratio(plan, q_weight) * baseline
    saved = baseline - residual
    # Recompute the residual from the rounded difference so that
    # saved + residual == baseline holds exactly in floating point.
    residual = baseline - saved
    return baseline, residual, saved


@dataclass(frozen=True)
class LayerCost:
    """Cost report for one generated layer."""

    c_out: int
    c_in: int
    k: int
    n_basis: int
    n_cross: int
    r: float
    r_m: float
    gen_latency: float
    load_baseline: float
    load_saved: float
    dac_reduction: float
    net_loss: bool


@dataclass(frozen=True)
class CostReport:
    layers: tuple[LayerCost, ...]
    total_gen_latency: float
    total_load_saved: float


def speedup_report(plans: list[generator.GenPlan], q_weight: int = generator.DENSE_BITS,
                   dev: DeviceParams = DeviceParams()) -> CostReport:
    """Per-layer and total generation cost versus weight-load saving.

    A layer whose generation latency meets or exceeds its saving is
    flagged as a net loss.  Settings that make a total non-finite raise a
    ConfigError naming them.
    """
    layers = []
    for plan in plans:
        gen = generation_latency(plan.n_basis, plan.n_cross, dev)
        baseline, _, saved = weight_load_latency(plan, q_weight, dev)
        r = generator.param_ratio(plan)
        layers.append(LayerCost(
            c_out=plan.c_out, c_in=plan.c_in, k=plan.k,
            n_basis=plan.n_basis, n_cross=plan.n_cross,
            r=r,
            r_m=generator.memory_ratio(plan, q_weight),
            gen_latency=gen,
            load_baseline=baseline,
            load_saved=saved,
            dac_reduction=1.0 - r,
            net_loss=gen >= saved,
        ))
    report = CostReport(
        layers=tuple(layers),
        total_gen_latency=sum(l.gen_latency for l in layers),
        total_load_saved=sum(l.load_saved for l in layers),
    )
    # finite settings can still overflow a latency (a tiny bandwidth does),
    # and a non-finite layer makes its total non-finite
    gen_settings = [f.name for f in fields(dev) if f.name != "sram_bandwidth"]
    for total, what, settings in ((report.total_gen_latency, "generation latency", gen_settings),
                                  (report.total_load_saved, "load saving", ["sram_bandwidth"])):
        if not math.isfinite(total):
            named = ", ".join(f"{name}={getattr(dev, name)!r}" for name in settings)
            raise ConfigError(f"device settings {named} give a non-finite total {what}")
    return report
