"""Design-space exploration over cardinalities and bitwidths.

Three jobs live here: the singular-value concentration metric that
motivates sharing kernels across a layer, a grid search that trains one
student per (cardinality, bitwidth) setting against a shared teacher,
and Pareto-front extraction over (memory ratio, accuracy).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time

import numpy as np

from . import dataio, generator, nn, tensor, training
from .errors import ConfigError, DegenerateFactorError, ShapeError, WeightgenError

# Fraction of the singular values counted as the "top" mass.
TOP_FRACTION = 0.3

GRID_COLUMNS = ("B_i", "B_c", "q_b", "q_u", "q_v", "r", "r_m", "acc")


@dataclasses.dataclass(frozen=True)
class KernelCorrelation:
    """Top-singular-value mass of a kernel matrix.

    mean is the fraction of total singular value mass carried by the top
    ceil(TOP_FRACTION * n) singular values. In intra mode the metric is
    computed per output kernel and std is the spread across kernels; in
    cross mode there is a single matrix and std is None.
    """

    mean: float
    std: float | None


@dataclasses.dataclass(frozen=True)
class ExplorationPoint:
    """One grid-search setting with its ratios and measured accuracy."""

    n_basis: int
    n_cross: int
    q_basis: int
    q_coeff: int
    q_mixer: int
    r: float
    r_m: float
    accuracy: float
    runtime: float
    heuristic_preferred: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class SkippedSetting:
    """A grid setting that could not be instantiated, with the reason."""

    n_basis: int
    n_cross: int
    q_basis: int
    q_coeff: int
    q_mixer: int
    reason: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class GridResult:
    points: tuple[ExplorationPoint, ...]
    skipped: tuple[SkippedSetting, ...]


@dataclasses.dataclass(frozen=True)
class LayerCorrelation:
    """Correlation metrics for one convolution layer of a model."""

    index: int
    c_out: int
    c_in: int
    k: int
    intra: KernelCorrelation | None
    cross: KernelCorrelation


def _top_mass(sigma: np.ndarray) -> float:
    total = float(np.sum(sigma))
    if total <= 0.0:
        raise DegenerateFactorError(
            "all-zero kernel has no singular value mass to measure"
        )
    count = math.ceil(TOP_FRACTION * sigma.size)
    return float(np.sum(sigma[:count])) / total


def kernel_correlation(weight: np.ndarray, mode: str = "cross") -> KernelCorrelation | None:
    """Fraction of singular value mass in the top ceil(0.3 n) values.

    weight is a (c_out, c_in, k, k) kernel tensor; cross mode also
    accepts an already flattened (c_out, c_in*k*k) matrix. Cross mode
    measures the matrix of flattened kernels as a whole. Intra mode
    measures each output kernel's (c_in, k*k) matrix separately and
    reports mean and spread across kernels; 1x1 kernels carry no intra
    structure, so intra mode returns None for them.
    """
    w = np.asarray(weight, dtype=np.float64)
    if mode == "cross":
        if w.ndim == 4:
            w = w.reshape(w.shape[0], -1)
        if w.ndim != 2 or min(w.shape) < 1:
            raise ShapeError(f"cross mode needs a matrix, got shape {w.shape}")
        return KernelCorrelation(mean=_top_mass(tensor.singular_values(w)), std=None)
    if mode == "intra":
        if w.ndim != 4:
            raise ShapeError(f"intra mode needs a 4-d kernel tensor, got shape {w.shape}")
        c_out, c_in, kh, kw = w.shape
        if kh != kw:
            raise ShapeError(f"kernels must be square, got {kh}x{kw}")
        if kh == 1:
            return None
        sigmas = tensor.singular_values(w.reshape(c_out, c_in, kh * kw))
        fractions = [_top_mass(sigma) for sigma in sigmas]
        return KernelCorrelation(
            mean=float(np.mean(fractions)), std=float(np.std(fractions))
        )
    raise ConfigError(f"mode must be 'intra' or 'cross', got {mode!r}")


def heuristic_preferred_plan(plan: generator.GenPlan) -> bool:
    """Small-intra / medium-cross rule of thumb for one layer.

    A setting is preferred when the intra cardinality is at most 3 and
    the cross cardinality lands in the middle band [0.25, 0.5] of
    min(c_out, c_in*k*k), where accuracy is typically already saturated
    while the ratio is still low.
    """
    bound = min(plan.c_out, plan.c_in * plan.kk)
    return plan.n_basis <= 3 and 0.25 * bound <= plan.n_cross <= 0.5 * bound


def _model_plans(model: nn.Sequential) -> list[generator.GenPlan]:
    return [layer.factors.plan for layer in model.generated_layers()]


def _aggregate_ratios(plans: list[generator.GenPlan], dense_bits: int = 16) -> tuple[float, float]:
    """Stored/dense ratios summed over a set of generated layers."""
    dense = sum(generator.dense_param_count(p) for p in plans)
    stored = sum(generator.param_count(p) for p in plans)
    stored_bits = sum(generator.memory_bits(p) for p in plans)
    if dense == 0:
        raise ConfigError("no generated layers to aggregate ratios over")
    return stored / dense, stored_bits / (dense * dense_bits)


def grid_search(
    base_cfg: training.TrainConfig,
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    n_basis_list: list[int],
    n_cross_list: list[int],
    bit_settings: list[tuple[int, int, int]] | None = None,
    teacher: nn.Sequential | None = None,
    dense_bits: int = 16,
    verbose: bool = False,
) -> GridResult:
    """Train one student per setting and record ratios and accuracy.

    Every grid point reuses base_cfg with only the cardinalities and
    bitwidths replaced, and keeps base_cfg.seed, so each point is
    deterministic and a 1x1 grid reproduces a direct train() call
    bit for bit. The teacher is shared across points: every point's
    stage 1 fits its kernels, and its logits on train_x are computed once
    per call and passed to every point's stage 2.
    Settings whose layer plans cannot be built are skipped and the
    reason is recorded instead of aborting the sweep.
    """
    if not n_basis_list or not n_cross_list:
        raise ConfigError("cardinality lists must be nonempty")
    if not base_cfg.generated:
        raise ConfigError("base config must mark at least one layer as generated")
    if bit_settings is None:
        bit_settings = [(base_cfg.q_basis, base_cfg.q_coeff, base_cfg.q_mixer)]
    teacher_logits = None
    if teacher is not None:
        teacher_logits = training.predict(teacher, train_x, base_cfg.batch_size)
    points: list[ExplorationPoint] = []
    skipped: list[SkippedSetting] = []
    for n_basis in n_basis_list:
        for n_cross in n_cross_list:
            for q_basis, q_coeff, q_mixer in bit_settings:
                cfg = dataclasses.replace(
                    base_cfg,
                    n_basis=n_basis,
                    n_cross=n_cross,
                    q_basis=q_basis,
                    q_coeff=q_coeff,
                    q_mixer=q_mixer,
                )
                try:
                    training.build_model(cfg)
                except WeightgenError as exc:
                    skipped.append(
                        SkippedSetting(
                            n_basis=n_basis,
                            n_cross=n_cross,
                            q_basis=q_basis,
                            q_coeff=q_coeff,
                            q_mixer=q_mixer,
                            reason=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    if verbose:
                        print(f"skip B_i={n_basis} B_c={n_cross}: {exc}")
                    continue
                start = time.perf_counter()
                result = training.train(
                    cfg, train_x, train_y, test_x, test_y, teacher=teacher,
                    teacher_logits=teacher_logits,
                )
                runtime = time.perf_counter() - start
                plans = _model_plans(result.model)
                r, r_m = _aggregate_ratios(plans, dense_bits=dense_bits)
                point = ExplorationPoint(
                    n_basis=n_basis,
                    n_cross=n_cross,
                    q_basis=q_basis,
                    q_coeff=q_coeff,
                    q_mixer=q_mixer,
                    r=r,
                    r_m=r_m,
                    accuracy=float(result.metrics[-1]["test_acc"]),
                    runtime=runtime,
                    heuristic_preferred=all(
                        heuristic_preferred_plan(p) for p in plans
                    ),
                )
                points.append(point)
                if verbose:
                    print(
                        f"B_i={n_basis} B_c={n_cross} q=({q_basis},{q_coeff},{q_mixer})"
                        f" r={point.r:.4f} r_m={point.r_m:.4f} acc={point.accuracy:.4f}"
                    )
    return GridResult(points=tuple(points), skipped=tuple(skipped))


def pareto_front(points: list[ExplorationPoint]) -> list[ExplorationPoint]:
    """Points not dominated in (lower r_m, higher accuracy).

    A point dominates another when it is at least as good in both
    coordinates and strictly better in one. The result is sorted by
    r_m ascending; points tied in both coordinates are all kept, in
    their original relative order.
    """
    if not points:
        raise ConfigError("pareto_front needs at least one point")
    order = sorted(points, key=lambda p: p.r_m)
    front: list[ExplorationPoint] = []
    best_acc = -math.inf
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and order[j].r_m == order[i].r_m:
            j += 1
        group = order[i:j]
        group_max = max(p.accuracy for p in group)
        if group_max > best_acc:
            front.extend(p for p in group if p.accuracy == group_max)
            best_acc = group_max
        i = j
    return front


def write_grid_csv(points: list[ExplorationPoint], path: str) -> None:
    """Contour-ready grid with one row per explored setting."""
    rows = []
    for p in points:
        rows.append(
            {
                "B_i": p.n_basis,
                "B_c": p.n_cross,
                "q_b": p.q_basis,
                "q_u": p.q_coeff,
                "q_v": p.q_mixer,
                "r": repr(p.r),
                "r_m": repr(p.r_m),
                "acc": repr(p.accuracy),
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GRID_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    dataio.atomic_write(path, buf.getvalue().encode())


def write_grid_json(result: GridResult, path: str, front: list[ExplorationPoint] | None = None) -> None:
    payload = {
        "points": [p.as_dict() for p in result.points],
        "skipped": [s.as_dict() for s in result.skipped],
    }
    if front is not None:
        payload["pareto_front"] = [p.as_dict() for p in front]
    dataio.atomic_write(path, (json.dumps(payload, indent=2) + "\n").encode())


def layer_correlations(model: nn.Sequential) -> tuple[LayerCorrelation, ...]:
    """Correlation metrics for every convolution layer of a model.

    Generated layers are measured on the weights they generate, so the
    metric reflects what the network actually convolves with.
    """
    out = []
    for index, layer in enumerate(model.layers):
        if isinstance(layer, nn.GeneratedConv2d):
            weight = generator.generate(layer.factors, quantized=layer.quantized)
        elif isinstance(layer, nn.Conv2d):
            weight = layer.weight.value
        else:
            continue
        out.append(
            LayerCorrelation(
                index=index,
                c_out=weight.shape[0],
                c_in=weight.shape[1],
                k=weight.shape[2],
                intra=kernel_correlation(weight, mode="intra"),
                cross=kernel_correlation(weight, mode="cross"),
            )
        )
    return tuple(out)
