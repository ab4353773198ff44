"""Design-space exploration over cardinalities and bitwidths.

Three jobs live here: the singular-value concentration metric that
motivates sharing kernels across a layer, a grid search that trains one
student per (cardinality, bitwidth) setting against a shared teacher,
and Pareto-front extraction over (memory ratio, accuracy).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np

from . import dataio, generator, nn, tensor, training
from .errors import ConfigError, DegenerateFactorError, ShapeError, WeightgenError

# Fraction of the singular values counted as the "top" mass.
TOP_FRACTION = 0.3

# grid.csv's columns, in order, each with the ExplorationPoint field it holds.
_GRID_FIELDS = {"B_i": "n_basis", "B_c": "n_cross", "q_b": "q_basis", "q_u": "q_coeff",
                "q_v": "q_mixer", "r": "r", "r_m": "r_m", "acc": "accuracy"}
GRID_COLUMNS = tuple(_GRID_FIELDS)


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


@dataclasses.dataclass(frozen=True)
class SkippedSetting:
    """A grid setting that could not be instantiated, with the reason."""

    n_basis: int
    n_cross: int
    q_basis: int
    q_coeff: int
    q_mixer: int
    reason: str


@dataclasses.dataclass(frozen=True)
class GridResult:
    points: tuple[ExplorationPoint, ...]
    skipped: tuple[SkippedSetting, ...]


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


def _plans(cfg: training.TrainConfig) -> list[generator.GenPlan]:
    """The generated layers' plans of cfg's network, found without building
    it; raises the WeightgenError that building it would."""
    tokens = nn.plan_network(cfg.arch, cfg.in_channels, cfg.in_size, cfg.generated,
                             cfg.n_basis, cfg.n_cross, cfg.q_basis, cfg.q_coeff, cfg.q_mixer)
    return [args[-1] for kind, args in tokens if kind == "conv" and args[-1] is not None]


def _aggregate_ratios(plans: list[generator.GenPlan]) -> tuple[float, float]:
    """generator.param_ratio and memory_ratio over a set of generated
    layers, each weighted by its share of their dense parameters."""
    dense = [generator.dense_param_count(p) for p in plans]
    total = sum(dense)
    return (sum(d * generator.param_ratio(p) for d, p in zip(dense, plans)) / total,
            sum(d * generator.memory_ratio(p) for d, p in zip(dense, plans)) / total)


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
    verbose: bool = False,
) -> GridResult:
    """Train one student per setting and record ratios and accuracy.

    Every grid point reuses base_cfg with only the cardinalities and
    bitwidths replaced, and keeps base_cfg.seed, so each point is
    deterministic and a 1x1 grid reproduces a direct train() call
    bit for bit. The teacher is shared across points: every point's stage
    1 fits its kernels to it and copies its other layers, and its logits on
    train_x are computed once per call and passed to every stage 2.
    Settings whose layer plans cannot be built are skipped and the
    reason is recorded instead of aborting the sweep; the plans are checked
    without building a network, so each point's network is built once, by
    train().
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
    for n_basis, n_cross, (q_basis, q_coeff, q_mixer) in itertools.product(
            n_basis_list, n_cross_list, bit_settings):
        setting = dict(n_basis=n_basis, n_cross=n_cross, q_basis=q_basis,
                       q_coeff=q_coeff, q_mixer=q_mixer)
        cfg = dataclasses.replace(base_cfg, **setting)
        try:
            plans = _plans(cfg)
        except WeightgenError as exc:
            skipped.append(SkippedSetting(**setting, reason=f"{type(exc).__name__}: {exc}"))
            if verbose:
                print(f"skip B_i={n_basis} B_c={n_cross}: {exc}")
            continue
        start = time.perf_counter()
        result = training.train(
            cfg, train_x, train_y, test_x, test_y, teacher=teacher,
            teacher_logits=teacher_logits,
        )
        runtime = time.perf_counter() - start
        r, r_m = _aggregate_ratios(plans)
        point = ExplorationPoint(
            **setting,
            r=r,
            r_m=r_m,
            accuracy=float(result.metrics[-1]["test_acc"]),
            runtime=runtime,
            heuristic_preferred=all(heuristic_preferred_plan(p) for p in plans),
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
    front: list[ExplorationPoint] = []
    best_acc = -math.inf
    for _, group in itertools.groupby(sorted(points, key=lambda p: p.r_m),
                                      key=lambda p: p.r_m):
        group = list(group)
        group_max = max(p.accuracy for p in group)
        if group_max > best_acc:
            front.extend(p for p in group if p.accuracy == group_max)
            best_acc = group_max
    return front


def write_grid_csv(points: list[ExplorationPoint], path: str) -> None:
    """Contour-ready grid with one row per explored setting."""
    dataio.write_csv(path, GRID_COLUMNS,
                     ([getattr(p, name) for name in _GRID_FIELDS.values()] for p in points))


def write_grid_json(result: GridResult, path: str, front: list[ExplorationPoint]) -> None:
    dataio.write_json(path, {
        "points": [dataclasses.asdict(p) for p in result.points],
        "skipped": [dataclasses.asdict(s) for s in result.skipped],
        "pareto_front": [dataclasses.asdict(p) for p in front],
    })


def layer_correlations(model: nn.Sequential) -> list[dict]:
    """Correlation metrics for every convolution layer of a model, one
    {layer, c_out, c_in, k, cross, intra} row each: cross is the cross-mode
    mean, intra a {mean, std} dict or None for 1x1 kernels.

    Generated layers are measured on the weights they generate, so the
    metric reflects what the network actually convolves with.
    """
    rows = []
    for index, layer in enumerate(model.layers):
        if isinstance(layer, nn.GeneratedConv2d):
            weight = generator.generate(layer.factors, quantized=layer.quantized)
        elif isinstance(layer, nn.Conv2d):
            weight = layer.weight.value
        else:
            continue
        intra = kernel_correlation(weight, mode="intra")
        c_out, c_in, k = weight.shape[:3]
        rows.append({
            "layer": index, "c_out": c_out, "c_in": c_in, "k": k,
            "cross": kernel_correlation(weight, mode="cross").mean,
            "intra": None if intra is None else {"mean": intra.mean, "std": intra.std},
        })
    return rows
