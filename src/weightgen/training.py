"""Two-stage training for networks with generated convolutions.

Stage 1 projects a dense teacher onto the factor space of every generated
layer by truncated SVD, refined in the l2 norm without ever ending at a
worse fit, and copies the teacher's other layers into the student.  Stage
2 runs quantization-aware knowledge distillation: mini-batch updates of
all parameters on the gradient of

    L = L_KD + lambda * L_ort

where L_KD blends a temperature-softened KL term against the teacher with
plain cross entropy against the labels, and L_ort is the multi-level
orthogonality penalty on the stored factors.

The teacher is frozen, so its logits are computed once per run, after
stage 1, in sample-order batches of the run's batch size, and each step
takes its batch's rows.  This is exact: in eval mode batch norm uses its
running statistics, so a sample's logits do not depend on the rest of its
batch.  Only the batch's row count reaches them, through BLAS's choice of
GEMM kernel, so a short final batch may differ from a full one in the
last bit.  A teacher built with act_bits is the exception: ActQuant's
scale is the batch's maximum magnitude.

Everything is deterministic given the seed: initialization draws from one
generator seeded with the run seed, and the shuffle order of epoch e comes
from a fresh PCG64 generator seeded with (seed, e).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import dataio, generator, nn, tensor
from .errors import ConfigError, DivergenceError, ShapeError
from .optim import RAdam
from .quantize import check_bits

CHECKPOINT_VERSION = 1
# Former TrainConfig fields; checkpoint and config readers drop them.
RETIRED_CONFIG_KEYS = ("init_lr",)
METRIC_COLUMNS = ("epoch", "lr", "loss_kd", "loss_ort", "train_acc", "test_acc")


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(z))


def kd_loss(
    student_logits: np.ndarray,
    labels: np.ndarray,
    teacher_logits: np.ndarray | None = None,
    temperature: float = 3.0,
    beta: float = 0.9,
):
    """Distillation objective and its analytic gradient wrt student logits.

    loss = beta * T^2 * KL(teacher_T || student_T) + (1-beta) * CE(labels)
    averaged over the batch.  Without teacher logits the loss is plain
    cross entropy.  Returns (loss, d_logits).
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    s = np.asarray(student_logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = s.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape}, expected ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"labels out of range for {c} classes")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    log_p = log_softmax(s)
    p = np.exp(log_p)
    ce = -log_p[np.arange(n), labels].mean()
    if teacher_logits is None:
        return ce, (p - onehot) / n
    t = np.asarray(teacher_logits, dtype=np.float64)
    if t.shape != s.shape:
        raise ShapeError(f"teacher logits {t.shape} vs student {s.shape}")
    log_p_t = log_softmax(s / temperature)
    q_t = softmax(t / temperature)
    kl = (q_t * (np.log(q_t) - log_p_t)).sum(axis=1).mean()
    loss = beta * temperature**2 * kl + (1.0 - beta) * ce
    p_t = np.exp(log_p_t)
    d = (beta * temperature * (p_t - q_t) + (1.0 - beta) * (p - onehot)) / n
    return loss, d


def _normalized_gram_penalty(u: np.ndarray):
    """Penalty ||U~^T U~ - I||_F^2 with columns scaled by 1/||u_j||^2,
    summed over a stack of matrices (..., rows, cols), plus its gradient
    wrt U.  Shared by the coeff and mixer terms."""
    n = np.einsum("...ij,...ij->...j", u, u)
    if np.any(n == 0.0):
        raise DivergenceError("zero column encountered in orthogonality penalty")
    inv = 1.0 / n
    ut = u * inv[..., None, :]
    e = np.swapaxes(ut, -1, -2) @ ut - np.eye(u.shape[-1])
    value = float(np.sum(e * e))
    d_ut = 4.0 * ut @ e
    d_inv = np.einsum("...ij,...ij->...j", d_ut, u)
    d_n = -(inv**2) * d_inv
    d_u = d_ut * inv[..., None, :] + 2.0 * u * d_n[..., None, :]
    return value, d_u


def ortho_reg(factors: generator.TwoLevelFactors):
    """Multi-level orthogonality penalty on the raw factors.

    Per cross slice i: ||basis_i basis_i^T - I||_F^2 pushes the basis rows
    orthonormal, and the normalized-column gram penalty pushes the coeff
    columns orthogonal; the same column penalty applies to the mixer.
    Terms exist only for active levels; the slices are evaluated as one
    stack.  Returns (value, FactorGrads).
    """
    p = factors.plan
    value = 0.0
    d_basis = None
    d_coeff = np.zeros_like(factors.coeff)
    d_mixer = None
    if p.intra_active:
        w = factors.basis
        e = w @ np.swapaxes(w, 1, 2) - np.eye(p.n_basis)
        value += float(np.sum(e * e))
        d_basis = 4.0 * e @ w
        v, d_coeff = _normalized_gram_penalty(factors.coeff)
        value += v
    if p.cross_active:
        v, d_mixer = _normalized_gram_penalty(factors.mixer)
        value += v
    return value, generator.FactorGrads(basis=d_basis, coeff=d_coeff, mixer=d_mixer)


def _residual(factors: generator.TwoLevelFactors, target: np.ndarray) -> float:
    """Relative Frobenius distance of the unquantized kernels from target."""
    built = generator.generate(factors, quantized=False)
    return float(np.linalg.norm(built - target)) / max(float(np.linalg.norm(target)), 1e-30)


def svd_init(target: np.ndarray, plan: generator.GenPlan):
    """Initialize factors by truncated SVD of the target kernel tensor.

    The cross level keeps the top n_cross singular directions of the
    (c_out, c_in*k*k) view; each resulting basis kernel is then factorized
    at rank n_basis.  Returns (factors, relative residual).
    """
    target = np.asarray(target, dtype=np.float64)
    want = (plan.c_out, plan.c_in, plan.k, plan.k)
    if target.shape != want:
        raise ShapeError(f"target shape {target.shape}, expected {want}")
    flat = target.reshape(plan.c_out, -1)
    if plan.cross_active:
        u, s, vt = tensor.svd(flat)
        root = np.sqrt(s[: plan.n_cross])
        mixer = u[:, : plan.n_cross] * root[None, :]
        w_cross = root[:, None] * vt[: plan.n_cross]
    else:
        mixer = None
        w_cross = flat
    w_cross = w_cross.reshape(plan.n_cross, plan.c_in, plan.kk)
    if plan.intra_active:
        u, s, vt = tensor.svd(w_cross)
        root = np.sqrt(s[:, : plan.n_basis])
        coeff = u[:, :, : plan.n_basis] * root[:, None, :]
        basis = root[:, :, None] * vt[:, : plan.n_basis]
    else:
        basis, coeff = None, w_cross
    factors = generator.TwoLevelFactors(plan=plan, basis=basis, coeff=coeff,
                                        mixer=mixer)
    return factors, _residual(factors, target)  # generate() validates the factors


# RAdam step size of the l2 projection, and where its decay ends.
_PROJECT_LR = 0.02
_PROJECT_END_LR = 1e-6


def l2_project_init(target: np.ndarray, plan: generator.GenPlan, iters: int = 3000):
    """Fit the factors to a dense kernel tensor in the l2 norm.  Returns
    (factors, relative residual), never a worse fit than svd_init's.

    With one level skipped the truncated SVD is the optimum (Eckart-Young,
    per basis kernel when only the intra level is active) and is returned
    as it is; so it is with iters=0.  Otherwise RAdam runs iters steps
    from it, the step size decaying exponentially over the second half (a
    constant step wanders well above the attainable residual), and the last
    iterate is returned only if it fits strictly better than the start.
    The fit is scale-free: RAdam fits target/||target|| from that target's
    own truncated SVD, and each fitted factor is multiplied back by
    ||target||^(1/3).
    """
    start, start_residual = svd_init(target, plan)
    target = np.asarray(target, dtype=np.float64)
    norm = float(np.linalg.norm(target))
    if not (plan.intra_active and plan.cross_active) or norm == 0.0 or iters == 0:
        return start, start_residual
    unit_target = target / norm
    factors, _ = svd_init(unit_target, plan)
    params = [nn.Param(name, value) for name, value in factors.stored()]
    opt = RAdam(params, lr=_PROJECT_LR)
    tail_start = iters // 2
    decay = (_PROJECT_END_LR / _PROJECT_LR) ** (1.0 / max(iters - tail_start, 1))
    # the factors' arrays are the Params' values, updated in place; so is
    # fwd.w_cross, and d holds the residual, then the loss gradient
    fwd = generator.GenForward(plan, factors.basis, factors.coeff, factors.mixer)
    w_cross, d = fwd.w_cross, np.empty(unit_target.size)
    d_flat, target_flat = d.reshape(plan.c_out, -1), unit_target.reshape(plan.c_out, -1)
    grads = {p.name: p.grad for p in params}
    for it in range(iters):
        np.matmul(factors.coeff, factors.basis, out=w_cross)
        np.matmul(factors.mixer, w_cross.reshape(plan.n_cross, -1), out=d_flat)
        d_flat -= target_flat
        if not np.isfinite(np.dot(d, d)):
            factors.validate()  # names a non-finite factor, which makes the loss so
            raise DivergenceError("projection loss became non-finite", iteration=it)
        d *= 2.0
        generator.backward_into(fwd, d_flat, grads)
        opt.step()
        if it >= tail_start:
            opt.lr *= decay
    root = norm ** (1.0 / 3.0)
    factors = replace(factors, **{n: t * root for n, t in factors.stored()})
    residual = _residual(factors, target)
    if residual < start_residual:
        return factors, residual
    return start, start_residual


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


INIT_METHODS = ("l2", "svd", "random")

# Annotation -> (value check, what the error asks for).  Float fields take
# ints, which hand-written JSON configs use for whole numbers.
_FIELD_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
        "a list of integers",
    ),
}


# Config key -> (range check, what the error asks for); a NaN fails every
# check.  n_basis, n_cross and the three factor widths are plan_layer's to
# check, so that grid_search can skip a point whose plan cannot be built.
_FIELD_RANGES = {
    **dict.fromkeys(("in_channels", "in_size", "epochs", "batch_size", "eval_train_samples",
                     "limit_train", "limit_test", "q_weight"), (lambda v: v >= 1, "at least 1")),
    **dict.fromkeys(("lr", "lr_decay", "temperature"), (lambda v: v > 0, "positive")),
    **dict.fromkeys(("weight_decay", "ortho_weight", "init_iters"),
                    (lambda v: v >= 0, "non-negative")),
    "beta": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "init": (lambda v: v in INIT_METHODS, f"one of {INIT_METHODS}"),
}


def check_field(name: str, annotation: str, value) -> None:
    """Raise a ConfigError naming the field unless value is of the JSON type
    the annotation ("int", "float", "tuple[int, ...]", ...) stands for and
    lies in the field's _FIELD_RANGES range."""
    ok, want = _FIELD_CHECKS[annotation]
    if ok(value) and name in _FIELD_RANGES:
        ok, want = _FIELD_RANGES[name]
    if not ok(value):
        raise ConfigError(f"config field {name!r} must be {want}, got {value!r}")


@dataclass
class TrainConfig:
    """Everything that defines one training run."""

    arch: str = "C32K5S2-C32K5S1-C32K5S1-AvgPool3-FC10"
    in_channels: int = 1
    in_size: int = 28
    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.002
    lr_decay: float = 0.98
    weight_decay: float = 5e-4
    seed: int = 0
    generated: tuple[int, ...] = ()
    n_basis: int = 2
    n_cross: int = 12
    q_basis: int = 8
    q_coeff: int = 8
    q_mixer: int = 8
    quantized: bool = True
    act_bits: int | None = None
    temperature: float = 3.0
    beta: float = 0.9
    ortho_weight: float = 0.02
    init: str = "l2"            # one of INIT_METHODS
    init_iters: int = 3000
    eval_train_samples: int = 10240

    def __post_init__(self):
        for f in fields(self):
            check_field(f.name, f.type, getattr(self, f.name))
        if self.act_bits is not None:
            check_bits("act_bits", self.act_bits)
        self.generated = tuple(int(i) for i in self.generated)


@dataclass
class TrainResult:
    model: nn.Sequential
    metrics: list[dict]
    config: TrainConfig
    init_residuals: list[float] = field(default_factory=list)


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """The run's fixed shuffle source: PCG64 seeded with (seed, epoch)."""
    return np.random.default_rng(np.random.SeedSequence([seed, epoch]))


def batches(n: int, batch_size: int, seed: int | None = None, epoch: int = 0):
    """Yield the sample indices of consecutive mini-batches over n samples.

    With a seed the order is the run's (seed, epoch) shuffle, so a given
    epoch's order is reproducible anywhere; without one it is sample
    order.  The last batch keeps the remainder.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(n) if seed is None else epoch_rng(seed, epoch).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def predict(model: nn.Sequential, x: np.ndarray, batch_size: int) -> np.ndarray:
    """Eval-mode logits of every sample of x, in sample order, computed in
    consecutive batches of batch_size."""
    if x.shape[0] == 0:
        raise ShapeError("predict needs at least one sample")
    return np.concatenate([model.forward(x[idx], train=False)
                           for idx in batches(x.shape[0], batch_size)])


def evaluate(model: nn.Sequential, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> float:
    """Fraction of samples whose top logit is their label."""
    if y.shape != x.shape[:1]:
        raise ShapeError(f"labels shape {y.shape} does not match inputs {x.shape}")
    hits = predict(model, x, batch_size).argmax(axis=1) == y
    return int(hits.sum()) / x.shape[0]


def build_model(cfg: TrainConfig) -> nn.Sequential:
    """The network cfg describes, initialized from a generator seeded with
    the run seed."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    return nn.build_network(
        cfg.arch, cfg.in_channels, cfg.in_size, rng,
        generated=cfg.generated, n_basis=cfg.n_basis, n_cross=cfg.n_cross,
        q_basis=cfg.q_basis, q_coeff=cfg.q_coeff, q_mixer=cfg.q_mixer,
        act_bits=cfg.act_bits, quantized=cfg.quantized,
    )


def _arrays(layer: nn.Layer) -> dict[str, np.ndarray]:
    """Name -> array of every parameter and running statistic of a layer."""
    out = {p.name: p.value for p in layer.params()}
    if isinstance(layer, nn.BatchNorm2d):
        out.update(running_mean=layer.running_mean, running_var=layer.running_var)
    return out


def initialize_from_teacher(model: nn.Sequential, teacher: nn.Sequential,
                            cfg: TrainConfig):
    """Stage 1: fit every generated layer's factors to the matching teacher
    kernel (init="svd" is the l2 projection with zero steps), and copy every
    other layer's parameters and running statistics from the teacher, so
    the fitted kernels read the teacher's features.  Conv, batch-norm and
    linear layers pair up in order, so a student's ActQuant layers are
    passed over; a teacher layer holding other arrays raises a ConfigError
    naming the student layer.  Returns the generated layers' residuals."""
    kinds = (nn._Conv, nn.BatchNorm2d, nn.Linear)
    student = [(i, layer) for i, layer in enumerate(model.layers) if isinstance(layer, kinds)]
    dense = [layer for layer in teacher.layers if isinstance(layer, kinds)]
    if len(student) != len(dense):
        raise ConfigError(f"teacher has {len(dense)} conv, batch-norm and linear layers, "
                          f"student has {len(student)}; architectures must match")
    residuals = []
    for (i, s_layer), t_layer in zip(student, dense):
        if isinstance(t_layer, nn.GeneratedConv2d):
            raise ConfigError("teacher must be a dense network")
        fitted = isinstance(s_layer, nn.GeneratedConv2d)
        s_arrays, t_arrays = ({} if fitted else _arrays(s_layer)), _arrays(t_layer)
        s_shapes = {name: a.shape for name, a in s_arrays.items()}
        if fitted:  # the kernel its factors generate
            s_shapes["weight"] = (s_layer.c_out, s_layer.c_in, s_layer.k, s_layer.k)
        t_shapes = {name: a.shape for name, a in t_arrays.items()}
        if s_shapes != t_shapes:
            raise ConfigError(f"student layer {i} ({type(s_layer).__name__}) holds {s_shapes}, "
                              f"its teacher {type(t_layer).__name__} {t_shapes}; "
                              "architectures must match")
        for name, a in s_arrays.items():
            a[...] = t_arrays[name]
        if fitted:
            iters = 0 if cfg.init == "svd" else cfg.init_iters
            factors, residual = l2_project_init(t_arrays["weight"], s_layer.factors.plan,
                                                iters=iters)
            for name, new in factors.stored():
                getattr(s_layer.factors, name)[...] = new
            residuals.append(residual)
    return residuals


def train(
    cfg: TrainConfig,
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    teacher: nn.Sequential | None = None,
    verbose: bool = False,
    teacher_logits: np.ndarray | None = None,
) -> TrainResult:
    """Run the full two-stage schedule and return the model plus metrics.

    Stage 1 fits generated layers to the teacher network's kernels.  Stage 2
    distills from teacher_logits, one row per training sample; when they
    are not given and a teacher is, they are computed once, after stage 1,
    with predict(teacher, train_x, cfg.batch_size), so the teacher runs one
    forward per sample per run rather than one per sample per epoch.  This
    is exact in eval mode (see the module docstring).  Passing the logits
    lets callers that train several students on one set, such as
    grid_search, compute them once.
    """
    want = (cfg.in_channels, cfg.in_size, cfg.in_size)
    for name, x in (("train_x", train_x), ("test_x", test_x)):
        if x.shape[1:] != want:
            raise ShapeError(f"{name} samples have shape {x.shape[1:]}, but in_channels="
                             f"{cfg.in_channels} and in_size={cfg.in_size} need {want}")
        if x.shape[0] == 0:
            raise ShapeError(f"{name} has no samples")
    n = train_x.shape[0]
    if teacher_logits is not None and teacher_logits.shape[:1] != (n,):
        raise ShapeError(
            f"teacher_logits shape {teacher_logits.shape} does not match "
            f"train_x shape {train_x.shape}: need one row per sample"
        )
    model = build_model(cfg)
    init_residuals = []
    if cfg.generated and teacher is not None and cfg.init != "random":
        init_residuals = initialize_from_teacher(model, teacher, cfg)
    if teacher_logits is None and teacher is not None:
        teacher_logits = predict(teacher, train_x, cfg.batch_size)
    opt = RAdam(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    gen_layers = model.generated_layers()
    eval_n = min(cfg.eval_train_samples, n)
    metrics = []
    for epoch in range(cfg.epochs):
        kd_sum, ort_sum, n_batches = 0.0, 0.0, 0
        for idx in batches(n, cfg.batch_size, cfg.seed, epoch):
            logits = model.forward(train_x[idx], train=True)
            t_logits = None if teacher_logits is None else teacher_logits[idx]
            loss, d_logits = kd_loss(
                logits, train_y[idx], teacher_logits=t_logits,
                temperature=cfg.temperature, beta=cfg.beta,
            )
            model.zero_grad()
            model.backward(d_logits)
            ort_value = 0.0
            for layer in gen_layers:
                value, grads = ortho_reg(layer.factors)
                ort_value += value
                if cfg.ortho_weight:
                    for p in layer.params():
                        p.grad += cfg.ortho_weight * getattr(grads, p.name)
            opt.step()
            kd_sum += loss
            ort_sum += ort_value
            n_batches += 1
        lr_used = opt.lr
        opt.lr *= cfg.lr_decay
        row = {
            "epoch": epoch,
            "lr": lr_used,
            "loss_kd": kd_sum / n_batches,
            "loss_ort": ort_sum / n_batches,
            "train_acc": evaluate(model, train_x[:eval_n], train_y[:eval_n]),
            "test_acc": evaluate(model, test_x, test_y),
        }
        metrics.append(row)
        if verbose:
            print(
                f"epoch {epoch:3d}  lr {lr_used:.5f}  kd {row['loss_kd']:.4f}  "
                f"ort {row['loss_ort']:.4f}  train {row['train_acc']:.4f}  "
                f"test {row['test_acc']:.4f}",
                flush=True,
            )
    return TrainResult(model=model, metrics=metrics, config=cfg,
                       init_residuals=init_residuals)


def write_metrics(path, rows: list[dict]) -> None:
    """Write the per-epoch metric log as CSV, atomically."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=METRIC_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in METRIC_COLUMNS})
    dataio.atomic_write(path, buf.getvalue().encode())


def save_checkpoint(path, model: nn.Sequential, cfg: TrainConfig,
                    epoch: int) -> None:
    """Versioned npz checkpoint: params (a generated layer's factors among
    them) and BN buffers."""
    arrays = {}
    for name, p in model.named_params():
        arrays[f"p/{name}"] = p.value
    for i, layer in enumerate(model.layers):
        if isinstance(layer, nn.BatchNorm2d):
            arrays[f"b/{i}.running_mean"] = layer.running_mean
            arrays[f"b/{i}.running_var"] = layer.running_var
    meta = {
        "version": CHECKPOINT_VERSION,
        "epoch": epoch,
        "config": asdict(cfg),
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    dataio.atomic_write(path, buf.getvalue())


def _entry(arrays: dict, key: str) -> np.ndarray:
    if key not in arrays:
        raise ConfigError(f"checkpoint is missing entry {key!r}")
    return arrays[key]


def _restore(arrays: dict, key: str, target: np.ndarray) -> None:
    value = _entry(arrays, key)
    if value.shape != target.shape:
        raise ShapeError(
            f"checkpoint entry {key} has shape {value.shape}, "
            f"model expects {target.shape}"
        )
    target[...] = value


def _read_meta(entry: np.ndarray) -> tuple[TrainConfig, int]:
    """The config and epoch a checkpoint's meta JSON records; a malformed
    meta raises a ConfigError naming the field."""
    try:
        meta = json.loads(entry.tobytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ConfigError(f"checkpoint entry 'meta' is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"checkpoint entry 'meta' must be an object, got {meta!r}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {meta.get('version')!r}"
        )
    cfg_dict, epoch = meta.get("config"), meta.get("epoch")
    if not isinstance(cfg_dict, dict):
        raise ConfigError(f"checkpoint meta field 'config' must be an object, got {cfg_dict!r}")
    if not _is_int(epoch):
        raise ConfigError(f"checkpoint meta field 'epoch' must be an integer, got {epoch!r}")
    cfg_dict = {k: v for k, v in cfg_dict.items() if k not in RETIRED_CONFIG_KEYS}
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ConfigError(f"checkpoint config has unknown field(s) {unknown}")
    return TrainConfig(**cfg_dict), epoch


def load_checkpoint(path):
    """Rebuild (model, config, epoch) from a checkpoint file.

    A missing file raises the OSError of opening it; a file that is not a
    readable archive raises a ConfigError naming the path.  Entries the
    model does not need, such as the f/ factor containers of older files,
    and retired config fields (RETIRED_CONFIG_KEYS) are ignored.
    """
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as z:
                arrays = {k: z[k] for k in z.files}
        except Exception as exc:  # zipfile, zlib and .npy header errors alike
            raise ConfigError(f"checkpoint {path} is not a readable archive: {exc}") from exc
    cfg, epoch = _read_meta(_entry(arrays, "meta"))
    model = build_model(cfg)
    for name, p in model.named_params():
        _restore(arrays, f"p/{name}", p.value)
    for i, layer in enumerate(model.layers):
        if isinstance(layer, nn.BatchNorm2d):
            _restore(arrays, f"b/{i}.running_mean", layer.running_mean)
            _restore(arrays, f"b/{i}.running_var", layer.running_var)
    return model, cfg, epoch
