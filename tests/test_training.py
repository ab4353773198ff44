import dataclasses
import json
import warnings

import numpy as np
import pytest

from weightgen import generator, nn, training
from weightgen.errors import (ConfigError, DivergenceError, NonFiniteError, QuantRangeError,
                             ShapeError)

from oracles import finite_difference, l2_project_frozen, rel_err


def kd_oracle(s, t, y, T, beta):
    """Scalar-loop reimplementation of the distillation loss."""
    n, c = s.shape
    total = 0.0
    for i in range(n):
        ps = np.exp(s[i] - s[i].max())
        ps /= ps.sum()
        ce = -np.log(ps[y[i]])
        pt = np.exp(s[i] / T - (s[i] / T).max())
        pt /= pt.sum()
        qt = np.exp(t[i] / T - (t[i] / T).max())
        qt /= qt.sum()
        kl = float(np.sum(qt * (np.log(qt) - np.log(pt))))
        total += beta * T * T * kl + (1 - beta) * ce
    return total / n


def test_kd_loss_value_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((6, 5)) * 2
    t = rng.standard_normal((6, 5)) * 2
    y = rng.integers(0, 5, 6)
    loss, _ = training.kd_loss(s, y, teacher_logits=t, temperature=3.0, beta=0.9)
    assert loss == pytest.approx(kd_oracle(s, t, y, 3.0, 0.9), rel=1e-12)


def test_kd_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = rng.standard_normal((4, 6))
        t = rng.standard_normal((4, 6))
        y = rng.integers(0, 6, 4)
        _, grad = training.kd_loss(s, y, teacher_logits=t, temperature=2.5, beta=0.7)
        want = finite_difference(
            lambda z: training.kd_loss(z, y, teacher_logits=t,
                                       temperature=2.5, beta=0.7)[0],
            s.copy(),
        )
        assert rel_err(grad, want) < 1e-7


def test_kd_loss_without_teacher_is_cross_entropy():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((5, 4))
    y = rng.integers(0, 4, 5)
    loss, grad = training.kd_loss(s, y)
    p = training.softmax(s)
    want = -np.log(p[np.arange(5), y]).mean()
    assert loss == pytest.approx(want, rel=1e-12)
    want_g = finite_difference(lambda z: training.kd_loss(z, y)[0], s.copy())
    assert rel_err(grad, want_g) < 1e-7


def test_kd_loss_zero_when_student_equals_teacher_and_pure_kl():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((4, 5))
    y = rng.integers(0, 5, 4)
    loss, grad = training.kd_loss(s, y, teacher_logits=s.copy(),
                                  temperature=3.0, beta=1.0)
    assert abs(loss) < 1e-12
    assert np.abs(grad).max() < 1e-12


def test_kd_loss_input_validation():
    s = np.zeros((3, 4))
    y = np.array([0, 1, 2])
    with pytest.raises(ConfigError):
        training.kd_loss(s, y, temperature=0.0)
    with pytest.raises(ConfigError):
        training.kd_loss(s, y, beta=1.5)
    with pytest.raises(ShapeError):
        training.kd_loss(s, np.array([0, 1]))
    with pytest.raises(ShapeError):
        training.kd_loss(s, np.array([0, 1, 9]))


def _orthonormal_factors(plan):
    """Exact zero of the penalty: orthonormal basis rows, orthogonal
    unit-norm coeff and mixer columns."""
    basis = np.zeros((plan.n_cross, plan.n_basis, plan.kk))
    coeff = np.zeros((plan.n_cross, plan.c_in, plan.n_basis))
    for i in range(plan.n_cross):
        basis[i] = np.eye(plan.kk)[: plan.n_basis]
        coeff[i] = np.eye(plan.c_in)[:, : plan.n_basis]
    mixer = np.eye(plan.c_out)[:, : plan.n_cross]
    return generator.TwoLevelFactors(plan=plan, basis=basis, coeff=coeff,
                                     mixer=mixer)


def test_ortho_reg_zero_at_orthonormal_factors():
    plan = generator.plan_layer(8, 6, 3, 2, 4)
    f = _orthonormal_factors(plan)
    value, grads = training.ortho_reg(f)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(grads.basis).max() < 1e-12
    assert np.abs(grads.coeff).max() < 1e-12
    assert np.abs(grads.mixer).max() < 1e-12


def test_ortho_reg_scaled_identity_basis_value():
    # basis rows 2*I give ||4I - I||_F^2 = 9 * n_basis per cross slice.
    plan = generator.plan_layer(8, 6, 3, 2, 4)
    f = _orthonormal_factors(plan)
    for i in range(plan.n_cross):
        f.basis[i] *= 2.0
    value, _ = training.ortho_reg(f)
    assert value == pytest.approx(plan.n_cross * 9.0 * plan.n_basis, abs=1e-9)


@pytest.mark.parametrize("shape", [
    (8, 6, 3, 2, 4),     # both levels active
    (8, 6, 3, 2, 8),     # cross skipped
    (8, 1, 3, 1, 4),     # intra skipped
])
def test_ortho_reg_gradients_match_finite_differences(shape):
    rng = np.random.default_rng(5)
    plan = generator.plan_layer(*shape)
    f = generator.init_random(plan, rng)
    value, grads = training.ortho_reg(f)
    assert value >= 0.0
    for name in ("basis", "coeff", "mixer"):
        t = getattr(f, name)
        got = getattr(grads, name)
        if t is None:
            assert got is None
            continue

        def loss(v, name=name):
            stash = getattr(f, name)
            setattr(f, name, v)
            try:
                return training.ortho_reg(f)[0]
            finally:
                setattr(f, name, stash)

        want = finite_difference(loss, t.copy())
        assert rel_err(got, want) < 1e-6, name


def test_svd_init_exact_on_cross_rank_deficient_target():
    rng = np.random.default_rng(6)
    # intra skipped (n_basis at the rank bound), cross active
    plan = generator.plan_layer(16, 4, 3, 4, 6)
    assert not plan.intra_active and plan.cross_active
    left = rng.standard_normal((16, 6))
    right = rng.standard_normal((6, 36))
    target = (left @ right).reshape(16, 4, 3, 3)
    factors, residual = training.svd_init(target, plan)
    assert residual < 1e-9
    assert rel_err(generator.generate(factors, quantized=False), target) < 1e-9


def test_svd_init_exact_on_intra_rank_deficient_target():
    rng = np.random.default_rng(7)
    # cross skipped, intra active at rank 2 with planted rank-2 slices
    plan = generator.plan_layer(6, 8, 3, 2, 6)
    assert plan.intra_active and not plan.cross_active
    target = np.einsum(
        "oib,obk->oik",
        rng.standard_normal((6, 8, 2)),
        rng.standard_normal((6, 2, 9)),
    ).reshape(6, 8, 3, 3)
    factors, residual = training.svd_init(target, plan)
    assert residual < 1e-9


def test_svd_init_residual_equals_trailing_singular_energy():
    rng = np.random.default_rng(8)
    plan = generator.plan_layer(12, 4, 3, 4, 5)  # intra skipped
    target = rng.standard_normal((12, 4, 3, 3))
    _, residual = training.svd_init(target, plan)
    s = np.linalg.svd(target.reshape(12, -1), compute_uv=False)
    want = np.sqrt(np.sum(s[5:] ** 2) / np.sum(s**2))
    assert residual == pytest.approx(want, rel=1e-9)


def test_l2_project_recovers_planted_factors():
    rng = np.random.default_rng(9)
    plan = generator.plan_layer(8, 6, 3, 2, 4)
    true = generator.init_random(plan, rng)
    target = generator.generate(true, quantized=False)
    factors, residual = training.l2_project_init(target, plan)
    assert residual < 1e-6
    assert rel_err(generator.generate(factors, quantized=False), target) < 1e-6


@pytest.mark.parametrize("shape", [(12, 4, 3, 4, 5), (8, 6, 1, 2, 4), (4, 6, 3, 2, 12)],
                         ids=["bi-at-rank", "1x1", "cross-skipped"])
def test_l2_project_with_a_level_skipped_returns_svd_factors(shape):
    plan = generator.plan_layer(*shape)
    assert not (plan.intra_active and plan.cross_active)
    c_out, c_in, k = shape[:3]
    target = np.random.default_rng(8).standard_normal((c_out, c_in, k, k))
    svd_factors, svd_residual = training.svd_init(target, plan)
    factors, residual = training.l2_project_init(target, plan)
    assert residual == svd_residual
    for name, value in svd_factors.stored():
        assert np.array_equal(getattr(factors, name), value)


@pytest.mark.parametrize("shape", [(32, 32, 5, 2, 12), (16, 8, 3, 2, 6)])
def test_l2_project_with_zero_steps_is_svd_init(shape):
    plan = generator.plan_layer(*shape)
    c_out, c_in, k = shape[:3]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        target = rng.uniform(0.01, 3.0) * rng.standard_normal((c_out, c_in, k, k))
        want, want_residual = training.svd_init(target, plan)
        factors, residual = training.l2_project_init(target, plan, iters=0)
        assert residual == want_residual, seed
        for name, value in want.stored():
            assert getattr(factors, name).tobytes() == value.tobytes(), (seed, name)


@pytest.mark.parametrize("shape, seed, std", [
    ((32, 32, 5, 2, 12), 1, 2.5),  # RAdam blows this fit up to a residual near 1e34
    ((8, 6, 3, 2, 4), 0, 1.0),
    ((8, 6, 3, 2, 4), 1, 1.0),
    ((16, 8, 3, 1, 6), 2, 1.0),
    ((12, 4, 3, 4, 5), 3, 1.0),
], ids=["std2.5", "bi2-seed0", "bi2-seed1", "bi1", "intra-skipped"])
def test_l2_project_never_fits_worse_than_svd(shape, seed, std):
    plan = generator.plan_layer(*shape)
    c_out, c_in, k = shape[:3]
    target = std * np.random.default_rng(seed).standard_normal((c_out, c_in, k, k))
    _, svd_residual = training.svd_init(target, plan)
    factors, residual = training.l2_project_init(target, plan)
    assert residual <= svd_residual
    built = generator.generate(factors, quantized=False)
    assert residual == float(np.linalg.norm(built - target)) / float(np.linalg.norm(target))


def test_l2_project_is_scale_free():
    # The fit runs on target/||target||: no overflow at any scale, and the
    # same relative residual at every scale.
    plan = generator.plan_layer(32, 32, 5, 2, 12)
    draw = np.random.default_rng(1).standard_normal((32, 32, 5, 5))
    residuals = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for std in (1.0, 4.0, 5.0, 8.0):
            _, svd_residual = training.svd_init(std * draw, plan)
            _, residual = training.l2_project_init(std * draw, plan, iters=1000)
            assert residual <= svd_residual, std
            residuals.append(residual)
        assert training.l2_project_init(0.0 * draw, plan, iters=1000)[1] == 0.0
    assert max(residuals) - min(residuals) <= 1e-3


def test_l2_project_random_start_needs_rng_and_shape_checked():
    plan = generator.plan_layer(8, 6, 3, 2, 4)
    with pytest.raises(ShapeError):
        training.l2_project_init(np.zeros((2, 2, 3, 3)), plan)


@pytest.mark.parametrize("shape", [(8, 6, 3, 2, 4), (16, 8, 3, 1, 6), (32, 32, 5, 2, 8)])
def test_stage1_fit_is_bitwise_the_per_step_generator_loop(shape):
    # a planted target plus noise, so the fit moves off the SVD start
    plan = generator.plan_layer(*shape)
    rng = np.random.default_rng(5)
    target = generator.generate(generator.init_random(plan, rng), quantized=False)
    target += 0.1 * target.std() * rng.standard_normal(target.shape)
    want, want_residual = l2_project_frozen(target, plan, iters=300)
    factors, residual = training.l2_project_init(target, plan, iters=300)
    assert residual == want_residual < training.svd_init(target, plan)[1]
    for name, value in want.stored():
        assert getattr(factors, name).tobytes() == value.tobytes(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products of the poisoned factor
def test_stage1_loop_names_a_non_finite_factor_and_a_diverged_loss(monkeypatch):
    plan = generator.plan_layer(8, 6, 3, 2, 4)
    target = np.random.default_rng(6).standard_normal((8, 6, 3, 3))
    real_step = training.RAdam.step

    def poisoned_step(self, value):
        real_step(self)
        if self._step == 3:
            self.params[1].value[0, 0, 0] = value

    monkeypatch.setattr(training.RAdam, "step", lambda self: poisoned_step(self, np.inf))
    with pytest.raises(NonFiniteError, match="coeff contains non-finite"):
        training.l2_project_init(target, plan, iters=10)
    monkeypatch.setattr(training.RAdam, "step", lambda self: poisoned_step(self, 1e200))
    with pytest.raises(DivergenceError) as err:
        training.l2_project_init(target, plan, iters=10)
    assert err.value.iteration == 3


def synthetic_blobs(n, channels=2, size=8, seed=0):
    """Linearly separable two-class image set: class selects which half of
    the image carries the bright blob."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, channels, size, size)) * 0.3
    half = size // 2
    for i in range(n):
        if y[i] == 0:
            x[i, :, :half, :half] += 1.5
        else:
            x[i, :, half:, half:] += 1.5
    return x, y


def test_train_dense_learns_separable_problem():
    x, y = synthetic_blobs(256, seed=10)
    tx, ty = synthetic_blobs(128, seed=11)
    cfg = training.TrainConfig(
        arch="C6K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=4, batch_size=32, lr=0.01, seed=0, eval_train_samples=256,
    )
    result = training.train(cfg, x, y, tx, ty)
    assert len(result.metrics) == 4
    assert list(result.metrics[0].keys()) == list(training.METRIC_COLUMNS)
    assert result.metrics[-1]["test_acc"] >= 0.9
    # dense run has no ortho term
    assert result.metrics[-1]["loss_ort"] == 0.0


def test_train_is_bitwise_deterministic():
    x, y = synthetic_blobs(128, seed=12)
    tx, ty = synthetic_blobs(64, seed=13)
    cfg = training.TrainConfig(
        arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=2, batch_size=32, lr=0.01, seed=7, eval_train_samples=128,
    )
    r1 = training.train(cfg, x, y, tx, ty)
    r2 = training.train(cfg, x, y, tx, ty)
    assert r1.metrics == r2.metrics
    for (n1, p1), (n2, p2) in zip(r1.model.named_params(), r2.model.named_params()):
        assert n1 == n2
        assert p1.value.tobytes() == p2.value.tobytes()


def test_float32_training_is_deterministic_and_checkpoints_float64(tmp_path):
    x, y = synthetic_blobs(128, seed=12)
    tx, ty = synthetic_blobs(64, seed=13)
    x, tx = x.astype(np.float32), tx.astype(np.float32)
    cfg = training.TrainConfig(
        arch="C4K3S1-C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8, epochs=2,
        batch_size=32, lr=0.01, seed=7, eval_train_samples=128, generated=(1,),
        n_basis=1, n_cross=2, init="random",
    )
    r1 = training.train(cfg, x, y, tx, ty)
    r2 = training.train(cfg, x, y, tx, ty)
    assert r1.metrics == r2.metrics
    for (n1, p1), (n2, p2) in zip(r1.model.named_params(), r2.model.named_params()):
        assert n1 == n2 and p1.value.dtype == np.float64
        assert p1.value.tobytes() == p2.value.tobytes()
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, r1.model, cfg, epoch=cfg.epochs)
    with np.load(path) as z:
        stored = {k: z[k] for k in z.files if k != "meta"}
    assert stored and all(a.dtype == np.float64 for a in stored.values())
    model, _, _ = training.load_checkpoint(path)
    for (_, p1), (_, p2) in zip(r1.model.named_params(), model.named_params()):
        assert p1.value.tobytes() == p2.value.tobytes()
    for l1, l2 in zip(r1.model.layers, model.layers):
        if isinstance(l1, nn.BatchNorm2d):
            assert l1.running_mean.tobytes() == l2.running_mean.tobytes()
            assert l1.running_var.tobytes() == l2.running_var.tobytes()


def test_train_student_with_distillation_and_ortho():
    x, y = synthetic_blobs(256, seed=14)
    tx, ty = synthetic_blobs(128, seed=15)
    base_cfg = training.TrainConfig(
        arch="C6K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=6, batch_size=32, lr=0.01, seed=1, eval_train_samples=256,
    )
    teacher_run = training.train(base_cfg, x, y, tx, ty)
    assert teacher_run.metrics[-1]["test_acc"] >= 0.95
    student_cfg = training.TrainConfig(
        arch="C6K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=5, batch_size=32, lr=0.01, seed=1, eval_train_samples=256,
        generated=(0,), n_basis=1, n_cross=3, init="l2", init_iters=600,
        ortho_weight=0.02,
    )
    result = training.train(student_cfg, x, y, tx, ty, teacher=teacher_run.model)
    assert len(result.init_residuals) == 1
    assert result.metrics[-1]["loss_ort"] > 0.0
    assert result.metrics[-1]["test_acc"] >= 0.95


def test_ortho_weight_lowers_final_penalty_vs_same_seed_zero():
    x, y = synthetic_blobs(192, seed=16)
    tx, ty = synthetic_blobs(64, seed=17)

    def run(lam):
        cfg = training.TrainConfig(
            arch="C6K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
            epochs=3, batch_size=32, lr=0.01, seed=3, eval_train_samples=192,
            generated=(0,), n_basis=1, n_cross=3, init="random",
            ortho_weight=lam,
        )
        return training.train(cfg, x, y, tx, ty).metrics[-1]["loss_ort"]

    assert run(0.02) < run(0.0)


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        {"epoch": 0, "lr": 0.002, "loss_kd": 1.5, "loss_ort": 0.3,
         "train_acc": 0.5, "test_acc": 0.49},
        {"epoch": 1, "lr": 0.00196, "loss_kd": 1.1, "loss_ort": 0.2,
         "train_acc": 0.7, "test_acc": 0.68},
    ]
    path = tmp_path / "metrics.csv"
    training.write_metrics(path, rows)
    text = path.read_text().strip().splitlines()
    assert text[0] == "epoch,lr,loss_kd,loss_ort,train_acc,test_acc"
    assert len(text) == 3


def test_checkpoint_round_trip_restores_forward_exactly(tmp_path):
    x, y = synthetic_blobs(96, seed=18)
    tx, ty = synthetic_blobs(48, seed=19)
    cfg = training.TrainConfig(
        arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=2, batch_size=32, lr=0.01, seed=5, eval_train_samples=96,
        generated=(0,), n_basis=1, n_cross=2, init="random",
    )
    result = training.train(cfg, x, y, tx, ty)
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, result.model, cfg, epoch=cfg.epochs)
    model2, cfg2, epoch = training.load_checkpoint(path)
    assert epoch == cfg.epochs
    assert cfg2 == cfg
    out1 = result.model.forward(tx[:16], train=False)
    out2 = model2.forward(tx[:16], train=False)
    assert np.array_equal(out1, out2)


def test_train_config_field_types():
    cfg = training.TrainConfig(lr=1, act_bits=None, generated=[0, 1])
    assert cfg.lr == 1 and cfg.generated == (0, 1)
    assert training.TrainConfig(act_bits=8).act_bits == 8
    for bad in [{"seed": 1.0}, {"seed": False}, {"lr": True}, {"act_bits": 8.0},
                {"generated": 1}, {"generated": [1.0]}, {"generated": (True,)}]:
        (name,) = bad
        with pytest.raises(ConfigError, match=f"config field {name!r}"):
            training.TrainConfig(**bad)


@pytest.mark.parametrize("key", ["meta", "b/1.running_var", "p/0.coeff"])
def test_checkpoint_missing_entry_is_named(tmp_path, key):
    cfg = training.TrainConfig(
        arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8, epochs=1,
        generated=(0,), n_basis=1, n_cross=2,
    )
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, training.build_model(cfg), cfg, epoch=1)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files if k != key}
    np.savez(path, **arrays)
    with pytest.raises(ConfigError, match=key):
        training.load_checkpoint(path)


def test_epoch_rng_is_stable_and_epoch_dependent():
    a = training.epoch_rng(0, 1).permutation(16)
    b = training.epoch_rng(0, 1).permutation(16)
    c = training.epoch_rng(0, 2).permutation(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _counting_forward(model):
    """Replace model.forward with a wrapper that records every input batch."""
    seen = []
    forward = model.forward

    def counting(x, train=False):
        seen.append(x.copy())
        return forward(x, train=train)

    model.forward = counting
    return seen


def test_predict_matches_per_batch_teacher_forwards():
    """train caches predict(teacher, train_x, batch_size) in place of one
    teacher forward per shuffled batch: at the same batch size the rows are
    equal bit for bit, because eval-mode batch norm uses running statistics.
    Another batch size changes only the GEMM row count, which BLAS may round
    differently in the last bit."""
    teacher = training.build_model(training.TrainConfig(seed=2))
    rng = np.random.default_rng(3)
    for layer in teacher.layers:
        if isinstance(layer, nn.BatchNorm2d):
            layer.running_mean[...] = rng.standard_normal(layer.running_mean.shape)
            layer.running_var[...] = rng.uniform(0.5, 2.0, layer.running_var.shape)
    x = rng.standard_normal((256, 1, 28, 28))
    logits = training.predict(teacher, x, 64)
    assert logits.shape == (256, 10)
    for epoch in range(2):
        per_batch = np.empty_like(logits)
        for idx in training.batches(256, 64, seed=5, epoch=epoch):
            per_batch[idx] = teacher.forward(x[idx], train=False)
        assert per_batch.tobytes() == logits.tobytes()
    wide = training.predict(teacher, x, 256)
    assert np.abs(wide - logits).max() <= 1e-12 * np.abs(logits).max()


def test_train_forwards_each_sample_through_the_teacher_once():
    x, y = synthetic_blobs(96, seed=22)
    tx, ty = synthetic_blobs(32, seed=23)
    cfg = training.TrainConfig(
        arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
        epochs=2, batch_size=32, lr=0.01, seed=6, eval_train_samples=96,
        generated=(0,), n_basis=1, n_cross=2, init="svd",
    )
    teacher = training.train(
        training.TrainConfig(arch=cfg.arch, in_channels=2, in_size=8, epochs=1,
                             batch_size=32, lr=0.01, seed=1), x, y, tx, ty).model
    expected = training.predict(teacher, x, cfg.batch_size)
    seen = _counting_forward(teacher)
    result = training.train(cfg, x, y, tx, ty, teacher=teacher)
    assert np.array_equal(np.concatenate(seen), x)
    # Given logits, stage 1 still reads the teacher's kernels but stage 2
    # forwards nothing through it, and the run is unchanged.
    given = training.train(cfg, x, y, tx, ty, teacher=teacher, teacher_logits=expected)
    assert np.array_equal(np.concatenate(seen), x)
    assert given.init_residuals == result.init_residuals
    assert result.metrics == given.metrics
    for (_, a), (_, b) in zip(result.model.named_params(), given.model.named_params()):
        assert a.value.tobytes() == b.value.tobytes()


def test_teacher_logits_need_one_row_per_sample():
    x, y = synthetic_blobs(64, seed=24)
    cfg = training.TrainConfig(arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8,
                               epochs=1, batch_size=32)
    with pytest.raises(ShapeError, match=r"\(63, 2\).*\(64, 2, 8, 8\)"):
        training.train(cfg, x, y, x, y, teacher_logits=np.zeros((63, 2)))


def test_evaluate_and_predict_check_their_inputs():
    x, y = synthetic_blobs(16, seed=25)
    model = training.build_model(training.TrainConfig(
        arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8))
    with pytest.raises(ShapeError, match="labels"):
        training.evaluate(model, x, y[:15])
    with pytest.raises(ShapeError, match="at least one sample"):
        training.predict(model, x[:0], 8)
    assert training.evaluate(model, x, y, 5) == training.evaluate(model, x, y, 16)


def test_checkpoint_with_retired_config_field_loads(tmp_path):
    cfg = training.TrainConfig(arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8)
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, training.build_model(cfg), cfg, epoch=1)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(arrays["meta"].tobytes())
    meta["config"]["init_lr"] = 0.02
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    _, loaded, epoch = training.load_checkpoint(path)
    assert loaded == cfg and epoch == 1
    assert not hasattr(loaded, "init_lr")


@pytest.mark.parametrize("meta, field", [
    ({"version": 1, "epoch": 1}, "config"),
    ({"version": 1, "config": [1, 2], "epoch": 1}, "config"),
    ({"version": 1, "config": {"bogus": 3}, "epoch": 1}, "bogus"),
    ({"version": 1, "config": {"generated": 5}, "epoch": 1}, "generated"),
    ({"version": 1, "config": {}}, "epoch"),
    ({"version": 1, "config": {}, "epoch": "1"}, "epoch"),
    ([1], "meta"),
    ("{not json", "meta"),
], ids=["no-config", "config-list", "unknown-key", "generated-int", "no-epoch",
        "epoch-str", "meta-list", "meta-not-json"])
def test_malformed_checkpoint_meta_is_named(tmp_path, meta, field):
    cfg = training.TrainConfig(arch="C4K3S1-AvgPool2-FC2", in_channels=2, in_size=8)
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, training.build_model(cfg), cfg, epoch=1)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    text = meta if isinstance(meta, str) else json.dumps(meta)
    arrays["meta"] = np.frombuffer(text.encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ConfigError, match=repr(field)):
        training.load_checkpoint(path)


# ---------------------------------------------------------------------------
# stage 1: fit the generated layers, copy the rest of the teacher

_STAGE1_ARCH = "C4K3S1-C6K3S1-AvgPool2-FC2"


def _stage1_cfg(**kw):
    kw = {"n_basis": 2, "n_cross": 3, **kw}
    return training.TrainConfig(arch=_STAGE1_ARCH, in_channels=2, in_size=8, epochs=1,
                                generated=(1,), **kw)


def _dense_teacher(arch=_STAGE1_ARCH, seed=30):
    """A dense network whose every array differs from a fresh student's."""
    cfg = training.TrainConfig(arch=arch, in_channels=2, in_size=8, seed=seed)
    teacher = training.build_model(cfg)
    rng = np.random.default_rng(seed)
    for layer in teacher.layers:
        for p in layer.params():
            p.value[...] = rng.standard_normal(p.value.shape)
        if isinstance(layer, nn.BatchNorm2d):
            layer.running_mean = rng.standard_normal(layer.channels)
            layer.running_var = rng.uniform(0.5, 2.0, layer.channels)
    return teacher


@pytest.mark.parametrize("n_basis,n_cross", [(2, 3), (4, 3), (2, 6), (4, 6)],
                         ids=["both-levels", "intra-skipped", "cross-skipped", "both-skipped"])
def test_svd_init_is_the_projection_with_zero_steps(n_basis, n_cross):
    teacher = _dense_teacher()
    cfg = _stage1_cfg(init="svd", n_basis=n_basis, n_cross=n_cross)
    model = training.build_model(cfg)
    residuals = training.initialize_from_teacher(model, teacher, cfg)
    (layer,) = model.generated_layers()
    want, want_residual = training.svd_init(teacher.layers[3].weight.value, layer.factors.plan)
    assert residuals == [want_residual]
    for name, tensor in want.stored():
        assert getattr(layer.factors, name).tobytes() == tensor.tobytes()


@pytest.mark.parametrize("act_bits", [None, 8])
def test_stage1_copies_every_layer_it_does_not_fit(act_bits):
    teacher = _dense_teacher()
    cfg = _stage1_cfg(init="l2", init_iters=5, act_bits=act_bits)
    model = training.build_model(cfg)
    training.initialize_from_teacher(model, teacher, cfg)
    kinds = (nn.Conv2d, nn.BatchNorm2d, nn.Linear)
    copied = [l for l in model.layers if isinstance(l, kinds)]
    originals = [l for l in teacher.layers if isinstance(l, kinds) and l is not teacher.layers[3]]
    assert len(copied) == len(originals) == 4
    for s_layer, t_layer in zip(copied, originals):
        assert type(s_layer) is type(t_layer)
        for s, t in zip(s_layer.params(), t_layer.params()):
            assert s.value.tobytes() == t.value.tobytes()
            assert s.value is not t.value
        if isinstance(s_layer, nn.BatchNorm2d):
            assert s_layer.running_mean.tobytes() == t_layer.running_mean.tobytes()
            assert s_layer.running_var.tobytes() == t_layer.running_var.tobytes()


def test_random_init_skips_stage1(monkeypatch):
    x, y = synthetic_blobs(32, seed=31)
    cfg = _stage1_cfg(init="random")

    def no_stage1(*args):
        raise AssertionError("stage 1 ran for init='random'")

    monkeypatch.setattr(training, "initialize_from_teacher", no_stage1)
    training.train(cfg, x, y, x, y, teacher=_dense_teacher())


@pytest.mark.parametrize("arch,match", [
    ("C4K3S1-C6K3S1-AvgPool2-FC3",
     r"student layer 8 \(Linear\) holds \{'weight': \(2, 24\), 'bias': \(2,\)\}, "
     r"its teacher Linear \{'weight': \(3, 24\)"),
    ("C4K3S1-C6K5S1-AvgPool2-FC2",
     r"student layer 3 \(GeneratedConv2d\) holds \{'weight': \(6, 4, 3, 3\)\}, "
     r"its teacher Conv2d \{'weight': \(6, 4, 5, 5\)\}"),
    ("C4K3S1-C5K3S1-AvgPool2-FC2",
     r"student layer 3 \(GeneratedConv2d\) .* its teacher Conv2d \{'weight': \(5, 4, 3, 3\)\}"),
    ("C4K3S1-C6K3S1-AvgPool2-FC4-FC2", "teacher has 6 conv, batch-norm and linear"),
    ("C4K3S1-FC24-FC6-FC2", r"student layer 3 \(GeneratedConv2d\) .* its teacher Linear"),
], ids=["fc-width", "kernel-size", "conv-width", "layer-count", "layer-kind"])
def test_stage1_names_the_layer_the_teacher_does_not_match(arch, match):
    cfg = _stage1_cfg(init="l2", init_iters=5)
    model = training.build_model(cfg)
    with pytest.raises(ConfigError, match=match):
        training.initialize_from_teacher(model, _dense_teacher(arch), cfg)


def test_stage1_rejects_a_generated_teacher():
    teacher = training.build_model(_stage1_cfg())
    cfg = _stage1_cfg(init="svd")
    with pytest.raises(ConfigError, match="teacher must be a dense network"):
        training.initialize_from_teacher(training.build_model(cfg), teacher, cfg)


def _template_task(seed, n_train, n_test=256):
    """Four 12x12 classes, each a blocky template under unit pixel noise."""
    rng = np.random.default_rng(seed)
    templates = np.kron(rng.standard_normal((4, 1, 4, 4)), np.ones((3, 3)))
    out = []
    for n in (n_train, n_test):
        y = rng.integers(0, 4, n)
        out += [templates[y] + rng.standard_normal((n, 1, 12, 12)), y]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stage1_alone_agrees_with_the_teacher(seed):
    # Measured agreement on these seeds: 0.81-0.94 (svd) and 0.97 (l2)
    # with the copy, 0.24-0.38 with only the generated layer fitted.
    x, y, tx, ty = _template_task(seed, 384)
    arch = "C8K3S1-C8K3S1-AvgPool2-FC4"
    teacher_cfg = training.TrainConfig(arch=arch, in_channels=1, in_size=12, epochs=6,
                                       batch_size=32, lr=0.02, seed=seed, eval_train_samples=32)
    teacher = training.train(teacher_cfg, x, y, tx, ty).model
    t_pred = training.predict(teacher, tx, 256).argmax(axis=1)
    assert np.mean(t_pred == ty) >= 0.95
    for init in ("svd", "l2"):
        cfg = dataclasses.replace(teacher_cfg, generated=(1,), n_basis=2, n_cross=3,
                                  init=init, init_iters=300)
        student = training.build_model(cfg)
        training.initialize_from_teacher(student, teacher, cfg)
        agree = np.mean(training.predict(student, tx, 256).argmax(axis=1) == t_pred)
        assert agree >= 0.6, f"{init}: student agrees with the teacher on {agree:.3f}"


# ---------------------------------------------------------------------------
# TrainConfig ranges and train()'s input shapes


@pytest.mark.parametrize("field,value", [
    ("in_channels", 0), ("in_size", 0), ("eval_train_samples", 0), ("epochs", 0),
    ("batch_size", 0), ("lr", 0), ("lr", float("nan")), ("lr_decay", -1),
    ("lr_decay", 0.0), ("weight_decay", -5), ("ortho_weight", -0.1),
    ("temperature", 0), ("beta", 2), ("beta", -0.5), ("init_iters", -1), ("init", "pca"),
])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=f"config field {field!r} must be"):
        training.TrainConfig(**{field: value})


@pytest.mark.parametrize("bits", [0, 17])
def test_train_config_checks_act_bits_like_the_quantizer(bits):
    with pytest.raises(QuantRangeError, match="act_bits"):
        training.TrainConfig(act_bits=bits)


def test_train_config_edge_values_are_accepted():
    cfg = training.TrainConfig(beta=0, weight_decay=0, ortho_weight=0, init_iters=0,
                               act_bits=1, in_size=1, eval_train_samples=1)
    assert cfg.beta == 0 and cfg.act_bits == 1


@pytest.mark.parametrize("arch", ["C4K3S1-AvgPool2-FC2", "C4K3S1-FC2"],
                         ids=["pooled", "unpooled"])
def test_train_rejects_samples_of_another_shape(arch):
    cfg = training.TrainConfig(arch=arch, in_channels=2, in_size=8, epochs=1)
    good, y = synthetic_blobs(16, size=8, seed=32)
    wide, _ = synthetic_blobs(16, size=10, seed=33)
    for name, args in (("train_x", (wide, y, good, y)), ("test_x", (good, y, wide, y))):
        with pytest.raises(ShapeError, match=rf"{name} samples have shape \(2, 10, 10\), "
                                             r"but in_channels=2 and in_size=8"):
            training.train(cfg, *args)
