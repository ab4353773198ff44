"""End-to-end acceptance checks, one test per criterion.

Each test finishes by printing a single PASS line (visible with -s); a
failing criterion shows up as a normal pytest failure for that test.
The two training criteria need the FashionMNIST IDX files on disk and
skip with an explanation when they are absent, since this environment
cannot download them.
"""

import dataclasses
import os
import struct
import tempfile

import numpy as np
import pytest

from weightgen import (
    costmodel,
    dataio,
    explorer,
    generator,
    nn,
    quantize,
    training,
)
from oracles import enumerate_composed_codes, finite_difference, rel_err
from test_training import synthetic_blobs

TOL_GRAD = 1e-4


def _report(num, text):
    print(f"[criterion {num}] PASS: {text}")


# ---------------------------------------------------------------------------
# 1. compression-ratio formulas at the reference setting


def test_criterion_1_compression_formulas():
    plan = generator.plan_layer(
        128, 128, 3, 2, 40, q_basis=4, q_coeff=4, q_mixer=4
    )
    r = generator.param_ratio(plan)
    r_m = generator.memory_ratio(plan, 16)
    assert abs(r - 0.1090) <= 0.0005, f"r = {r}"
    assert abs(r_m - 0.0273) <= 0.0002, f"r_m = {r_m}"
    _report(1, f"r = {r:.5f} (0.1090 +/- 0.0005), r_m = {r_m:.5f} (0.0273 +/- 0.0002)")


# ---------------------------------------------------------------------------
# 2. latency model at the reference setting


def test_criterion_2_latency_model():
    gen = costmodel.generation_latency(2, 40)
    assert abs(gen - 545.2e-12) <= 0.5e-12, f"generation latency = {gen}"
    plan = generator.plan_layer(
        128, 128, 3, 2, 40, q_basis=4, q_coeff=4, q_mixer=4
    )
    _, _, saved = costmodel.weight_load_latency(plan, q_weight=16)
    assert abs(saved - 7.9e-6) <= 0.1e-6, f"load saved = {saved}"
    _report(
        2,
        f"generation {gen * 1e12:.1f} ps (545.2 +/- 0.5), "
        f"load saved {saved * 1e6:.3f} us (7.9 +/- 0.1)",
    )


# ---------------------------------------------------------------------------
# 3. analytic gradients against central finite differences


def _random_plan(rng, quantized=False):
    c_out = int(rng.integers(2, 7))
    c_in = int(rng.integers(2, 5))
    k = int(rng.choice([2, 3]))
    n_basis = int(rng.integers(1, min(c_in, k * k) + 1))
    n_cross = int(rng.integers(1, c_out + 2))
    return generator.plan_layer(c_out, c_in, k, n_basis, n_cross)


def _check_generate_chain(rng):
    plan = _random_plan(rng)
    factors = generator.init_random(plan, rng)
    target = rng.standard_normal((plan.c_out, plan.c_in, plan.k, plan.k))

    def loss(_=None):
        w = generator.generate(factors, quantized=False)
        return 0.5 * float(np.sum((w - target) ** 2))

    fwd = generator.forward(factors, quantized=False)
    grads = generator.backward(factors, fwd, fwd.weight - target)
    pairs = [(factors.coeff, grads.coeff)]
    if plan.intra_active:
        pairs.append((factors.basis, grads.basis))
    if plan.cross_active:
        pairs.append((factors.mixer, grads.mixer))
    for value, grad in pairs:
        fd = finite_difference(loss, value)
        assert rel_err(fd, grad) < TOL_GRAD


def _check_kd_loss(rng):
    n = int(rng.integers(2, 6))
    c = int(rng.integers(3, 8))
    logits = rng.standard_normal((n, c))
    labels = rng.integers(0, c, n)
    teacher = rng.standard_normal((n, c)) if rng.random() < 0.7 else None
    _, grad = training.kd_loss(
        logits, labels, teacher_logits=teacher, temperature=3.0, beta=0.9
    )
    fd = finite_difference(
        lambda _: float(
            training.kd_loss(
                logits, labels, teacher_logits=teacher, temperature=3.0, beta=0.9
            )[0]
        ),
        logits,
    )
    assert rel_err(fd, grad) < TOL_GRAD


def _check_ortho_reg(rng):
    plan = _random_plan(rng)
    factors = generator.init_random(plan, rng)
    _, grads = training.ortho_reg(factors)
    pairs = [(factors.coeff, grads.coeff)]
    if plan.intra_active:
        pairs.append((factors.basis, grads.basis))
    if plan.cross_active:
        pairs.append((factors.mixer, grads.mixer))
    for value, grad in pairs:
        fd = finite_difference(
            lambda _: float(training.ortho_reg(factors)[0]), value
        )
        assert rel_err(fd, grad) < TOL_GRAD


def _check_conv_backward(rng):
    layer = nn.Conv2d(2, 3, 3, stride=1, pad=1, rng=rng)
    x = rng.standard_normal((2, 5, 5, 2))
    upstream = rng.standard_normal(layer.forward(x).shape)

    def loss(_=None):
        return float(np.sum(layer.forward(x) * upstream))

    for param in layer.params():
        param.zero_grad()
    layer.forward(x, train=True)
    dx = layer.backward(upstream)
    assert rel_err(finite_difference(loss, layer.weight.value), layer.weight.grad) < TOL_GRAD
    assert rel_err(finite_difference(loss, x), dx) < TOL_GRAD


def _check_fc_backward(rng):
    layer = nn.Linear(6, 4, rng=rng)
    x = rng.standard_normal((3, 6))
    upstream = rng.standard_normal((3, 4))

    def loss(_=None):
        return float(np.sum(layer.forward(x) * upstream))

    for param in layer.params():
        param.zero_grad()
    layer.forward(x)
    dx = layer.backward(upstream)
    assert rel_err(finite_difference(loss, layer.weight.value), layer.weight.grad) < TOL_GRAD
    assert rel_err(finite_difference(loss, layer.bias.value), layer.bias.grad) < TOL_GRAD
    assert rel_err(finite_difference(loss, x), dx) < TOL_GRAD


def _check_bn_backward(rng):
    layer = nn.BatchNorm2d(3)
    layer.gamma.value[:] = rng.uniform(0.5, 1.5, 3)
    layer.beta.value[:] = rng.standard_normal(3) * 0.1
    x = rng.standard_normal((3, 4, 4, 2))
    upstream = rng.standard_normal(x.shape)

    def loss(_=None):
        return float(np.sum(layer.forward(x, train=True) * upstream))

    for param in layer.params():
        param.zero_grad()
    layer.forward(x, train=True)
    dx = layer.backward(upstream)
    assert rel_err(finite_difference(loss, x), dx) < TOL_GRAD
    assert rel_err(finite_difference(loss, layer.gamma.value), layer.gamma.grad) < TOL_GRAD
    assert rel_err(finite_difference(loss, layer.beta.value), layer.beta.grad) < TOL_GRAD


def test_criterion_3_gradient_suite():
    families = {
        "generate chain": _check_generate_chain,
        "kd loss": _check_kd_loss,
        "ortho reg": _check_ortho_reg,
        "conv backward": _check_conv_backward,
        "fc backward": _check_fc_backward,
        "bn backward": _check_bn_backward,
    }
    instances = 20
    for idx, check in enumerate(families.values()):
        rng = np.random.default_rng(300 + idx)
        for _ in range(instances):
            check(rng)
    _report(
        3,
        f"{len(families)} gradient families x {instances} random instances, "
        f"all within {TOL_GRAD} of central differences",
    )


# ---------------------------------------------------------------------------
# 4. exact-recovery initialization


def test_criterion_4_exact_recovery_init():
    rng = np.random.default_rng(42)
    plan = generator.plan_layer(8, 6, 3, 2, 4)
    planted = generator.init_random(plan, rng)
    target = generator.generate(planted, quantized=False)
    _, l2_residual = training.l2_project_init(
        target.reshape(plan.c_out, plan.c_in, plan.k, plan.k), plan
    )
    assert l2_residual < 1e-6, f"l2 residual = {l2_residual}"

    cross_plan = generator.plan_layer(16, 4, 3, 4, 6)
    mixer = rng.standard_normal((16, 6))
    w_cross = rng.standard_normal((6, 4 * 9))
    target2 = (mixer @ w_cross).reshape(16, 4, 3, 3)
    _, svd_residual = training.svd_init(target2, cross_plan)
    assert svd_residual < 1e-9, f"svd residual = {svd_residual}"
    _report(
        4,
        f"l2 planted residual {l2_residual:.2e} < 1e-6, "
        f"svd rank-B_c residual {svd_residual:.2e} < 1e-9",
    )


# ---------------------------------------------------------------------------
# 5. distinct-value bound by exhaustive enumeration


def test_criterion_5_distinct_value_bound():
    checked = 0
    for q_b in range(1, 5):
        for q_u in range(1, 5):
            for n_basis in range(1, 4):
                count = enumerate_composed_codes(q_b, q_u, n_basis)
                bound = quantize.distinct_value_bound(q_b, q_u, n_basis)
                assert count <= bound.coeff_count, (
                    f"(q_b={q_b}, q_u={q_u}, B_i={n_basis}): "
                    f"{count} > {bound.coeff_count}"
                )
                checked += 1
    assert checked == 48
    _report(5, f"enumerated all {checked} (q_b, q_u, B_i) settings, none exceed the bound")


# ---------------------------------------------------------------------------
# 6 & 7. desk-scale training on FashionMNIST (requires the IDX files)

_FASHION_SKIP = (
    "FashionMNIST IDX files not found under {root}: this environment has no "
    "network egress, so the dataset cannot be downloaded here. Run "
    "scripts/fetch_fashion_mnist.py on a networked machine and point "
    "WEIGHTGEN_DATA at the resulting directory to enable this criterion."
)


def _fashion_or_skip():
    root = os.environ.get(
        "WEIGHTGEN_DATA",
        os.path.join(os.path.dirname(__file__), "..", "data", "fashion"),
    )
    needed = [name for pair in dataio.FASHION_FILES.values() for name in pair]
    if not all(os.path.exists(os.path.join(root, n)) for n in needed):
        pytest.skip(_FASHION_SKIP.format(root=root))
    train_ds = dataio.load_fashion_split(root, "train")
    test_ds = dataio.load_fashion_split(root, "test")
    return train_ds, test_ds


def test_criterion_6_desk_scale_training():
    train_ds, test_ds = _fashion_or_skip()
    base_cfg = training.TrainConfig(seed=0, epochs=20)
    baseline = training.train(
        base_cfg, train_ds.images, train_ds.labels, test_ds.images, test_ds.labels
    )
    base_acc = float(baseline.metrics[-1]["test_acc"])
    assert base_acc >= 0.89, f"baseline accuracy = {base_acc}"

    student_cfg = dataclasses.replace(
        base_cfg,
        generated=(1, 2),
        n_basis=2,
        n_cross=12,
        init="l2",
        beta=0.9,
        temperature=3.0,
        ortho_weight=0.02,
    )
    student = training.train(
        student_cfg,
        train_ds.images,
        train_ds.labels,
        test_ds.images,
        test_ds.labels,
        teacher=baseline.model,
    )
    student_acc = float(student.metrics[-1]["test_acc"])
    plans = [l.factors.plan for l in student.model.generated_layers()]
    r = sum(generator.param_count(p) for p in plans) / sum(
        generator.dense_param_count(p) for p in plans
    )
    assert abs(r - 0.068) < 0.002, f"r = {r}"
    assert student_acc >= base_acc - 0.025, (
        f"student {student_acc} vs baseline {base_acc}"
    )
    _report(
        6,
        f"baseline {base_acc:.4f} >= 0.89; student {student_acc:.4f} within "
        f"2.5 points at r = {r:.4f}",
    )


def test_criterion_7_ablation_ordering():
    train_ds, test_ds = _fashion_or_skip()
    n_train, n_test, epochs = 10000, 2000, 8
    tx, ty = train_ds.images[:n_train], train_ds.labels[:n_train]
    ex, ey = test_ds.images[:n_test], test_ds.labels[:n_test]

    teacher_cfg = training.TrainConfig(seed=1000, epochs=epochs)
    teacher = training.train(teacher_cfg, tx, ty, ex, ey).model

    def run(seed, init, ortho_weight, with_teacher, beta=0.9):
        cfg = training.TrainConfig(
            seed=seed,
            epochs=epochs,
            generated=(1, 2),
            n_basis=2,
            n_cross=12,
            init=init,
            ortho_weight=ortho_weight,
            beta=beta,
        )
        result = training.train(
            cfg, tx, ty, ex, ey, teacher=teacher if with_teacher else None
        )
        return float(result.metrics[-1]["test_acc"])

    seeds = (0, 1, 2)
    full = np.mean([run(s, "l2", 0.02, True) for s in seeds])
    # The l2 projection and the teacher copy without distillation: beta=0
    # leaves only the label term, so the teacher reaches this arm by stage 1.
    l2_only = np.mean([run(s, "l2", 0.0, True, beta=0.0) for s in seeds])
    random_init = np.mean([run(s, "random", 0.0, False) for s in seeds])
    noise = 0.003
    assert full >= l2_only - noise, f"{full} < {l2_only} - {noise}"
    assert l2_only >= random_init - noise, f"{l2_only} < {random_init} - {noise}"
    _report(
        7,
        f"mean accuracy over seeds: full {full:.4f} >= l2-only {l2_only:.4f} "
        f">= random {random_init:.4f} (within {noise} noise allowance)",
    )


# ---------------------------------------------------------------------------
# 8. blueprint-equivalence special case


def test_criterion_8_special_case_equivalence():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c_out = int(rng.integers(2, 200))
        c_in = int(rng.integers(2, 200))
        k = int(rng.choice([2, 3, 5, 7]))
        n_cross = min(c_out, c_in * k * k) + int(rng.integers(0, 5))
        plan = generator.plan_layer(c_out, c_in, k, 1, n_cross)
        assert plan.intra_active and not plan.cross_active
        expected = (c_in + k * k) / (c_in * k * k)
        assert generator.param_ratio(plan) == expected
    _report(8, "B_i=1 with skipped cross level matches (C_i + k^2)/(C_i k^2) on 10 shapes")


# ---------------------------------------------------------------------------
# 9. cross-module property spot checks


def test_criterion_9_property_suites():
    # determinism: identical configs produce bitwise-identical training runs
    x, y = synthetic_blobs(96, channels=1, size=8, seed=30)
    cfg = training.TrainConfig(
        arch="C4K3S2-AvgPool2-FC2", in_channels=1, in_size=8,
        epochs=1, batch_size=32, seed=6, generated=(0,),
        n_basis=1, n_cross=2, init="random", eval_train_samples=32,
    )
    run_a = training.train(cfg, x, y, x[:32], y[:32])
    run_b = training.train(cfg, x, y, x[:32], y[:32])
    assert run_a.metrics == run_b.metrics
    for pa, pb in zip(run_a.model.params(), run_b.model.params()):
        assert pa.value.tobytes() == pb.value.tobytes()

    # idempotent quantization
    rng = np.random.default_rng(31)
    m = rng.standard_normal((6, 6))
    once = quantize.fake_quantize(m, 5)
    assert np.array_equal(quantize.fake_quantize(once, 5), once)

    # pareto front against the pairwise dominance rule
    points = [
        explorer.ExplorationPoint(
            n_basis=1, n_cross=1, q_basis=8, q_coeff=8, q_mixer=8,
            r=v, r_m=float(rng.uniform(0, 1)), accuracy=float(rng.uniform(0, 1)),
            runtime=0.0, heuristic_preferred=False,
        )
        for v in rng.uniform(0, 1, 15)
    ]
    front = explorer.pareto_front(points)
    for a in points:
        dominated = any(
            (b.r_m <= a.r_m and b.accuracy >= a.accuracy)
            and (b.r_m < a.r_m or b.accuracy > a.accuracy)
            for b in points
        )
        assert (a in front) == (not dominated)

    # correlation scale invariance
    mat = rng.standard_normal((12, 10))
    assert (
        abs(
            explorer.kernel_correlation(3.7 * mat).mean
            - explorer.kernel_correlation(mat).mean
        )
        < 1e-12
    )

    # IDX round trip
    with tempfile.TemporaryDirectory() as tmp:
        images = rng.integers(0, 256, (4, 6, 6)).astype(np.uint8)
        labels = rng.integers(0, 10, 4).astype(np.uint8)
        img, lbl = os.path.join(tmp, "i"), os.path.join(tmp, "l")
        with open(img, "wb") as fh:
            fh.write(struct.pack(">iiii", 2051, 4, 6, 6))
            fh.write(images.tobytes())
        with open(lbl, "wb") as fh:
            fh.write(struct.pack(">ii", 2049, 4))
            fh.write(labels.tobytes())
        ds = dataio.load_idx(img, lbl)
        img2, lbl2 = os.path.join(tmp, "i2"), os.path.join(tmp, "l2")
        dataio.save_idx(ds, img2, lbl2)
        assert open(img2, "rb").read() == open(img, "rb").read()
        assert open(lbl2, "rb").read() == open(lbl, "rb").read()

    _report(
        9,
        "determinism, idempotent quantization, pareto dominance, "
        "correlation scale-invariance, and IDX round-trip all hold",
    )
