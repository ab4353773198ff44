import re
import tracemalloc

import numpy as np
import pytest

from weightgen import generator, nn, tensor
from weightgen.errors import ConfigError, ShapeError, WeightgenError
from weightgen.optim import RAdam

from oracles import conv2d_naive, finite_difference, rel_err


def _loss_through(layer, x, r, train=True):
    return float(np.sum(layer.forward(x, train=train) * r))


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    layer = nn.Conv2d(3, 4, 3, stride=2, pad=1, rng=rng)
    x = rng.standard_normal((3, 7, 7, 2))
    r = rng.standard_normal(layer.forward(x).shape)

    layer.forward(x, train=True)
    layer.weight.zero_grad()
    dx = layer.backward(r)

    want_dx = finite_difference(lambda t: _loss_through(layer, t, r), x.copy())
    assert rel_err(dx, want_dx) < 1e-7

    def loss_w(w):
        layer.weight.value = w
        return _loss_through(layer, x, r)

    want_dw = finite_difference(loss_w, layer.weight.value.copy())
    assert rel_err(layer.weight.grad, want_dw) < 1e-7


def test_generated_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    # both levels active, intra skipped, cross skipped
    for plan_args in [(4, 3, 3, 2, 3), (4, 3, 3, 3, 3), (4, 3, 3, 2, 4)]:
        factors = generator.init_random(generator.plan_layer(*plan_args), rng)
        layer = nn.GeneratedConv2d(factors, stride=1, pad=0, quantized=False)
        x = rng.standard_normal((3, 6, 6, 2))
        r = rng.standard_normal(layer.forward(x).shape)

        layer.forward(x, train=True)
        for p in layer.params():
            p.zero_grad()
        dx = layer.backward(r)
        want_dx = finite_difference(lambda t: _loss_through(layer, t, r), x.copy())
        assert rel_err(dx, want_dx) < 1e-7, plan_args

        for p in layer.params():
            def loss_p(v, p=p):
                setattr(factors, p.name, v)
                p.value = v
                return _loss_through(layer, x, r)

            want = finite_difference(loss_p, p.value.copy())
            assert rel_err(p.grad, want) < 1e-7, (plan_args, p.name)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("plan_args", [(4, 3, 3, 2, 3), (4, 3, 3, 3, 3), (4, 3, 3, 2, 4),
                                       (4, 3, 3, 3, 4)],
                         ids=["both", "intra-skipped", "cross-skipped", "both-skipped"])
def test_generated_conv_matches_dense_conv_of_generated_kernel(plan_args, train):
    rng = np.random.default_rng(5)
    factors = generator.init_random(generator.plan_layer(*plan_args), rng)
    layer = nn.GeneratedConv2d(factors, stride=2, pad=1)
    dense = nn.Conv2d(3, 4, 3, stride=2, pad=1, rng=rng)
    fwd = generator.forward(factors)
    dense.weight.value = fwd.weight
    x = rng.standard_normal((3, 7, 7, 3))
    out = layer.forward(x, train=train)
    assert rel_err(out, dense.forward(x, train=train)) < 1e-12
    if not train:
        return  # backward is defined only after a training forward

    r = rng.standard_normal(out.shape)
    assert rel_err(layer.backward(r), dense.backward(r)) < 1e-12
    want = generator.backward(factors, fwd, dense.weight.grad)
    assert [p.name for p in layer.params()] == [name for name, _ in factors.stored()]
    for p in layer.params():
        assert rel_err(p.grad, getattr(want, p.name)) < 1e-12, p.name


@pytest.mark.parametrize("generated", [False, True])
def test_conv_backward_after_training_forward_matches_finite_differences(
        monkeypatch, generated):
    rng = np.random.default_rng(3)
    if generated:
        factors = generator.init_random(generator.plan_layer(4, 3, 3, 2, 3), rng)
        layer = nn.GeneratedConv2d(factors, stride=2, pad=1, quantized=False)
    else:
        layer = nn.Conv2d(3, 4, 3, stride=2, pad=1, rng=rng)
    x = rng.standard_normal((3, 7, 7, 2))
    r = rng.standard_normal(layer.forward(x, train=True).shape)

    layer.forward(x, train=True)
    for p in layer.params():
        p.zero_grad()
    with monkeypatch.context() as m:
        # backward must use the training forward's rows, not re-lower x
        m.setattr(tensor, "row_patches", None)
        dx = layer.backward(r)
    want_dx = finite_difference(lambda t: _loss_through(layer, t, r), x.copy())
    assert rel_err(dx, want_dx) < 1e-7

    for p in layer.params():
        def loss_p(v, p=p):
            if generated:
                setattr(factors, p.name, v)
            p.value = v
            return _loss_through(layer, x, r)

        want = finite_difference(loss_p, p.value.copy())
        assert rel_err(p.grad, want) < 1e-7, p.name


def test_eval_conv_forward_keeps_no_patch_matrix(monkeypatch):
    rng = np.random.default_rng(4)
    dense = nn.Conv2d(8, 2, 3, stride=1, pad=1, rng=rng)
    factors = generator.init_random(generator.plan_layer(4, 8, 3, 2, 3), rng)
    generated = nn.GeneratedConv2d(factors, stride=1, pad=1)
    for layer, kernel in [(dense, dense.weight.value),
                          (generated, generator.generate(factors))]:
        x = rng.standard_normal((8, 10, 10, 12))
        full_rows = tensor.row_patch_bytes(x.shape, 3, 1, 1, 8) * 12
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", full_rows // 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer.forward(x, train=False)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < full_rows
        assert after - before - out.nbytes < full_rows // 3
        assert rel_err(out, tensor.conv2d(x, kernel, 1, 1)[0]) < 1e-12


def test_generated_conv_quantized_forward_uses_generated_kernel():
    rng = np.random.default_rng(2)
    plan = generator.plan_layer(4, 3, 3, 2, 3)
    factors = generator.init_random(plan, rng)
    layer = nn.GeneratedConv2d(factors, quantized=True)
    x = rng.standard_normal((3, 6, 6, 2))
    out = layer.forward(x)
    from weightgen import tensor
    want = tensor.conv2d_forward(x, generator.generate(factors, quantized=True))
    # the layer mixes after the conv, so it sums in another order
    assert rel_err(out, want) < 1e-12
    unquantized = tensor.conv2d_forward(x, generator.generate(factors, quantized=False))
    assert rel_err(out, unquantized) > 1e-3


def test_batchnorm_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    layer = nn.BatchNorm2d(3)
    layer.gamma.value = rng.uniform(0.5, 1.5, 3)
    layer.beta.value = rng.standard_normal(3)
    x = rng.standard_normal((3, 5, 5, 4))
    r = rng.standard_normal(x.shape)

    layer.forward(x, train=True)
    layer.gamma.zero_grad()
    layer.beta.zero_grad()
    dx = layer.backward(r)

    want_dx = finite_difference(lambda t: _loss_through(layer, t, r, train=True), x.copy())
    assert rel_err(dx, want_dx) < 1e-6

    def loss_gamma(g):
        layer.gamma.value = g
        return _loss_through(layer, x, r, train=True)

    assert rel_err(layer.gamma.grad,
                   finite_difference(loss_gamma, layer.gamma.value.copy())) < 1e-7

    def loss_beta(b):
        layer.beta.value = b
        return _loss_through(layer, x, r, train=True)

    assert rel_err(layer.beta.grad,
                   finite_difference(loss_beta, layer.beta.value.copy())) < 1e-7


def test_batchnorm_and_relu_never_write_their_input():
    rng = np.random.default_rng(16)
    bn = nn.BatchNorm2d(2)
    bn.gamma.value = rng.uniform(0.5, 1.5, 2)
    bn.beta.value = rng.standard_normal(2)
    bn.running_mean = rng.standard_normal(2)
    bn.running_var = rng.uniform(0.5, 2.0, 2)
    for layer in (bn, nn.ReLU()):
        for train in (True, False):
            x = rng.standard_normal((2, 4, 4, 3))
            x_before = x.tobytes()
            out = layer.forward(x, train=train)
            if train:  # backward is defined only after a training forward
                grad = rng.standard_normal(out.shape)
                grad_before = grad.tobytes()
                layer.backward(grad)
                assert grad.tobytes() == grad_before, type(layer).__name__
            assert x.tobytes() == x_before, (type(layer).__name__, train)
    # As a network's first layer, batch norm sees the caller's own array: a
    # one-sample batch stays C-contiguous through Sequential's transpose.
    net = nn.Sequential([bn, nn.ReLU(), nn.Flatten(), nn.Linear(32, 3, rng=rng)])
    for n in (1, 5):
        for train in (True, False):
            x = rng.standard_normal((n, 2, 4, 4))
            x_before = x.tobytes()
            out = net.forward(x, train=train)
            if train:
                net.backward(rng.standard_normal(out.shape))
            assert x.tobytes() == x_before, (n, train)


def test_eval_batchnorm_keeps_no_full_size_array_beyond_its_output():
    rng = np.random.default_rng(17)
    layer = nn.BatchNorm2d(8)
    layer.running_mean = rng.standard_normal(8)
    layer.running_var = rng.uniform(0.5, 2.0, 8)
    x = rng.standard_normal((8, 12, 12, 32))
    layer.forward(x, train=True)  # leaves a training cache for the eval forward to drop
    want = (x - layer.running_mean[:, None, None, None]) / np.sqrt(
        layer.running_var[:, None, None, None] + layer.eps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layer.forward(x, train=False)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < out.nbytes + x.nbytes // 2
    assert after - before - out.nbytes < x.nbytes // 8
    assert rel_err(out, want) < 1e-12


def test_batchnorm_running_stats_and_eval_mode():
    rng = np.random.default_rng(4)
    layer = nn.BatchNorm2d(2)
    x = rng.standard_normal((2, 4, 4, 8)) * 2.0 + 1.0
    for _ in range(200):
        layer.forward(x, train=True)
    assert rel_err(layer.running_mean, x.mean(axis=(1, 2, 3))) < 1e-6
    m = 8 * 4 * 4
    assert rel_err(layer.running_var, x.var(axis=(1, 2, 3)) * m / (m - 1)) < 1e-6
    out = layer.forward(x, train=False)
    assert abs(out.mean()) < 0.1
    with pytest.raises(ShapeError):
        layer.forward(rng.standard_normal((3, 4, 4, 2)))


def test_relu_and_flatten_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 4, 3)) + 0.05  # keep away from the kink
    relu = nn.ReLU()
    r = rng.standard_normal(x.shape)
    relu.forward(x)
    dx = relu.backward(r)
    want = finite_difference(lambda t: _loss_through(relu, t, r), x.copy())
    assert rel_err(dx, want) < 1e-7

    flat = nn.Flatten()
    y = flat.forward(x)
    assert y.shape == (3, 32)
    assert np.array_equal(flat.backward(y), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_equals_a_bool_mask_multiply_byte_for_byte(dtype):
    rng = np.random.default_rng(19)
    x = rng.standard_normal((3, 5, 5, 4)).astype(dtype)
    x[0, 0] = 0.0  # zero activations, whose gradient keeps the sign of -0.0
    grad = rng.standard_normal(x.shape).astype(dtype)
    grad[0, 0] = -np.abs(grad[0, 0])
    relu = nn.ReLU()
    y = relu.forward(x, train=True)
    got = relu.backward(grad)
    want = grad * (y > 0)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[0, 0]).all()


def test_adaptive_avgpool_windows_4_to_3():
    # 4 -> 3 uses overlapping windows rows (0,1), (1,2), (2,3).
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    pool = nn.AdaptiveAvgPool2d(3)
    out = pool.forward(x)
    assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
    assert out[0, 1, 1, 0] == pytest.approx((5 + 6 + 9 + 10) / 4)
    assert out[0, 2, 2, 0] == pytest.approx((10 + 11 + 14 + 15) / 4)

    rng = np.random.default_rng(6)
    xr = rng.standard_normal((3, 4, 4, 2))
    r = rng.standard_normal((3, 3, 3, 2))
    pool.forward(xr)
    dx = pool.backward(r)
    want = finite_difference(lambda t: _loss_through(pool, t, r), xr.copy())
    assert rel_err(dx, want) < 1e-7


@pytest.mark.parametrize("h,w,out", [(5, 7, 3), (6, 6, 4), (3, 3, 1), (4, 4, 4)])
def test_adaptive_avgpool_matches_window_means_and_finite_differences(h, w, out):
    rng = np.random.default_rng(60 + h * w + out)
    x = rng.standard_normal((3, h, w, 2))
    pool = nn.AdaptiveAvgPool2d(out)
    got = pool.forward(x, train=True)
    assert got.shape == (3, out, out, 2)
    for i in range(out):
        h0, h1 = int(np.floor(i * h / out)), int(np.ceil((i + 1) * h / out))
        for j in range(out):
            w0, w1 = int(np.floor(j * w / out)), int(np.ceil((j + 1) * w / out))
            want = x[:, h0:h1, w0:w1].mean(axis=(1, 2))
            assert rel_err(got[:, i, j], want) < 1e-14, (i, j)

    r = rng.standard_normal(got.shape)
    dx = pool.backward(r)
    want_dx = finite_difference(lambda t: _loss_through(pool, t, r), x.copy())
    assert dx.shape == x.shape
    assert rel_err(dx, want_dx) < 1e-7


def test_float32_training_batchnorm_matches_float64():
    rng = np.random.default_rng(18)
    c = 32
    # per-channel offsets and scales, as a conv's outputs have
    x = (rng.standard_normal((c, 12, 12, 64)) * rng.uniform(0.5, 2.0, (c, 1, 1, 1))
         + rng.uniform(-2.0, 2.0, (c, 1, 1, 1))).astype(np.float32)
    grad = rng.standard_normal(x.shape).astype(np.float32)
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
    runs = []
    for dtype in (np.float32, np.float64):
        layer = nn.BatchNorm2d(c)
        layer.gamma.value, layer.beta.value = gamma.copy(), beta.copy()
        out = layer.forward(x.astype(dtype), train=True)
        d_x = layer.backward(grad.astype(dtype))
        assert out.dtype == d_x.dtype == dtype
        runs.append((out, d_x, layer.gamma.grad, layer.beta.grad, layer.running_mean,
                     layer.running_var))
    for name, got, want in zip(("out", "d_x", "d_gamma", "d_beta", "running_mean",
                                "running_var"), *runs):
        assert rel_err(got, want) < 1e-5, name


def test_linear_rejects_an_input_that_is_not_2d():
    layer = nn.Linear(6, 4, rng=np.random.default_rng(8))
    with pytest.raises(ShapeError, match=r"2-D.*\(6,\)"):
        layer.forward(np.zeros(6))
    with pytest.raises(ShapeError, match=r"\(2, 1, 6\)"):
        layer.forward(np.zeros((2, 1, 6)))


def test_linear_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    layer = nn.Linear(6, 4, rng=rng)
    x = rng.standard_normal((5, 6))
    r = rng.standard_normal((5, 4))
    layer.forward(x)
    layer.weight.zero_grad()
    layer.bias.zero_grad()
    dx = layer.backward(r)
    assert rel_err(dx, finite_difference(
        lambda t: _loss_through(layer, t, r), x.copy())) < 1e-7

    def loss_w(w):
        layer.weight.value = w
        return _loss_through(layer, x, r)

    assert rel_err(layer.weight.grad,
                   finite_difference(loss_w, layer.weight.value.copy())) < 1e-7


def test_actquant_grid_and_straight_through():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 4, 4))
    layer = nn.ActQuant(bits=4)
    y = layer.forward(x)
    assert np.unique(y).size <= 2**4 - 1
    r = rng.standard_normal(x.shape)
    assert np.array_equal(layer.backward(r), r)  # max-scale, nothing clipped


def test_sequential_end_to_end_gradients():
    rng = np.random.default_rng(9)
    net = nn.build_network("C4K3S1-AvgPool2-FC3", 2, 5, rng)
    x = rng.standard_normal((3, 2, 5, 5))
    r = rng.standard_normal((3, 3))

    net.forward(x, train=True)
    net.zero_grad()
    assert net.backward(r) is None  # parameter gradients only

    for name, p in net.named_params():
        def loss_p(v, p=p):
            p.value[...] = v
            return float(np.sum(net.forward(x, train=True) * r))

        want = finite_difference(loss_p, p.value.copy())
        assert rel_err(p.grad, want) < 1e-5, name


def test_eval_logits_match_an_nchw_reference():
    # Every layer kind, recomputed in the (n, c, h, w) layout with oracles and
    # plain NumPy: pins the network's layout boundaries and Flatten's
    # per-sample (c, h, w) feature order, so Linear weights keep their meaning.
    rng = np.random.default_rng(14)
    net = nn.build_network("C4K3S2P1-C6K3S1-AvgPool2-FC5", 3, 9, rng,
                           generated=(1,), n_basis=2, n_cross=3)
    for layer in net.layers:
        if isinstance(layer, nn.BatchNorm2d):
            c = layer.channels
            layer.running_mean = rng.standard_normal(c)
            layer.running_var = rng.uniform(0.5, 2.0, c)
            layer.gamma.value[:] = rng.uniform(0.5, 1.5, c)
            layer.beta.value[:] = rng.standard_normal(c)
    x = rng.standard_normal((4, 3, 9, 9))

    want = x
    for layer in net.layers:
        if isinstance(layer, nn.Conv2d):
            want = conv2d_naive(want, layer.weight.value, layer.stride, layer.pad)
        elif isinstance(layer, nn.GeneratedConv2d):
            kernel = generator.generate(layer.factors, quantized=True)
            want = conv2d_naive(want, kernel, layer.stride, layer.pad)
        elif isinstance(layer, nn.BatchNorm2d):
            mean, var, gamma, beta = (a[None, :, None, None] for a in (
                layer.running_mean, layer.running_var, layer.gamma.value, layer.beta.value))
            want = (want - mean) / np.sqrt(var + layer.eps) * gamma + beta
        elif isinstance(layer, nn.ReLU):
            want = np.maximum(want, 0.0)
        elif isinstance(layer, nn.AdaptiveAvgPool2d):
            assert layer.out == 2 and want.shape[2:] == (3, 3)
            pooled = np.empty(want.shape[:2] + (2, 2))
            for i, rows in enumerate([slice(0, 2), slice(1, 3)]):
                for j, cols in enumerate([slice(0, 2), slice(1, 3)]):
                    pooled[:, :, i, j] = want[:, :, rows, cols].mean(axis=(2, 3))
            want = pooled
        elif isinstance(layer, nn.Flatten):
            want = want.reshape(want.shape[0], -1)
        else:
            want = want @ layer.weight.value.T + layer.bias.value
    assert [type(l).__name__ for l in net.layers] == [
        "Conv2d", "BatchNorm2d", "ReLU", "GeneratedConv2d", "BatchNorm2d", "ReLU",
        "AdaptiveAvgPool2d", "Flatten", "Linear"]
    got = net.forward(x, train=False)
    assert got.shape == (4, 5)
    assert rel_err(got, want) < 1e-12


def test_build_network_reference_arch_shapes():
    rng = np.random.default_rng(10)
    net = nn.build_network("C32K5S2-C32K5S1-C32K5S1-AvgPool3-FC10", 1, 28, rng,
                           generated=(1, 2), n_basis=2, n_cross=12)
    x = rng.standard_normal((2, 1, 28, 28))
    out = net.forward(x)
    assert out.shape == (2, 10)
    gen = net.generated_layers()
    assert len(gen) == 2
    for layer in gen:
        assert layer.factors.plan.intra_active
        assert layer.factors.plan.cross_active
        assert abs(generator.param_ratio(layer.factors.plan) - 0.0684) < 0.001
    # conv feature map sizes: 28 -> 12 -> 8 -> 4, then adaptive pool to 3.
    fc = [l for l in net.layers if isinstance(l, nn.Linear)][0]
    assert fc.weight.value.shape == (10, 288)


def _plan(arch):
    return nn.plan_network(arch, 1, 28, (), 2, 12, 4, 4, 4)


def test_plan_network_arch_token_and_build_errors():
    with pytest.raises(ConfigError):
        _plan("C32K5S2-Banana7")
    with pytest.raises(ConfigError):
        _plan("")
    for arch, token in [("C0K5S2-FC10", "C0K5S2"), ("C32K0S1-FC10", "C32K0S1"),
                        ("C32K5S0-FC10", "C32K5S0"), ("C32K5S2-FC0", "FC0")]:
        with pytest.raises(ConfigError, match=f"'{token}'"):
            _plan(arch)
    rng = np.random.default_rng(11)
    with pytest.raises(ConfigError):
        nn.build_network("C4K3S1-FC2", 1, 8, rng, generated=(5,))
    with pytest.raises(ConfigError):
        nn.build_network("C4K9S1-FC2", 1, 4, rng)


def test_plan_network_rejects_negative_generated_indices():
    for generated, bad in [((-1,), "[-1]"), ((0, -2), "[-2]"), ((-1, 3), "[-1, 3]")]:
        with pytest.raises(ConfigError, match=re.escape(
                f"generated conv indices {bad} out of range: arch has 2 convs")):
            nn.plan_network("C4K3S1-C4K3S1-FC2", 1, 8, generated, 2, 2, 4, 4, 4)


def test_plan_network_gives_the_built_plans_and_errors():
    args = ("C32K5S2-C32K5S1-C32K5S1-AvgPool3-FC10", 1, 28, (1, 2), 2, 12, 4, 4, 4)
    tokens = nn.plan_network(*args)
    net = nn.build_network(*args[:3], np.random.default_rng(12), *args[3:])
    assert [a[-1] for kind, a in tokens if kind == "conv" and a[-1] is not None] == [
        layer.factors.plan for layer in net.generated_layers()
    ]
    assert [kind for kind, _ in tokens] == ["conv"] * 3 + ["avgpool", "flatten", "fc"]
    for arch, size, generated in [("C4K3S1-AvgPool0-FC2", 8, ()), ("C4K9S1-FC2", 4, ()),
                                  ("C4K3S1-FC2", 8, (5,)), ("C4K3S1-FC2", 8, (0,)),
                                  ("C8K3S1", 8, ()), ("C8K3S1-AvgPool2", 8, ()),
                                  ("FC10-C8K3S1", 8, ()), ("FC10-FC10-AvgPool2", 8, ()),
                                  ("C4K3S1-AvgPool9-FC2", 8, ())]:
        n_basis = 0  # infeasible for the generated layer, if any
        with pytest.raises(WeightgenError) as planned:
            nn.plan_network(arch, 1, size, generated, n_basis, 2, 4, 4, 4)
        with pytest.raises(WeightgenError) as built:
            nn.build_network(arch, 1, size, np.random.default_rng(0), generated, n_basis, 2)
        assert repr(planned.value) == repr(built.value)
    # a pool cannot enlarge its map: the error names the token at plan time
    with pytest.raises(ConfigError, match="'AvgPool9'"):
        nn.plan_network("C4K3S1-AvgPool9-FC2", 1, 8, (), 2, 2, 4, 4, 4)
    # the output is always (n, classes): an FC block ends every arch
    for arch, token in [("C8K3S1", "C8K3S1"), ("C8K3S1-AvgPool2", "AvgPool2"),
                        ("FC10-C8K3S1", "C8K3S1"), ("FC10-FC10-AvgPool2", "AvgPool2")]:
        with pytest.raises(ConfigError, match=f"'{token}'"):
            nn.plan_network(arch, 1, 8, (), 2, 2, 4, 4, 4)


def test_backward_after_a_forward_that_raised_part_way_is_a_typed_error():
    net = nn.build_network("C4K3S1-FC3", 2, 8, np.random.default_rng(36))
    rng = np.random.default_rng(37)
    net.forward(rng.standard_normal((4, 2, 8, 8)), train=True)
    # the conv, batch norm and ReLU caches are fresh, the linear layer's stale
    with pytest.raises(ShapeError):
        net.forward(rng.standard_normal((4, 2, 9, 9)), train=True)
    with pytest.raises(WeightgenError, match="backward needs a training forward"):
        net.backward(np.ones((4, 3)))
    net.forward(rng.standard_normal((4, 2, 8, 8)), train=True)
    net.backward(np.ones((4, 3)))
    for name, p in net.named_params():
        assert np.all(np.isfinite(p.grad)) and np.any(p.grad), name


def test_backward_releases_each_layer_state_and_runs_once_per_training_forward(
        monkeypatch):
    net = _default_net(generated=(1,))
    rng = np.random.default_rng(38)
    x, r = rng.random((4, 1, 28, 28)), rng.standard_normal((4, 10))
    net.forward(x, train=True)
    assert all(layer._cache is not None for layer in net.conv_layers())
    net.backward(r)
    grads = [p.grad.tobytes() for p in net.params()]
    assert [type(l).__name__ for l in net.layers if l._cache is not None] == []
    with pytest.raises(WeightgenError, match="backward needs a training forward"):
        net.backward(r)
    # a backward that raises part way leaves no backward to resume
    net.forward(x, train=True)
    with monkeypatch.context() as m:
        m.setattr(net.layers[3], "backward", lambda grad: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            net.backward(r)
    with pytest.raises(WeightgenError, match="backward needs a training forward"):
        net.backward(r)
    net.forward(x, train=True)
    net.zero_grad()
    net.backward(r)
    assert [p.grad.tobytes() for p in net.params()] == grads


def test_backward_that_raises_part_way_drops_every_layer_state(monkeypatch):
    x = _default_batch(np.float32)
    r = np.random.default_rng(40).standard_normal((8, 10))

    def step_grads(net):
        net.zero_grad()
        net.forward(x, train=True)
        net.backward(r)
        return [p.grad.tobytes() for p in net.params()]

    net = _default_net(generated=(1, 2))
    net.forward(x, train=True)
    with monkeypatch.context() as m:
        m.setattr(net.layers[3], "backward", lambda grad: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            net.backward(r)
    assert [i for i, layer in enumerate(net.layers) if layer._cache is not None] == []
    assert step_grads(net) == step_grads(_default_net(generated=(1, 2)))


def test_backward_frees_a_conv_patch_matrix_before_it_makes_its_input_gradient():
    """On the default dense arch at batch 64 in float32, backward's traced
    peak above what the training forward keeps stays below one layer-1
    row-patch matrix (3.9 MB): each layer's state goes as its backward
    consumes it, so layer 1's row patches are gone before their gradient, a
    matrix of the same size, is made."""
    net = _default_net(generated=())
    x = _default_batch(np.float32, n=64)
    r = np.random.default_rng(39).standard_normal((64, 10))
    rows_bytes = tensor.row_patch_bytes((32, 12, 12, 64), 5, 1, 0, 4) * 64
    tracemalloc.start()
    try:
        net.forward(x, train=True)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        net.backward(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # layer 1's row patches are part of the forward's state
    assert kept > rows_bytes
    assert peak - kept < rows_bytes


def _full_backward_grads(net, x, r):
    """Parameter gradients from every layer's full backward, run by hand."""
    net.forward(x, train=True)
    grad = np.asarray(r, dtype=x.dtype)
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    assert grad.shape == x.transpose(1, 2, 3, 0).shape
    return [p.grad.tobytes() for p in net.params()]


def test_network_backward_forms_no_network_input_gradient(monkeypatch):
    x = _default_batch(np.float32)
    r = np.random.default_rng(41).standard_normal((8, 10))
    want = _full_backward_grads(_default_net(generated=()), x, r)
    x_shapes = []
    input_grad = tensor.conv2d_input_grad

    def recording_input_grad(grad, weight, x_shape, *args):
        x_shapes.append(x_shape)
        return input_grad(grad, weight, x_shape, *args)

    monkeypatch.setattr(tensor, "conv2d_input_grad", recording_input_grad)
    net = _default_net(generated=())
    net.forward(x, train=True)
    net.backward(r)
    # layers 2 and 1 form their input gradients, layer 0 none
    assert x_shapes == [(32, 8, 8, 8), (32, 12, 12, 8)]
    assert [p.grad.tobytes() for p in net.params()] == want


# ---------------------------------------------------------------------------
# activation dtype: float32 batches run in float32, everything else in float64


def _default_batch(dtype, n=8, seed=21):
    return np.random.default_rng(seed).random((n, 1, 28, 28)).astype(dtype)


def _default_net(**kw):
    return nn.build_network("C32K5S2-C32K5S1-C32K5S1-AvgPool3-FC10", 1, 28,
                            np.random.default_rng(20), n_basis=2, n_cross=12, **kw)


@pytest.mark.parametrize("train", [True, False])
def test_float32_batch_stays_float32_while_state_stays_float64(train):
    net = _default_net(generated=(1, 2), act_bits=8)
    assert any(isinstance(l, nn.ActQuant) for l in net.layers)
    seen = []
    for i, layer in enumerate(net.layers):
        for method in ("forward", "backward"):
            def record(*args, orig=getattr(layer, method), name=f"{i}.{method}", **kw):
                out = orig(*args, **kw)
                seen.append((name, None if out is None else out.dtype))
                return out
            setattr(layer, method, record)
    opt = RAdam(net.params(), lr=1e-3)
    logits = net.forward(_default_batch(np.float32), train=train)
    if train:  # backward is defined only after a training forward
        net.zero_grad()
        net.backward(np.ones(logits.shape))  # a float64 gradient, as kd_loss gives
        opt.step()
        assert opt._m.dtype == opt._v.dtype == np.float64
    assert len(seen) == (2 if train else 1) * len(net.layers)
    dtypes = dict(seen)
    if train:  # the first layer's backward forms no input gradient
        assert dtypes.pop("0.backward") is None
    assert [name for name, dt in dtypes.items() if dt != np.float32] == []
    for name, p in net.named_params():
        assert p.value.dtype == p.grad.dtype == np.float64, name
    for layer in net.layers:
        if isinstance(layer, nn.BatchNorm2d):
            assert layer.running_mean.dtype == layer.running_var.dtype == np.float64


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("generated", [(), (1, 2)], ids=["dense", "generated"])
def test_float32_and_float64_runs_agree(generated, train):
    x = _default_batch(np.float64)
    r = np.random.default_rng(22).standard_normal((x.shape[0], 10))
    runs = []
    for dtype in (np.float64, np.float32):
        net = _default_net(generated=generated)
        logits = net.forward(x.astype(dtype), train=train)
        assert logits.dtype == dtype
        grads = {}
        if train:  # backward is defined only after a training forward
            net.zero_grad()
            net.backward(r)
            grads = {name: p.grad.copy() for name, p in net.named_params()}
        runs.append((logits, grads))
    (want, want_grads), (got, got_grads) = runs
    assert rel_err(got, want) <= 1e-4
    for name, grad in want_grads.items():
        assert rel_err(got_grads[name], grad) <= 1e-4, name


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float16])
def test_other_input_dtypes_run_the_float64_path(dtype):
    x = (_default_batch(np.float64) * 4).astype(dtype)
    for train in (True, False):
        got_net, want_net = _default_net(generated=(1,)), _default_net(generated=(1,))
        got = got_net.forward(x, train=train)
        want = want_net.forward(x.astype(np.float64), train=train)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        if train:  # backward is defined only after a training forward
            seen = []  # the input gradients' dtypes, from layers 1..n
            for layer in got_net.layers[1:]:
                def record(grad, orig=layer.backward):
                    out = orig(grad)
                    seen.append(out.dtype)
                    return out
                layer.backward = record
            got_net.backward(np.ones(got.shape))
            assert seen == [np.float64] * (len(got_net.layers) - 1)


# C_in=16 and k=5 make the grouped path the cheaper one for the intra-active
# plans on a 9x9 input at every stride and pad used below
_PLAN_CLASSES = pytest.mark.parametrize(
    "plan_args", [(4, 16, 5, 2, 3), (4, 16, 5, 16, 3), (4, 16, 5, 2, 4), (4, 16, 5, 16, 4)],
    ids=["both", "intra-skipped", "cross-skipped", "both-skipped"])


@_PLAN_CLASSES
def test_generated_first_layer_skips_its_input_gradient_bitwise(plan_args):
    # a generated layer 0, on the grouped path when its intra level is active
    x = np.random.default_rng(42).standard_normal((4, 16, 9, 9))
    r = np.random.default_rng(43).standard_normal((4, 3))

    def net():
        c_out, c_in, k, n_basis, n_cross = plan_args
        return nn.build_network(f"C{c_out}K{k}S2P1-AvgPool2-FC3", c_in, 9,
                                np.random.default_rng(44), generated=(0,),
                                n_basis=n_basis, n_cross=n_cross)

    layer = net().layers[0]
    assert layer._grouped((16, 9, 9, 4)) == layer.factors.plan.intra_active
    got = net()
    got.forward(x, train=True)
    got.backward(r)
    assert [p.grad.tobytes() for p in got.params()] == _full_backward_grads(net(), x, r)


@pytest.mark.parametrize("train", [True, False])
@_PLAN_CLASSES
def test_float32_generated_layer_matches_float64(monkeypatch, plan_args, train):
    rng = np.random.default_rng(23)
    factors = generator.init_random(generator.plan_layer(*plan_args), rng)
    x = rng.standard_normal((16, 9, 9, 4))
    r = rng.standard_normal((4, 4, 4, 4))
    p = factors.plan
    # the kernels each forward's grouped conv runs: n_basis channels per
    # output on the grouped path, all C_in on the cross conv off it
    want_kernels = ((p.n_cross, 1, p.n_basis, 5, 5) if p.intra_active
                    else (1, p.n_cross, 16, 5, 5))
    kernel_shapes = []
    grouped_conv = tensor.grouped_conv

    def recording_grouped_conv(u, kernels, *args):
        kernel_shapes.append(kernels.shape)
        return grouped_conv(u, kernels, *args)

    monkeypatch.setattr(tensor, "grouped_conv", recording_grouped_conv)
    runs = []
    for dtype in (np.float64, np.float32):
        layer = nn.GeneratedConv2d(factors, stride=2, pad=1)
        kernel_shapes.clear()
        out = layer.forward(x.astype(dtype), train=train)
        assert kernel_shapes == [want_kernels]
        assert out.dtype == dtype
        grads = {}
        if train:  # backward is defined only after a training forward
            d_x = layer.backward(r.astype(dtype))
            assert d_x.dtype == dtype
            grads = {"d_x": d_x, **{p.name: p.grad for p in layer.params()}}
        runs.append((out, grads))
    (want, want_grads), (got, got_grads) = runs
    assert rel_err(got, want) < 1e-5
    for name, grad in want_grads.items():
        assert rel_err(got_grads[name], grad) < 1e-5, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_intra_active_generated_conv_trains_without_im2col(monkeypatch, dtype):
    rng = np.random.default_rng(24)
    factors = generator.init_random(generator.plan_layer(4, 16, 5, 2, 3), rng)
    layer = nn.GeneratedConv2d(factors, stride=2, pad=1)
    x = rng.standard_normal((16, 9, 9, 2)).astype(dtype)
    dense = nn.Conv2d(16, 4, 5, stride=2, pad=1, rng=rng)
    dense.weight.value = generator.generate(factors)
    want = dense.forward(x, train=True)
    r = rng.standard_normal(want.shape).astype(dtype)
    want_dx = dense.backward(r)
    monkeypatch.setattr(tensor, "conv2d", None)  # a generated layer never runs the dense conv
    out = layer.forward(x, train=True)
    d_x = layer.backward(r)
    assert rel_err(out, want) < 1e-5 and rel_err(d_x, want_dx) < 1e-5
    assert all(np.abs(p.grad).sum() > 0 for p in layer.params())


@pytest.mark.parametrize("n_basis, grouped", [(1, True), (2, True), (6, False), (12, False)])
@pytest.mark.parametrize("stride, pad", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_generated_conv_takes_the_path_with_fewer_multiply_adds(
        monkeypatch, n_basis, grouped, stride, pad):
    rng = np.random.default_rng(26)
    factors = generator.init_random(generator.plan_layer(4, 16, 5, n_basis, 3), rng)
    layer = nn.GeneratedConv2d(factors, stride=stride, pad=pad)
    fwd = generator.forward(factors)
    dense = nn.Conv2d(16, 4, 5, stride=stride, pad=pad, rng=rng)
    dense.weight.value = fwd.weight
    x = rng.standard_normal((16, 9, 9, 3))
    want = dense.forward(x, train=True)
    r = rng.standard_normal(want.shape)
    want_dx = dense.backward(r)
    want_grads = generator.backward(factors, fwd, dense.weight.grad)
    # the path not taken must not run: the grouped path convolves n_basis
    # channels per output, the cross conv all C_in
    kernel_shapes = []
    grouped_conv = tensor.grouped_conv

    def recording_grouped_conv(u, kernels, *args):
        kernel_shapes.append(kernels.shape)
        return grouped_conv(u, kernels, *args)

    monkeypatch.setattr(tensor, "grouped_conv", recording_grouped_conv)
    monkeypatch.setattr(tensor, "conv2d", None)
    out = layer.forward(x, train=True)
    assert kernel_shapes == [(3, 1, n_basis, 5, 5) if grouped else (1, 3, 16, 5, 5)]
    assert rel_err(out, want) < 1e-12
    assert rel_err(layer.backward(r), want_dx) < 1e-12
    for p in layer.params():
        assert rel_err(p.grad, getattr(want_grads, p.name)) < 1e-12, p.name


def test_layer1_of_the_default_arch_leaves_the_grouped_path_above_n_basis_6():
    # (C_out, C_in, k) = (32, 32, 5) on a 12x12 input, stride 1, pad 0:
    # n_basis*(32*144/64 + 5*12) against 32*25 multiply-adds per output pixel
    rng = np.random.default_rng(27)
    x = np.zeros((32, 12, 12, 1))
    for n_basis in range(1, 25):
        factors = generator.init_random(generator.plan_layer(32, 32, 5, n_basis, 12), rng)
        layer = nn.GeneratedConv2d(factors)
        assert layer._grouped(x.shape) == (n_basis <= 6), n_basis


@pytest.mark.parametrize("train", [True, False])
@_PLAN_CLASSES
def test_banded_cross_conv_matches_the_dense_mec_one(monkeypatch, plan_args, train):
    rng = np.random.default_rng(29)
    factors = generator.init_random(generator.plan_layer(*plan_args), rng)
    x = rng.standard_normal((16, 9, 9, 4))
    r = rng.standard_normal((4, 4, 4, 4))
    # the reference: the dense MEC conv, tensor.conv2d, with the generated kernels
    fwd = generator.forward(factors)
    dense = nn.Conv2d(16, 4, 5, stride=2, pad=1, rng=rng)
    dense.weight.value = fwd.weight
    want = dense.forward(x, train=train)
    if train:
        want_dx = dense.backward(r)
        want_grads = generator.backward(factors, fwd, dense.weight.grad)
    monkeypatch.setattr(nn.GeneratedConv2d, "_grouped", lambda self, x_shape: False)
    monkeypatch.setattr(tensor, "conv2d", None)
    layer = nn.GeneratedConv2d(factors, stride=2, pad=1)
    assert rel_err(layer.forward(x, train=train), want) < 1e-12
    if train:
        assert rel_err(layer.backward(r), want_dx) < 1e-12
        for p in layer.params():
            assert rel_err(p.grad, getattr(want_grads, p.name)) < 1e-12, p.name


@pytest.mark.parametrize("n_basis", [2, 16])
def test_generated_conv_rejects_wrong_input_channels(n_basis):
    factors = generator.init_random(generator.plan_layer(4, 16, 5, n_basis, 3),
                                    np.random.default_rng(28))
    layer = nn.GeneratedConv2d(factors, stride=2, pad=1)
    for train in (True, False):
        with pytest.raises(ShapeError, match="expects 16 input channels"):
            layer.forward(np.zeros((15, 9, 9, 2)), train=train)


def test_eval_generated_conv_runs_all_three_steps_per_block(monkeypatch):
    rng = np.random.default_rng(25)
    factors = generator.init_random(generator.plan_layer(4, 16, 5, 2, 3), rng)
    layer = nn.GeneratedConv2d(factors, stride=1, pad=1)
    x = rng.standard_normal((16, 10, 10, 12))
    want = layer.forward(x, train=True)
    u_shape = (6, 10, 10, 12)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", tensor.row_patch_bytes(u_shape, 5, 1, 1, 8) * 4)
    blocks = []
    grouped_conv = tensor.grouped_conv

    def counting_grouped_conv(u, *args):
        blocks.append(u.shape[3])
        return grouped_conv(u, *args)

    monkeypatch.setattr(tensor, "grouped_conv", counting_grouped_conv)
    out = layer.forward(x, train=False)
    assert blocks == [4, 4, 4]
    assert rel_err(out, want) < 1e-12


def test_eval_banded_cross_conv_blocks_bound_every_temporary(monkeypatch):
    # intra-skipped with a mixer: per sample, the row patches of x and the
    # n_cross and C_out output channels
    rng = np.random.default_rng(31)
    factors = generator.init_random(generator.plan_layer(6, 16, 5, 16, 3), rng)
    layer = nn.GeneratedConv2d(factors, stride=1, pad=1)
    x = rng.standard_normal((16, 10, 10, 12))
    assert not layer._grouped(x.shape)
    want = layer.forward(x, train=True)
    # and x's padded copy, which row_patches makes at pad 1
    sample_bytes = (tensor.row_patch_bytes(x.shape, 5, 1, 1, 8) + (3 + 6) * 8 * 8 * 8
                    + 16 * 12 * 12 * 8)
    # 3 samples per block; counting the row patches alone would give 4
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", sample_bytes * 3)
    blocks = []
    grouped_conv = tensor.grouped_conv

    def counting_grouped_conv(u, *args):
        blocks.append(u.shape[3])
        return grouped_conv(u, *args)

    monkeypatch.setattr(tensor, "grouped_conv", counting_grouped_conv)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layer.forward(x, train=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [3, 3, 3, 3]
    assert rel_err(out, want) < 1e-12
    # the output, one block's temporaries, the banded kernel matrix and the
    # generated factors
    banded_bytes = (3 * 8) * (16 * 5 * 12) * 8
    assert peak - before <= out.nbytes + sample_bytes * 3 + banded_bytes + 2**14
