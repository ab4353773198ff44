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

    out = layer.forward(x)
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

        layer.forward(x)
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
        # backward must use the training forward's cols, not re-lower x
        m.setattr(tensor, "im2col", None)
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
        full_cols = tensor.im2col(x, 3, 1, 1).nbytes
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", full_cols // 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer.forward(x, train=False)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < full_cols
        assert after - before - out.nbytes < full_cols // 3
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


def test_batchnorm_eval_backward_matches_finite_differences():
    rng = np.random.default_rng(15)
    layer = nn.BatchNorm2d(3)
    layer.gamma.value = rng.uniform(0.5, 1.5, 3)
    layer.beta.value = rng.standard_normal(3)
    layer.running_mean = rng.standard_normal(3)
    layer.running_var = rng.uniform(0.5, 2.0, 3)
    x = rng.standard_normal((3, 5, 5, 4))
    r = rng.standard_normal(x.shape)

    layer.forward(x, train=False)
    layer.gamma.zero_grad()
    layer.beta.zero_grad()
    dx = layer.backward(r)

    want_dx = finite_difference(lambda t: _loss_through(layer, t, r, train=False), x.copy())
    assert rel_err(dx, want_dx) < 1e-7

    def loss_gamma(g):
        layer.gamma.value = g
        return _loss_through(layer, x, r, train=False)

    assert rel_err(layer.gamma.grad,
                   finite_difference(loss_gamma, layer.gamma.value.copy())) < 1e-7

    def loss_beta(b):
        layer.beta.value = b
        return _loss_through(layer, x, r, train=False)

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
            grad = rng.standard_normal(out.shape)
            grad_before = grad.tobytes()
            layer.backward(grad)
            assert x.tobytes() == x_before, (type(layer).__name__, train)
            assert grad.tobytes() == grad_before, (type(layer).__name__, train)
    # As a network's first layer, batch norm sees the caller's own array: a
    # one-sample batch stays C-contiguous through Sequential's transpose.
    net = nn.Sequential([bn, nn.ReLU(), nn.Flatten(), nn.Linear(32, 3, rng=rng)])
    for n in (1, 5):
        for train in (True, False):
            x = rng.standard_normal((n, 2, 4, 4))
            x_before = x.tobytes()
            net.backward(rng.standard_normal(net.forward(x, train=train).shape))
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
    layer = nn.BatchNorm2d(2, momentum=0.1)
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
    dx = net.backward(r)
    want_dx = finite_difference(
        lambda t: float(np.sum(net.forward(t, train=True) * r)), x.copy()
    )
    assert rel_err(dx, want_dx) < 1e-6

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


def test_parse_arch_and_build_errors():
    with pytest.raises(ConfigError):
        nn.parse_arch("C32K5S2-Banana7")
    with pytest.raises(ConfigError):
        nn.parse_arch("")
    for arch, token in [("C0K5S2-FC10", "C0K5S2"), ("C32K0S1-FC10", "C32K0S1"),
                        ("C32K5S0-FC10", "C32K5S0"), ("C32K5S2-FC0", "FC0")]:
        with pytest.raises(ConfigError, match=f"'{token}'"):
            nn.parse_arch(arch)
    rng = np.random.default_rng(11)
    with pytest.raises(ConfigError):
        nn.build_network("C4K3S1-FC2", 1, 8, rng, generated=(5,))
    with pytest.raises(ConfigError):
        nn.build_network("C4K9S1-FC2", 1, 4, rng)


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
                seen.append((name, out.dtype))
                return out
            setattr(layer, method, record)
    opt = RAdam(net.params(), lr=1e-3)
    logits = net.forward(_default_batch(np.float32), train=train)
    net.zero_grad()
    d_x = net.backward(np.ones(logits.shape))  # a float64 gradient, as kd_loss gives
    assert len(seen) == 2 * len(net.layers)
    assert [name for name, dt in seen if dt != np.float32] == []
    assert d_x.dtype == np.float32
    opt.step()
    for name, p in net.named_params():
        assert p.value.dtype == p.grad.dtype == np.float64, name
    assert all(m.dtype == np.float64 for m in opt._m + opt._v)
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
        net.zero_grad()
        net.backward(r)
        assert logits.dtype == dtype
        runs.append((logits, {name: p.grad.copy() for name, p in net.named_params()}))
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
        assert got_net.backward(np.ones(got.shape)).dtype == np.float64
