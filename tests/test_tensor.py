import tracemalloc

import numpy as np
import pytest

from weightgen import tensor
from weightgen.errors import ShapeError

from oracles import conv2d_backward_naive, conv2d_naive, finite_difference, gemm_naive, rel_err


def _chwn(a):
    """An (n, c, h, w) oracle array in the (c, h, w, n) layout tensor uses."""
    return a.transpose(1, 2, 3, 0)


def _nchw(a):
    """A (c, h, w, n) tensor result in the (n, c, h, w) layout oracles use."""
    return a.transpose(3, 0, 1, 2)


def test_matmul_agrees_with_gemm_to_roundoff():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((24, 40))
    b = rng.standard_normal((40, 18))
    assert rel_err(tensor.matmul(a, b), gemm_naive(a, b)) < 1e-13


@pytest.mark.parametrize(
    "n,c,h,w,k,stride,pad",
    [
        (1, 1, 5, 5, 3, 1, 0),
        (2, 3, 8, 8, 3, 1, 1),
        (2, 4, 9, 7, 3, 2, 0),
        (1, 2, 6, 6, 5, 1, 2),
        (3, 1, 28, 28, 5, 2, 0),
        (1, 3, 4, 4, 1, 1, 0),
    ],
)
def test_conv2d_matches_nested_loops(n, c, h, w, k, stride, pad):
    rng = np.random.default_rng(1000 + n * 100 + k)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((4, c, k, k))
    got = _nchw(tensor.conv2d_forward(_chwn(x), wt, stride=stride, pad=pad))
    want = conv2d_naive(x, wt, stride=stride, pad=pad)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize(
    "n,c,h,w,k,stride,pad,per_block",
    [
        (9, 3, 8, 8, 3, 1, 0, 3),
        (8, 2, 9, 7, 3, 2, 1, 2),
        (7, 2, 6, 6, 5, 1, 2, 3),
    ],
)
def test_conv2d_forward_blocks_match_oracle(monkeypatch, n, c, h, w, k, stride, pad,
                                            per_block):
    rng = np.random.default_rng(2000 + n)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((4, c, k, k))
    rows_per_sample = tensor.row_patch_bytes((c, h, w, 1), k, stride, pad, 8)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", per_block * rows_per_sample)
    blocks = []
    row_patches = tensor.row_patches

    def counting_row_patches(xb, *args):
        blocks.append(xb.shape[3])
        return row_patches(xb, *args)

    monkeypatch.setattr(tensor, "row_patches", counting_row_patches)
    got = _nchw(tensor.conv2d_forward(_chwn(x), wt, stride=stride, pad=pad))
    assert len(blocks) == -(-n // per_block) >= 3
    assert sum(blocks) == n and max(blocks) <= per_block
    assert max(blocks) - min(blocks) <= (0 if n % len(blocks) == 0 else 1)
    assert rel_err(got, conv2d_naive(x, wt, stride=stride, pad=pad)) < 1e-12
    assert rel_err(got, _nchw(tensor.conv2d(_chwn(x), wt, stride, pad)[0])) < 1e-12


def test_conv2d_forward_writes_blocks_into_one_output(monkeypatch):
    # C_out = 16 > C_in*k = 3, so an output outweighs one block's row
    # patches and GEMM result together: joining the block outputs after the
    # fact would hold two outputs at once, well above the bound below.
    rng = np.random.default_rng(2100)
    x = rng.standard_normal((1, 12, 12, 16))
    wt = rng.standard_normal((16, 1, 3, 3))
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", tensor.row_patch_bytes(x.shape, 3, 1, 1, 8) * 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = tensor.conv2d_forward(x, wt, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = [tensor.conv2d(x[..., a : a + 4], wt, 1, 1)[0] for a in range(0, 16, 4)]
    assert out.flags.c_contiguous
    assert out.tobytes() == np.concatenate(blocks, axis=3).tobytes()
    block_rows = tensor.row_patches(x[..., :4], 3, 1, 1).nbytes
    bound = out.nbytes + block_rows + blocks[0].nbytes + blocks[0].nbytes // 4
    assert bound < 2 * out.nbytes
    assert peak - before < bound


def test_row_patches_row_and_column_order():
    # 1 sample, 2 channels, 3x3 image, k=2: rows run (input row, channel,
    # kernel col) in C order, and each holds that row's out-cols shifted by
    # the kernel col.
    x = np.arange(18, dtype=np.float64).reshape(1, 2, 3, 3)
    rows = tensor.row_patches(_chwn(x), k=2)
    assert rows.shape == (1, 3 * 2 * 2, 2)
    assert rows[0, :4].tolist() == [[0, 1], [1, 2], [9, 10], [10, 11]]
    assert rows[0, 4:8].tolist() == [[3, 4], [4, 5], [12, 13], [13, 14]]
    # output row 1's MEC window starts one input row, C_in*k = 4 rows, later
    assert rows[0, 8:].tolist() == [[6, 7], [7, 8], [15, 16], [16, 17]]


def test_row_patches_columns_put_the_sample_innermost_and_groups_outermost():
    # 2 samples, 4 channels in 2 groups, 3x4 image, k=2: columns run
    # (out-col, sample) in C order, and group g holds channels 2g, 2g + 1.
    x = np.arange(96, dtype=np.float64).reshape(2, 4, 3, 4)
    rows = tensor.row_patches(_chwn(x), k=2, groups=2).reshape(2, 3, 2, 2, 3, 2)
    for g in range(2):
        for hp in range(3):
            for b in range(2):
                for j in range(2):
                    for wo in range(3):
                        for s in range(2):
                            want = x[s, 2 * g + b, hp, wo + j]
                            assert rows[g, hp, b, j, wo, s] == want


def _row_patches_loops(x, k, stride):
    """row_patches at pad 0 of an (n, c, h, w) batch, one entry at a time."""
    n, c, h, w = x.shape
    h_used = ((h - k) // stride) * stride + k
    w_out = (w - k) // stride + 1
    return np.array([[[x[b, ch, hp, wo * stride + j] for wo in range(w_out) for b in range(n)]
                      for hp in range(h_used) for ch in range(c) for j in range(k)]])


@pytest.mark.parametrize("k,stride", [(3, 1), (2, 2), (1, 1)])
def test_row_patches_at_pad_0_read_strided_inputs_and_copy(k, stride):
    # At pad 0 row_patches strides over x itself: Sequential's transposed
    # entry view and a sample slice are not contiguous, and a 1x1 window at
    # stride 1 must still hand back a copy of x.
    rng = np.random.default_rng(60 + k)
    x = rng.standard_normal((6, 3, 7, 8))
    entry = _chwn(x)  # what Sequential.forward passes its first layer
    chwn = np.ascontiguousarray(entry)
    for view, batch in ((entry, x), (chwn[..., 2:5], x[2:5]), (chwn, x)):
        before = view.copy()
        rows = tensor.row_patches(view, k, stride, 0)
        assert np.array_equal(rows, _row_patches_loops(batch, k, stride))
        assert rows.flags.c_contiguous and rows.flags.writeable
        rows += 1.0
        assert np.array_equal(view, before)


def test_generated_layer_sized_d_weight_matches_nested_loops():
    # The basis conv of a generated layer 1: C_in 32, B_c = 12 kernels of 5x5
    # over 12x12 maps, where d_weight is the windows' (rows @ g.T).T products.
    rng = np.random.default_rng(61)
    x = rng.standard_normal((3, 32, 12, 12))
    wt = rng.standard_normal((12, 32, 5, 5))
    out, cols = tensor.conv2d(_chwn(x), wt)
    grad = rng.standard_normal(_nchw(out).shape)
    d_w = tensor.conv2d_weight_grad(_chwn(grad), cols, wt.shape)
    d_x = tensor.conv2d_input_grad(_chwn(grad), wt, _chwn(x).shape)
    want_w, want_x = conv2d_backward_naive(x, wt, grad)
    assert d_w.shape == wt.shape
    assert rel_err(d_w, want_w) < 1e-12
    assert rel_err(_nchw(d_x), want_x) < 1e-12


def test_eval_conv_of_layer_1_at_batch_256_runs_in_4_blocks(monkeypatch):
    # Layer 1's float32 row patches at evaluate's batch 256 are 15.7 MB; a
    # 4 MiB bound splits them into 4 blocks of 64 samples (3.9 MB each).
    rng = np.random.default_rng(62)
    x = rng.standard_normal((32, 12, 12, 256)).astype(np.float32)
    wt = rng.standard_normal((32, 32, 5, 5))
    per_block = tensor._BLOCK_BYTES // tensor.row_patch_bytes(x.shape, 5, 1, 0, 4)
    n_blocks = -(-256 // per_block)
    calls = []
    conv2d = tensor.conv2d

    def counting_conv2d(xb, *args):
        calls.append(xb.shape[3])
        return conv2d(xb, *args)

    monkeypatch.setattr(tensor, "conv2d", counting_conv2d)
    out = tensor.conv2d_forward(x, wt)
    bounds = [256 * i // n_blocks for i in range(n_blocks + 1)]
    assert calls == [b - a for a, b in zip(bounds, bounds[1:])] == [64, 64, 64, 64]
    assert max(calls) <= per_block
    assert out.dtype == np.float32 and out.shape == (32, 8, 8, 256)
    assert out.tobytes() == np.concatenate(
        [conv2d(x[..., a:b], wt)[0] for a, b in zip(bounds, bounds[1:])], axis=3).tobytes()


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_conv2d_backward_matches_nested_loops(stride, pad):
    rng = np.random.default_rng(40 + 2 * stride + pad)
    x = rng.standard_normal((3, 2, 7, 6))
    wt = rng.standard_normal((4, 2, 3, 3))
    out, cols = tensor.conv2d(_chwn(x), wt, stride, pad)
    grad = rng.standard_normal(_nchw(out).shape)
    d_w = tensor.conv2d_weight_grad(_chwn(grad), cols, wt.shape)
    d_x = tensor.conv2d_input_grad(_chwn(grad), wt, _chwn(x).shape, stride, pad)
    want_w, want_x = conv2d_backward_naive(x, wt, grad, stride, pad)
    assert rel_err(d_w, want_w) < 1e-12
    assert rel_err(_nchw(d_x), want_x) < 1e-12


@pytest.mark.parametrize("stride, pad", [(1, 0), (2, 1)])
def test_float32_conv_runs_in_float32(monkeypatch, stride, pad):
    # A float32 input casts the float64 kernel once and keeps every result
    # float32: the row patches, both conv outputs, d_weight and d_x.
    rng = np.random.default_rng(44 + stride)
    x = rng.standard_normal((5, 2, 7, 6))
    wt = rng.standard_normal((4, 2, 3, 3))
    grad = rng.standard_normal(_nchw(tensor.conv2d(_chwn(x), wt, stride, pad)[0]).shape)
    out, cols = tensor.conv2d(_chwn(x.astype(np.float32)), wt, stride, pad)
    d_w = tensor.conv2d_weight_grad(_chwn(grad.astype(np.float32)), cols, wt.shape)
    d_x = tensor.conv2d_input_grad(_chwn(grad.astype(np.float32)), wt, _chwn(x).shape,
                                   stride, pad)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", cols.nbytes // 3)
    blocked = tensor.conv2d_forward(_chwn(x.astype(np.float32)), wt, stride, pad)
    assert {a.dtype for a in (out, cols, d_w, d_x, blocked)} == {np.dtype(np.float32)}
    want_w, want_x = conv2d_backward_naive(x, wt, grad, stride, pad)
    assert rel_err(_nchw(out), conv2d_naive(x, wt, stride, pad)) < 1e-6
    assert blocked.tobytes() == out.tobytes()
    assert rel_err(d_w, want_w) < 1e-6
    assert rel_err(_nchw(d_x), want_x) < 1e-6


def test_conv2d_gradients_are_adjoints():
    # float64: <conv2d(x), g> == <x, d_x(g)> == <w, d_w(g)>, the input and
    # weight gradients being adjoints of the bilinear conv
    rng = np.random.default_rng(29)
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            for k in range(1, 6):
                x = rng.standard_normal((3, 9, 8, 2))
                wt = rng.standard_normal((4, 3, k, k))
                out, rows = tensor.conv2d(x, wt, stride, pad)
                g = rng.standard_normal(out.shape)
                dot = float(np.vdot(out, g))
                d_x = tensor.conv2d_input_grad(g, wt, x.shape, stride, pad)
                d_w = tensor.conv2d_weight_grad(g, rows, wt.shape)
                scale = np.abs(out * g).sum()
                assert abs(dot - np.vdot(x, d_x)) <= 1e-12 * scale, (stride, pad, k)
                assert abs(dot - np.vdot(wt, d_w)) <= 1e-12 * scale, (stride, pad, k)


def test_conv2d_input_grad_peaks_below_an_im2col_sized_matrix():
    """Layer 1's shape at batch 64, float32: d_x takes one GEMM per kernel
    row, so its traced peak stays below the (800 x 4096, 13.1 MB) matrix
    that one GEMM over whole windows would form."""
    rng = np.random.default_rng(63)
    wt = rng.standard_normal((32, 32, 5, 5))
    g = rng.standard_normal((32, 8, 8, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d_x = tensor.conv2d_input_grad(g, wt, (32, 12, 12, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d_x.dtype == np.float32 and d_x.shape == (32, 12, 12, 64)
    assert peak - before < 32 * 5 * 5 * 8 * 8 * 64 * 4


def test_row_patches_and_conv2d_reject_empty_output():
    x = np.zeros((1, 3, 3, 1))
    with pytest.raises(ShapeError):
        tensor.row_patches(x, k=5, stride=1, pad=0)
    with pytest.raises(ShapeError, match="non-positive output dims"):
        tensor.conv2d(x, np.zeros((2, 1, 5, 5)))


def test_svd_reconstructs_and_matches_lapack():
    rng = np.random.default_rng(31)
    for shape in [(4, 4), (6, 3), (3, 6), (12, 25), (32, 25), (64, 1152)]:
        m = rng.standard_normal(shape)
        u, s, vt = tensor.svd(m)
        assert s.shape == (min(shape),)
        assert np.all(np.diff(s) <= 1e-12)
        assert rel_err(u @ np.diag(s) @ vt, m) < 1e-10
        assert rel_err(u.T @ u, np.eye(u.shape[1])) < 1e-9
        assert rel_err(vt @ vt.T, np.eye(vt.shape[0])) < 1e-9
        want = np.linalg.svd(m, compute_uv=False)
        assert rel_err(s, want) < 1e-8


def test_singular_values_match_svd():
    rng = np.random.default_rng(47)
    for m in (rng.standard_normal((12, 25)), rng.standard_normal((32, 32, 25))):
        assert rel_err(tensor.singular_values(m), tensor.svd(m)[1]) < 1e-12


def test_singular_values_transpose_invariant():
    rng = np.random.default_rng(37)
    m = rng.standard_normal((9, 14))
    a = tensor.singular_values(m)
    b = tensor.singular_values(m.T)
    assert rel_err(a, b) < 1e-10


def test_singular_values_of_rank_deficient_matrix():
    rng = np.random.default_rng(41)
    base = rng.standard_normal((7, 2))
    m = base @ rng.standard_normal((2, 5))
    s = tensor.singular_values(m)
    assert s[2:].max() < 1e-10 * s[0]


def test_frobenius_norm_equals_singular_value_energy():
    rng = np.random.default_rng(43)
    m = rng.standard_normal((10, 6))
    s = tensor.singular_values(m)
    assert abs(np.sum(s**2) - np.sum(m**2)) < 1e-9 * np.sum(m**2)


def _block_diagonal(kernels):
    """The dense (G*O, G*B, k, k) weight of a grouped conv's (G, O, B, k, k)
    kernels."""
    g, o, b = kernels.shape[:3]
    w = np.zeros((g * o, g * b) + kernels.shape[3:])
    for i in range(g):
        w[i * o : (i + 1) * o, i * b : (i + 1) * b] = kernels[i]
    return w


# (G, O, B): one output per group (the grouped path), several per group, and
# one group (a generated layer's banded cross conv)
_GROUPINGS = [(3, 1, 2), (3, 2, 2), (1, 4, 3)]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_grouped_conv_matches_nested_loops_and_is_adjoint(stride, pad):
    rng = np.random.default_rng(10 * stride + pad)
    k, n = 3, 2
    for g, o, b in _GROUPINGS:
        u = rng.standard_normal((g * b, 7, 6, n))
        kernels = rng.standard_normal((g, o, b, k, k))
        out, rows = tensor.grouped_conv(u, kernels, stride, pad)
        want = conv2d_naive(_nchw(u), _block_diagonal(kernels), stride=stride, pad=pad)
        assert rel_err(_nchw(out), want) < 1e-12

        grad = rng.standard_normal(out.shape)
        d_kernels = tensor.grouped_conv_kernel_grad(grad, rows, kernels.shape, u.shape,
                                                    stride, pad)
        d_u = tensor.grouped_conv_input_grad(grad, kernels, u.shape, stride, pad)
        assert d_kernels.shape == kernels.shape and d_u.shape == u.shape
        # both are adjoints of the bilinear map (u, kernels) -> out
        dot = np.vdot(out, grad)
        assert abs(dot - np.vdot(u, d_u)) < 1e-12 * np.abs(out * grad).sum()
        assert abs(dot - np.vdot(kernels, d_kernels)) < 1e-12 * np.abs(out * grad).sum()


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
def test_grouped_conv_backward_matches_finite_differences(stride, pad):
    rng = np.random.default_rng(40 + stride)
    for g, o, b in _GROUPINGS:
        u = rng.standard_normal((g * b, 6, 5, 2))
        kernels = rng.standard_normal((g, o, b, 3, 3))
        grad = rng.standard_normal(tensor.grouped_conv(u, kernels, stride, pad)[0].shape)
        rows = tensor.grouped_conv(u, kernels, stride, pad)[1]
        d_kernels = tensor.grouped_conv_kernel_grad(grad, rows, kernels.shape, u.shape,
                                                    stride, pad)
        d_u = tensor.grouped_conv_input_grad(grad, kernels, u.shape, stride, pad)

        def loss(u_, kernels_):
            return float(np.sum(tensor.grouped_conv(u_, kernels_, stride, pad)[0] * grad))

        want_u = finite_difference(lambda t: loss(t, kernels), u.copy())
        want_kernels = finite_difference(lambda t: loss(u, t), kernels.copy())
        assert rel_err(d_u, want_u) < 1e-7, (g, o, b)
        assert rel_err(d_kernels, want_kernels) < 1e-7, (g, o, b)


@pytest.mark.parametrize("stride", [2, 3])
def test_grouped_conv_input_grad_matches_nested_loops_where_windows_miss_rows(stride):
    # An 8x7 input at stride 2 or 3 leaves its last rows or columns out of
    # every window for some k and pad, where d_u must be zero.
    rng = np.random.default_rng(100 + stride)
    n, h, w = 2, 8, 7
    unreached = 0
    for pad in range(3):
        for k in range(1, 6):
            h_used = (tensor.conv_output_size(h, k, stride, pad) - 1) * stride + k
            w_used = (tensor.conv_output_size(w, k, stride, pad) - 1) * stride + k
            unreached += h_used < pad + h or w_used < pad + w
            for g, o, b in _GROUPINGS:
                u_shape = (g * b, h, w, n)
                kernels = rng.standard_normal((g, o, b, k, k))
                out = tensor.grouped_conv(np.zeros(u_shape), kernels, stride, pad)[0]
                grad = rng.standard_normal(out.shape)
                d_u = tensor.grouped_conv_input_grad(grad, kernels, u_shape, stride, pad)
                _, want = conv2d_backward_naive(np.zeros((n, g * b, h, w)),
                                                _block_diagonal(kernels), _nchw(grad),
                                                stride, pad)
                assert d_u.shape == u_shape
                assert rel_err(_nchw(d_u), want) < 1e-12, (pad, k, g, o, b)
    assert unreached >= 5


def test_row_patches_copy_each_input_row_k_times():
    x = np.arange(2 * 4 * 5 * 3, dtype=np.float64).reshape(2, 4, 5, 3)
    rows = tensor.row_patches(x, 2)
    assert rows.shape == (1, 4 * 2 * 2, 4 * 3)
    assert rows.nbytes == tensor.row_patch_bytes(x.shape, 2, 1, 0, 8) * 3
    # row (input row, channel, kernel col j) holds out-cols j.. j+3 of that row
    for h in range(4):
        for c in range(2):
            for j in range(2):
                assert np.array_equal(rows[0, (h * 2 + c) * 2 + j], x[c, h, j : j + 4].ravel())
    assert not np.may_share_memory(tensor.row_patches(x[:, :, :1], 1), x)


def test_grouped_conv_rejects_mismatched_kernels():
    with pytest.raises(ShapeError, match="G\\*B"):
        tensor.grouped_conv(np.zeros((5, 4, 4, 1)), np.zeros((2, 1, 2, 3, 3)))
    with pytest.raises(ShapeError):
        tensor.grouped_conv(np.zeros((4, 4, 4, 1)), np.zeros((2, 1, 2, 3, 2)))
    with pytest.raises(ShapeError):  # the 4-D kernels of a dense conv
        tensor.grouped_conv(np.zeros((4, 4, 4, 1)), np.zeros((2, 2, 3, 3)))
