import tracemalloc

import numpy as np
import pytest

from weightgen import tensor
from weightgen.errors import ShapeError

from oracles import conv2d_backward_naive, conv2d_naive, gemm_naive, rel_err


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
    cols_per_sample = tensor.im2col(_chwn(x[:1]), k, stride, pad).nbytes
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", per_block * cols_per_sample)
    blocks = []
    im2col = tensor.im2col

    def counting_im2col(xb, *args):
        blocks.append(xb.shape[3])
        return im2col(xb, *args)

    monkeypatch.setattr(tensor, "im2col", counting_im2col)
    got = _nchw(tensor.conv2d_forward(_chwn(x), wt, stride=stride, pad=pad))
    assert len(blocks) == -(-n // per_block) >= 3
    assert sum(blocks) == n and max(blocks) <= per_block
    assert max(blocks) - min(blocks) <= (0 if n % len(blocks) == 0 else 1)
    assert rel_err(got, conv2d_naive(x, wt, stride=stride, pad=pad)) < 1e-12
    assert rel_err(got, _nchw(tensor.conv2d(_chwn(x), wt, stride, pad)[0])) < 1e-12


def test_conv2d_forward_writes_blocks_into_one_output(monkeypatch):
    # C_out = 16 > C_in*k*k = 9, so an output outweighs one block's patch
    # matrix and GEMM result together: joining the block outputs after the
    # fact would hold two outputs at once, well above the bound below.
    rng = np.random.default_rng(2100)
    x = rng.standard_normal((1, 12, 12, 16))
    wt = rng.standard_normal((16, 1, 3, 3))
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", tensor.im2col(x, 3, 1, 1).nbytes // 4)
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
    block_cols = tensor.im2col(x[..., :4], 3, 1, 1).nbytes
    bound = out.nbytes + block_cols + blocks[0].nbytes + blocks[0].nbytes // 4
    assert bound < 2 * out.nbytes
    assert peak - before < bound


def test_im2col_row_and_column_order():
    # 1 sample, 2 channels, 3x3 image, k=2: check one patch explicitly.
    x = np.arange(18, dtype=np.float64).reshape(1, 2, 3, 3)
    cols = tensor.im2col(_chwn(x), k=2)
    assert cols.shape == (8, 4)
    # column 0 is the top-left patch: channel 0 rows then channel 1 rows,
    # each scanning (kh, kw) in C order.
    assert cols[:, 0].tolist() == [0, 1, 3, 4, 9, 10, 12, 13]
    # columns scan out-row major, out-col minor: column 1 shifts right by 1.
    assert cols[:, 1].tolist() == [1, 2, 4, 5, 10, 11, 13, 14]
    assert cols[:, 2].tolist() == [3, 4, 6, 7, 12, 13, 15, 16]


def test_im2col_columns_put_the_sample_innermost():
    # 2 samples, 1 channel, 3x4 image, k=2: columns run (out-row, out-col,
    # sample) in C order, so neighbouring columns are the two samples' same patch.
    x = np.arange(24, dtype=np.float64).reshape(2, 1, 3, 4)
    cols = tensor.im2col(_chwn(x), k=2)
    assert cols.shape == (4, 2 * 3 * 2)
    for i in range(2):
        for j in range(3):
            for b in range(2):
                patch = x[b, 0, i : i + 2, j : j + 2].reshape(-1)
                assert cols[:, (i * 3 + j) * 2 + b].tolist() == patch.tolist()


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_conv2d_backward_matches_nested_loops(stride, pad):
    rng = np.random.default_rng(40 + 2 * stride + pad)
    x = rng.standard_normal((3, 2, 7, 6))
    wt = rng.standard_normal((4, 2, 3, 3))
    out, cols = tensor.conv2d(_chwn(x), wt, stride, pad)
    grad = rng.standard_normal(_nchw(out).shape)
    d_w, d_x = tensor.conv2d_backward(_chwn(grad), cols, wt, _chwn(x).shape, stride, pad)
    want_w, want_x = conv2d_backward_naive(x, wt, grad, stride, pad)
    assert rel_err(d_w, want_w) < 1e-12
    assert rel_err(_nchw(d_x), want_x) < 1e-12


@pytest.mark.parametrize("stride, pad", [(1, 0), (2, 1)])
def test_float32_conv_runs_in_float32(monkeypatch, stride, pad):
    # A float32 input casts the float64 kernel once and keeps every result
    # float32: the patch matrix, both conv outputs, d_weight and col2im's d_x.
    rng = np.random.default_rng(44 + stride)
    x = rng.standard_normal((5, 2, 7, 6))
    wt = rng.standard_normal((4, 2, 3, 3))
    grad = rng.standard_normal(_nchw(tensor.conv2d(_chwn(x), wt, stride, pad)[0]).shape)
    out, cols = tensor.conv2d(_chwn(x.astype(np.float32)), wt, stride, pad)
    d_w, d_x = tensor.conv2d_backward(_chwn(grad.astype(np.float32)), cols, wt,
                                      _chwn(x).shape, stride, pad)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", cols.nbytes // 3)
    blocked = tensor.conv2d_forward(_chwn(x.astype(np.float32)), wt, stride, pad)
    assert {a.dtype for a in (out, cols, d_w, d_x, blocked)} == {np.dtype(np.float32)}
    want_w, want_x = conv2d_backward_naive(x, wt, grad, stride, pad)
    assert rel_err(_nchw(out), conv2d_naive(x, wt, stride, pad)) < 1e-6
    assert blocked.tobytes() == out.tobytes()
    assert rel_err(d_w, want_w) < 1e-6
    assert rel_err(_nchw(d_x), want_x) < 1e-6


def test_im2col_col2im_adjoint_identity():
    rng = np.random.default_rng(29)
    x_shape = (2, 3, 9, 8)
    for k, stride, pad in [(3, 1, 0), (3, 2, 1), (5, 1, 2), (2, 2, 0)]:
        x = rng.standard_normal(x_shape)
        cols = tensor.im2col(_chwn(x), k, stride, pad)
        y = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * _nchw(tensor.col2im(y, _chwn(x).shape, k, stride, pad))))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_im2col_rejects_empty_output():
    x = np.zeros((1, 1, 3, 3))
    with pytest.raises(ShapeError):
        tensor.im2col(x, k=5, stride=1, pad=0)


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
