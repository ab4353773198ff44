"""Dense numerical kernels: row-patch lowering, convolution, grouped
convolution, SVD.

Conventions used throughout the package:

* an array is computed in its own dtype if that is float32, and in
  float64 otherwise (``as_float``): a float32 batch lowers, multiplies
  and scatters at half the bytes, any other input runs in float64;
* matrices are 2-D, row-major (C order);
* activation tensors are 4-D, shaped (c, h, w, n), sample innermost, as a
  conv's GEMM makes them (nn.Sequential takes (n, c, h, w));
* convolution kernels are 4-D (C_out, C_in, k, k);
* every conv lowers its input to row patches, each padded input row copied
  k times, once per kernel column: per group, rows are ordered (padded
  input row, channel, kernel column) and columns (output column, sample),
  so each copy is a contiguous run of W_out*n values;
* a dense conv runs MEC (Cho & Brand, arXiv:1706.06873): output row i
  reads the window of row patches that starts at padded input row
  i*stride, k input rows of C_in*k rows each, a plain strided view.  Its
  GEMMs run im2col's multiply-adds, summed in (kernel row, channel,
  kernel column) order, on a matrix about k times smaller;
* a grouped conv runs one banded GEMM per group on the same matrix, so
  its output comes in (c, h, w, n) layout with no transpose; its input
  gradient, one GEMM with the kernel columns in its inner dimension,
  gives d_u in that layout too, with no scatter-add.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError


def as_float(a) -> np.ndarray:
    """a as an array of the dtype it is computed in: a float32 array as it
    is, anything else as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D array by as_float's rule, raising ShapeError otherwise."""
    m = as_float(a)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must be 2-D with positive dims, got shape {m.shape}")
    return m


def as_tensor4d(a, name: str = "tensor") -> np.ndarray:
    """Coerce to a 4-D array by as_float's rule, raising ShapeError otherwise."""
    t = as_float(a)
    if t.ndim != 4:
        raise ShapeError(f"{name} must be 4-D (c, h, w, n), got shape {t.shape}")
    return t


def matmul(a, b) -> np.ndarray:
    """BLAS-backed product; throughput path for the training loop."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: a is {a.shape}, b is {b.shape}")
    return a @ b


def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _row_patch_dims(h: int, w: int, k: int, stride: int, pad: int):
    """(H_used, H_out, W_out): the padded input rows a k x k window sliding
    over an h x w image reaches, and the checked output dims."""
    if k < 1 or stride < 1 or pad < 0:
        raise ShapeError(f"invalid conv arguments: k={k}, stride={stride}, pad={pad}")
    h_out = conv_output_size(h, k, stride, pad)
    w_out = conv_output_size(w, k, stride, pad)
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"non-positive output dims {h_out}x{w_out} for input {h}x{w}, "
            f"kernel {k}, stride {stride}, pad {pad}"
        )
    return (h_out - 1) * stride + k, h_out, w_out


def row_patch_bytes(u_shape, k: int, stride: int, pad: int, itemsize: int) -> int:
    """Bytes per sample of row_patches' matrix for a (C, H, W, n) input."""
    c, h, w, _ = u_shape
    h_used, _, w_out = _row_patch_dims(h, w, k, stride, pad)
    return c * k * h_used * w_out * itemsize


def row_patches(u, k: int, stride: int = 1, pad: int = 0, groups: int = 1) -> np.ndarray:
    """Lower a (G*B, H, W, n) batch to the (G, H_used*B*k, W_out*n) row-patch
    matrix of its G channel groups, H_used = (H_out-1)*stride + k.

    Zero padding.  Row r of group g indexes (padded input row hp, channel b,
    kernel column j) in C order and column c indexes (out-col, sample); the
    entry is the padded input at (g*B + b, hp, out-col*stride + j, sample).
    Each input row is copied k times, once per kernel column, where im2col
    would copy it k*k times.
    """
    u = as_tensor4d(u, "input")
    c, h, w, n = u.shape
    h_used, _, w_out = _row_patch_dims(h, w, k, stride, pad)
    up = np.pad(u, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else u
    sc, sh, sw, sn = up.strides
    b = c // groups
    patches = np.lib.stride_tricks.as_strided(
        up,
        shape=(groups, h_used, b, k, w_out, n),
        strides=(b * sc, sh, sc, sw, stride * sw, sn),
        writeable=False,
    )
    return np.array(patches, order="C").reshape(groups, h_used * b * k, w_out * n)


# Bound on an eval-mode conv block's row patches.  Inference of the default
# dense arch on 1,280 float32 samples at batch 256 (MEC, one BLAS thread, a
# 2-vCPU Xeon) ran within noise at 2, 4, 8 and 16 MiB blocks.  At 4 MiB an
# inference batch peaks below half of what a training forward of it keeps.
_BLOCK_BYTES = 4 << 20


def in_sample_blocks(fn, x, sample_bytes: int) -> np.ndarray:
    """fn(x) computed over the fewest sample blocks of x whose temporaries,
    at sample_bytes per sample, fit _BLOCK_BYTES (4 MiB), block sizes
    differing by at most one sample.

    fn maps a (..., n_block) batch to a (..., n_block) output.  One block's
    output is returned as fn makes it; several are written into one
    preallocated output, each into its own sample range.  The split depends
    only on n and sample_bytes.
    """
    n = x.shape[-1]
    n_blocks = -(-n // max(1, _BLOCK_BYTES // max(1, sample_bytes)))
    if n_blocks == 1:
        return fn(x)
    out = None
    for i in range(n_blocks):
        start, stop = n * i // n_blocks, n * (i + 1) // n_blocks
        part = fn(x[..., start:stop])
        if out is None:
            out = np.empty(part.shape[:-1] + (n,), dtype=part.dtype)
        out[..., start:stop] = part
        del part  # not alive while the next block is computed
    return out


def _conv_args(x, weight, stride: int, pad: int):
    """Checked input and weight of a conv2d call, the weight cast to the
    input's dtype, and its (H_out, W_out)."""
    x = as_tensor4d(x, "input")
    w = as_tensor4d(weight, "weight").astype(x.dtype, copy=False)
    c_in, h, wd, _ = x.shape
    if w.shape[1] != c_in:
        raise ShapeError(
            f"weight expects {w.shape[1]} input channels, input has {c_in} "
            f"(weight {w.shape}, input {x.shape})"
        )
    return x, w, _row_patch_dims(h, wd, w.shape[2], stride, pad)[1:]


def _windows(rows: np.ndarray, h_out: int, k: int, stride: int) -> np.ndarray:
    """The (H_out, k*C*k, W_out*n) view of a (H_used*C*k, W_out*n) row-patch
    matrix whose entry i is output row i's window, padded input rows
    i*stride .. i*stride + k-1."""
    band = rows.shape[0] // ((h_out - 1) * stride + k)
    sr, sc = rows.strides
    return np.lib.stride_tricks.as_strided(
        rows, shape=(h_out, k * band, rows.shape[1]), strides=(stride * band * sr, sr, sc),
        writeable=False)


def conv2d(x, weight, stride: int = 1, pad: int = 0):
    """conv2d of a (C_in, H, W, n) batch with a (C_out, C_in, k, k) weight, by
    MEC: one batched GEMM of the weight, as a (C_out, k*C_in*k) matrix, with
    each output row's window of x's row patches.

    Returns (output, rows): the (C_out, H_out, W_out, n) output, and x's
    (H_used*C_in*k, W_out*n) row-patch matrix, which conv2d_weight_grad needs.
    """
    x, w, (h_out, w_out) = _conv_args(x, weight, stride, pad)
    c_out, k = w.shape[0], w.shape[2]
    rows = row_patches(x, k, stride, pad)[0]
    out = np.empty((c_out, h_out, w_out * x.shape[3]), dtype=x.dtype)
    np.matmul(w.transpose(0, 2, 1, 3).reshape(c_out, -1), _windows(rows, h_out, k, stride),
              out=out.transpose(1, 0, 2))
    return out.reshape(c_out, h_out, w_out, x.shape[3]), rows


def conv2d_forward(x, weight, stride: int = 1, pad: int = 0) -> np.ndarray:
    """The output of conv2d alone; the row patches are made in bounded
    blocks (in_sample_blocks) and never kept.  Every output element is the
    same dot product as in conv2d."""
    x, w, _ = _conv_args(x, weight, stride, pad)
    sample_bytes = row_patch_bytes(x.shape, w.shape[2], stride, pad, x.itemsize)
    return in_sample_blocks(lambda xb: conv2d(xb, w, stride, pad)[0], x, sample_bytes)


def conv2d_weight_grad(grad, rows, weight_shape) -> np.ndarray:
    """d_weight of conv2d, shaped weight_shape, given the output gradient
    and the forward's rows; computed in rows' dtype when grad has it.  Each
    output row's gradient times its window, summed over output rows."""
    c_out, c_in, k, _ = weight_shape
    h_out = grad.shape[1]
    stride = (rows.shape[0] // (c_in * k) - k) // max(h_out - 1, 1)
    g = grad.reshape(c_out, h_out, -1).transpose(1, 2, 0)
    # windows @ g.T has the same dot products as g @ windows.T, and OpenBLAS
    # runs it faster.
    d_w = np.matmul(_windows(rows, h_out, k, stride), g).sum(axis=0)
    return d_w.T.reshape(c_out, k, c_in, k).transpose(0, 2, 1, 3)


def conv2d_input_grad(grad, weight, x_shape, stride: int = 1, pad: int = 0) -> np.ndarray:
    """d_x of conv2d, shaped x_shape, given the output gradient; computed in
    grad's dtype.  It needs no rows, so a caller can free them first.

    Kernel row a's GEMM gives every window's gradient at its padded input
    row a, added into the row patches' gradient at rows a, a + stride, ...;
    the row patches' adjoint then adds kernel column j's copies back at
    input columns j, j + stride, ...  Input rows and columns that no window
    reaches get 0."""
    c, h, w, n = x_shape
    c_out, k = weight.shape[0], weight.shape[2]
    h_used, h_out, w_out = _row_patch_dims(h, w, k, stride, pad)
    # [a] is kernel row a as a (C_in*k, C_out) matrix
    w_rows = np.asarray(weight).astype(grad.dtype).transpose(2, 1, 3, 0).reshape(k, c * k, c_out)
    g = grad.reshape(c_out, h_out, -1).transpose(1, 0, 2)
    d_rows = np.zeros((h_used, c * k, w_out * n), dtype=grad.dtype)
    np.matmul(w_rows[0], g, out=d_rows[: stride * h_out : stride])
    for a in range(1, k):
        d_rows[a : a + stride * h_out : stride] += np.matmul(w_rows[a], g)
    d_rows = d_rows.reshape(h_used, c, k, w_out, n)
    d_xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=grad.dtype)
    for j in range(k):
        d_xp[:, :h_used, j : j + stride * w_out : stride] += d_rows[:, :, j].transpose(1, 0, 2, 3)
    return d_xp[:, pad : pad + h, pad : pad + w]


def _diagonals(band: np.ndarray, stride: int) -> np.ndarray:
    """The kernel entries of a (G, O, H_out, H_used, B, k) banded array, as a
    (G, O, H_out, k, B, k) view: [g, c, o, i, b, j] is
    band[g, c, o, o*stride + i, b, j]."""
    sg, sc, so, sh, sb, sj = band.strides
    return np.lib.stride_tricks.as_strided(
        band, shape=band.shape[:3] + (band.shape[5],) + band.shape[4:],
        strides=(sg, sc, so + stride * sh, sh, sb, sj))


def _banded(kernels: np.ndarray, h_out: int, h_used: int, stride: int) -> np.ndarray:
    """The (G, O*H_out, H_used*B*k) left factors of grouped_conv: row
    (c, o) of group g holds kernels[g, c]'s rows on the diagonals that start
    at padded input row o*stride."""
    g, o, b, k, _ = kernels.shape
    band = np.zeros((g, o, h_out, h_used, b, k), dtype=kernels.dtype)
    _diagonals(band, stride)[...] = kernels.transpose(0, 1, 3, 2, 4)[:, :, None]
    return band.reshape(g, o * h_out, h_used * b * k)


def _grouped_args(u, kernels, stride: int, pad: int):
    """Checked input and (G, O, B, k, k) kernels of a grouped_conv call, the
    kernels cast to the input's dtype, and row_patches' dims."""
    u = as_tensor4d(u, "input")
    kern = as_float(kernels).astype(u.dtype, copy=False)
    shape = kern.shape
    if len(shape) != 5 or shape[4] != shape[3] or shape[0] * shape[2] != u.shape[0]:
        raise ShapeError(
            f"kernels {kern.shape} must be (G, O, B, k, k) with G*B = {u.shape[0]} "
            f"input channels"
        )
    return u, kern, _row_patch_dims(u.shape[1], u.shape[2], kern.shape[3], stride, pad)


def grouped_conv(u, kernels, stride: int = 1, pad: int = 0):
    """Grouped conv of a (G*B, H, W, n) batch with (G, O, B, k, k) kernels:
    output channel g*O + c is the sum of input channels g*B .. g*B+B-1,
    each convolved with its own kernel of kernels[g, c].  O = 1 is a conv
    with one output per group, G = 1 a dense conv.

    Each group is one GEMM of a banded (O*H_out, H_used*B*k) matrix, which
    holds kernels[g]'s rows on shifted diagonals, with the group's rows of
    row_patches(u).  Returns (output, rows): the (G*O, H_out, W_out, n)
    output and the (G, H_used*B*k, W_out*n) row-patch matrix that
    grouped_conv_kernel_grad needs.
    """
    u, kern, (h_used, h_out, w_out) = _grouped_args(u, kernels, stride, pad)
    g, o, _, k, _ = kern.shape
    rows = row_patches(u, k, stride, pad, groups=g)
    out = np.matmul(_banded(kern, h_out, h_used, stride), rows)
    return out.reshape(g * o, h_out, w_out, u.shape[3]), rows


def grouped_conv_kernel_grad(grad, rows, kernel_shape, u_shape, stride: int = 1,
                             pad: int = 0) -> np.ndarray:
    """d_kernels of grouped_conv, shaped kernel_shape, given the output
    gradient and the forward's rows; computed in rows' dtype when grad has it."""
    _, h, w, n = u_shape
    g, o, b, k, _ = kernel_shape
    h_used, h_out, w_out = _row_patch_dims(h, w, k, stride, pad)
    g_mat = grad.reshape(g, o * h_out, w_out * n)
    d_band = np.matmul(g_mat, rows.transpose(0, 2, 1)).reshape(g, o, h_out, h_used, b, k)
    return _diagonals(d_band, stride).sum(axis=2).transpose(0, 1, 3, 2, 4)


def grouped_conv_input_grad(grad, kernels, u_shape, stride: int = 1,
                            pad: int = 0) -> np.ndarray:
    """d_u of grouped_conv, shaped u_shape, given the output gradient;
    computed in grad's dtype.  It needs no rows, so a caller can free them
    first.  It is the transposed conv along the width (Dumoulin & Visin,
    arXiv:1603.07285) as one GEMM per group: a (B*H, k*O*H_out) banded
    matrix, kernel column j in its columns, times a (k*O*H_out, W*n) stack
    of k copies of the group's gradient, copy j at padded input columns j,
    j + stride, ...  Input rows and columns that no window reaches get 0."""
    c, h, w, n = u_shape
    kern = np.asarray(kernels).astype(grad.dtype, copy=False)
    g, o, b, k, _ = kern.shape
    _, h_out, w_out = _row_patch_dims(h, w, k, stride, pad)
    band = np.zeros((g, b, h + 2 * pad, k, o, h_out), dtype=grad.dtype)
    sg, sb, sh, sj, sc, so = band.strides
    np.lib.stride_tricks.as_strided(  # [g, b, i, j, c, o] is band[g, b, o*stride + i, j, c, o]
        band, shape=(g, b, k, k, o, h_out), strides=(sg, sb, sh, sj, sc, so + stride * sh)
    )[...] = kern.transpose(0, 2, 3, 4, 1)[..., None]
    band = band[:, :, pad : pad + h].reshape(g, b * h, k * o * h_out)
    stack = np.zeros((g, k, o * h_out, w + 2 * pad, n), dtype=grad.dtype)
    sg, sj, sr, sw, sn = stack.strides
    np.lib.stride_tricks.as_strided(  # [g, j, r, wo] is stack[g, j, r, wo*stride + j]
        stack, shape=(g, k, o * h_out, w_out, n), strides=(sg, sj + sw, sr, stride * sw, sn)
    )[...] = grad.reshape(g, 1, o * h_out, w_out, n)
    stack = stack.reshape(g, k * o * h_out, -1)[:, :, pad * n : (pad + w) * n]
    return np.matmul(band, stack).reshape(c, h, w, n)


def _check_finite(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{what} contains non-finite entries")


def _svd_input(m) -> np.ndarray:
    """m as a finite float64 matrix or stack (..., rows, cols) of them."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 3 or min(a.shape) < 1:
        a = as_matrix(a, "matrix")
    _check_finite(a, "svd input")
    return a


def svd(m):
    """Thin SVD by LAPACK.  Returns (u, s, vt) with m == u @ diag(s) @ vt.

    m is a matrix or a stack (..., rows, cols) of matrices; s holds the
    min(rows, cols) singular values of each, descending.
    """
    return np.linalg.svd(_svd_input(m), full_matrices=False)


def singular_values(m) -> np.ndarray:
    """All min(rows, cols) singular values of m (or of each matrix in a
    stack), descending, each >= 0; the singular vectors are never formed."""
    return np.linalg.svd(_svd_input(m), compute_uv=False)
