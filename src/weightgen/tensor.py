"""Dense numerical kernels: im2col and row-patch lowering, convolution,
grouped convolution, SVD.

Conventions used throughout the package:

* an array is computed in its own dtype if that is float32, and in
  float64 otherwise (``as_float``): a float32 batch runs every im2col,
  GEMM and col2im at half the bytes, any other input runs in float64;
* matrices are 2-D, row-major (C order);
* activation tensors are 4-D, shaped (c, h, w, n), sample innermost, as a
  conv's GEMM makes them (nn.Sequential takes (n, c, h, w));
* convolution kernels are 4-D (C_out, C_in, k, k), and their GEMM "matrix
  view" is the row-major reshape to (C_out, C_in*k*k);
* im2col rows are ordered (channel, kernel-row, kernel-col), columns are
  ordered output-row major, output-column, then sample minor, so each of
  col2im's k*k shifted adds runs over W_out*n contiguous values;
* row-patch rows are ordered (channel, kernel-col, input row) and columns
  (output-column, sample), so a grouped conv's banded GEMM gives its output
  in (c, h, w, n) layout with no transpose; its input gradient, one GEMM
  with the kernel columns in its inner dimension, gives d_u in that layout
  too, with no scatter-add.
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


def _output_dims(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Checked (H_out, W_out) of a k x k window sliding over an h x w image."""
    if k < 1 or stride < 1 or pad < 0:
        raise ShapeError(f"invalid im2col arguments: k={k}, stride={stride}, pad={pad}")
    h_out = conv_output_size(h, k, stride, pad)
    w_out = conv_output_size(w, k, stride, pad)
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"non-positive output dims {h_out}x{w_out} for input {h}x{w}, "
            f"kernel {k}, stride {stride}, pad {pad}"
        )
    return h_out, w_out


def im2col(x, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Lower a (C, H, W, n) batch to the (C*k*k) x (H_out*W_out*n) patch matrix.

    Zero padding.  Row r indexes (channel, kernel-row, kernel-col) in C order;
    column c indexes (out-row, out-col, sample) in C order, so the sample
    index is innermost and each shifted window is a contiguous run of
    W_out*n values.
    """
    x = as_tensor4d(x, "input")
    c, h, w, n = x.shape
    h_out, w_out = _output_dims(h, w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    sc, sh, sw, sn = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, k, k, h_out, w_out, n),
        strides=(sc, sh, sw, stride * sh, stride * sw, sn),
        writeable=False,
    )
    cols = np.ascontiguousarray(patches.reshape(c * k * k, h_out * w_out * n))
    # A 1x1 window at stride 1 and pad 0 reshapes to a view of x itself.
    return cols.copy() if np.may_share_memory(cols, x) else cols


def col2im(cols, x_shape, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Adjoint of im2col: scatter-add patch columns onto a (C, H, W, n) batch.

    <im2col(x), y> == <x, col2im(y)> holds exactly up to the roundoff of
    cols' dtype, which is what conv backward relies on.
    """
    c, h, w, n = x_shape
    cols = as_matrix(cols, "cols")
    h_out, w_out = _output_dims(h, w, k, stride, pad)
    if cols.shape != (c * k * k, h_out * w_out * n):
        raise ShapeError(
            f"cols shape {cols.shape} does not match target {x_shape} with "
            f"kernel {k}, stride {stride}, pad {pad}"
        )
    patches = cols.reshape(c, k, k, h_out, w_out, n)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                patches[:, i, j]
            )
    return xp[:, pad : pad + h, pad : pad + w]


# Bound on an eval-mode im2col block.  evaluate() of the default arch at
# batch 256 (float32, one BLAS thread) ran 4-19% faster with 16 MiB blocks
# than with 8 or 32 MiB ones, with no page faults at any size: cache locality.
_BLOCK_BYTES = 16 << 20


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
    return x, w, _output_dims(h, wd, w.shape[2], stride, pad)


def conv2d(x, weight, stride: int = 1, pad: int = 0):
    """conv2d of a (C_in, H, W, n) batch as GEMM of im2col with a
    (C_out, C_in, k, k) weight.

    Returns (output, cols): the GEMM result as the (C_out, H_out, W_out, n)
    output, and x's im2col patch matrix, which conv2d_weight_grad needs.
    """
    x, w, (h_out, w_out) = _conv_args(x, weight, stride, pad)
    cols = im2col(x, w.shape[2], stride, pad)
    out = matmul(w.reshape(w.shape[0], -1), cols)
    return out.reshape(w.shape[0], h_out, w_out, x.shape[3]), cols


def in_sample_blocks(fn, x, sample_bytes: int) -> np.ndarray:
    """fn(x) computed over the fewest sample blocks of x whose temporaries,
    at sample_bytes per sample, fit _BLOCK_BYTES (16 MiB), block sizes
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


def conv2d_forward(x, weight, stride: int = 1, pad: int = 0) -> np.ndarray:
    """The output of conv2d alone; the im2col matrix is built in bounded
    blocks (in_sample_blocks) and never kept.  Every output element is the
    same dot product as in conv2d."""
    x, w, (h_out, w_out) = _conv_args(x, weight, stride, pad)
    sample_bytes = w[0].size * h_out * w_out * x.itemsize
    return in_sample_blocks(lambda xb: conv2d(xb, w, stride, pad)[0], x, sample_bytes)


def conv2d_weight_grad(grad, cols, weight_shape) -> np.ndarray:
    """d_weight of conv2d, shaped weight_shape, given the output gradient
    and the forward's cols; computed in cols' dtype when grad has it."""
    g_mat = grad.reshape(weight_shape[0], -1)
    # cols @ g_mat.T has the same dot products, and OpenBLAS runs it faster.
    return matmul(cols, g_mat.T).T.reshape(weight_shape)


def conv2d_input_grad(grad, weight, x_shape, stride: int = 1, pad: int = 0) -> np.ndarray:
    """d_x of conv2d, shaped x_shape, given the output gradient; computed in
    grad's dtype.  It needs no cols, so a caller can free them first."""
    c_out, k = weight.shape[0], weight.shape[2]
    g_mat = grad.reshape(c_out, -1)
    d_cols = matmul(weight.reshape(c_out, -1).astype(g_mat.dtype, copy=False).T, g_mat)
    return col2im(d_cols, x_shape, k, stride, pad)


def _row_patch_dims(h: int, w: int, k: int, stride: int, pad: int):
    """(H_used, H_out, W_out): the padded input rows a k x k window reaches,
    and the checked output dims."""
    h_out, w_out = _output_dims(h, w, k, stride, pad)
    return (h_out - 1) * stride + k, h_out, w_out


def row_patch_bytes(u_shape, k: int, stride: int, pad: int, itemsize: int) -> int:
    """Bytes per sample of row_patches' matrix for a (C, H, W, n) input."""
    c, h, w, _ = u_shape
    h_used, _, w_out = _row_patch_dims(h, w, k, stride, pad)
    return c * k * h_used * w_out * itemsize


def row_patches(u, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Lower a (C, H, W, n) batch to the (C*k*H_used) x (W_out*n) row-patch
    matrix, H_used = (H_out-1)*stride + k.

    Zero padding.  Row r indexes (channel, kernel-col j, padded input row
    hp) in C order and column c indexes (out-col, sample); the entry is the
    padded input at (channel, hp, out-col*stride + j, sample).  Each input
    row is copied k times, once per kernel column, where im2col copies it
    k*k times.
    """
    u = as_tensor4d(u, "input")
    c, h, w, n = u.shape
    h_used, _, w_out = _row_patch_dims(h, w, k, stride, pad)
    up = np.pad(u, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else u
    sc, sh, sw, sn = up.strides
    patches = np.lib.stride_tricks.as_strided(
        up,
        shape=(c, k, h_used, w_out, n),
        strides=(sc, sw, sh, stride * sw, sn),
        writeable=False,
    )
    return np.array(patches, order="C").reshape(c * k * h_used, w_out * n)


def _diagonals(band: np.ndarray, stride: int) -> np.ndarray:
    """The kernel entries of a (G, O, H_out, B, k, H_used) banded array, as a
    (G, O, H_out, B, k, k) view: [g, c, o, b, j, i] is
    band[g, c, o, b, j, o*stride + i]."""
    sg, sc, so, sb, sj, sh = band.strides
    return np.lib.stride_tricks.as_strided(
        band, shape=band.shape[:5] + (band.shape[4],),
        strides=(sg, sc, so + stride * sh, sb, sj, sh))


def _banded(kernels: np.ndarray, h_out: int, h_used: int, stride: int) -> np.ndarray:
    """The (G, O*H_out, B*k*H_used) left factors of grouped_conv: row
    (c, o) of group g holds kernels[g, c]'s rows on the diagonals that start
    at column o*stride."""
    g, o, b, k, _ = kernels.shape
    band = np.zeros((g, o, h_out, b, k, h_used), dtype=kernels.dtype)
    _diagonals(band, stride)[...] = kernels.transpose(0, 1, 2, 4, 3)[:, :, None]
    return band.reshape(g, o * h_out, b * k * h_used)


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

    Each group is one GEMM of a banded (O*H_out, B*k*H_used) matrix, which
    holds kernels[g]'s rows on shifted diagonals, with the group's rows of
    row_patches(u).  Returns (output, rows): the (G*O, H_out, W_out, n)
    output and the (G, B*k*H_used, W_out*n) row-patch matrix that
    grouped_conv_kernel_grad needs.
    """
    u, kern, (h_used, h_out, w_out) = _grouped_args(u, kernels, stride, pad)
    g, o, _, k, _ = kern.shape
    rows = row_patches(u, k, stride, pad).reshape(g, -1, w_out * u.shape[3])
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
    d_band = np.matmul(g_mat, rows.transpose(0, 2, 1)).reshape(g, o, h_out, b, k, h_used)
    return _diagonals(d_band, stride).sum(axis=2).transpose(0, 1, 2, 4, 3)


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
