"""Dense numerical kernels: im2col lowering, convolution, SVD.

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
  col2im's k*k shifted adds runs over W_out*n contiguous values.
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
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    sc, sh, sw, sn = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, k, k, h_out, w_out, n),
        strides=(sc, sh, sw, stride * sh, stride * sw, sn),
        writeable=False,
    )
    return np.ascontiguousarray(patches.reshape(c * k * k, h_out * w_out * n))


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


# glibc's top mmap threshold: larger buffers are mapped and faulted anew per call.
_BLOCK_BYTES = 32 << 20


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
    output, and x's im2col patch matrix, which conv2d_backward needs.
    """
    x, w, (h_out, w_out) = _conv_args(x, weight, stride, pad)
    cols = im2col(x, w.shape[2], stride, pad)
    out = matmul(w.reshape(w.shape[0], -1), cols)
    return out.reshape(w.shape[0], h_out, w_out, x.shape[3]), cols


def conv2d_forward(x, weight, stride: int = 1, pad: int = 0) -> np.ndarray:
    """The output of conv2d alone; the im2col matrix is built in bounded
    blocks and never kept.

    The batch goes through conv2d in the fewest sample blocks whose im2col
    matrix fits _BLOCK_BYTES (32 MiB), block sizes differing by at most one
    sample.  One block's output is returned as conv2d makes it; several are
    written into one preallocated output, each into its own sample range.
    The split depends only on the shapes, and every output element is the
    same dot product as in conv2d.
    """
    x, w, (h_out, w_out) = _conv_args(x, weight, stride, pad)
    n = x.shape[3]
    sample_bytes = w[0].size * h_out * w_out * x.itemsize
    n_blocks = -(-n // max(1, _BLOCK_BYTES // max(1, sample_bytes)))
    if n_blocks == 1:
        return conv2d(x, w, stride, pad)[0]
    bounds = [n * i // n_blocks for i in range(n_blocks + 1)]
    out = np.empty((w.shape[0], h_out, w_out, n), dtype=x.dtype)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        out[..., start:stop] = conv2d(x[..., start:stop], w, stride, pad)[0]
    return out


def conv2d_backward(grad, cols, weight, x_shape, stride: int = 1, pad: int = 0):
    """Gradients of conv2d given the output gradient and the forward's cols.

    Returns (d_weight, d_x), shaped like weight and like the input, both
    computed in cols' dtype when grad has it.
    """
    c_out, k = weight.shape[0], weight.shape[2]
    g_mat = grad.reshape(c_out, -1)
    d_weight = matmul(g_mat, cols.T).reshape(weight.shape)
    d_cols = matmul(weight.reshape(c_out, -1).astype(cols.dtype, copy=False).T, g_mat)
    return d_weight, col2im(d_cols, x_shape, k, stride, pad)


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
